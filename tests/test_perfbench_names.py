"""Every trajsel name that the benchmark's tracer patches must exist.

The benchmark in perfbench/ is not collected by this suite, and its tracer
swaps trajsel's module and class attributes at run time. Removing one of
those names would pass every other test here and only break a traced
benchmark run; these tests install and uninstall the tracer to catch it.
Some hooks also read what the call returns (its length, its records, the
file it wrote), so one tiny call of each such function runs traced too.
The benchmark's reference forward reads trajsel names the same way, so it
checks one tiny inference here.
"""

import os

import numpy as np
import pytest

from trajsel import diffcore, evaluator, planner, scenario
from trajsel.evaluator import DEFAULT_EVAL_CONFIG
from trajsel.generator import generate_scenario
from trajsel.scenario import DatasetRecord, GenConfig
from trajsel.vocab import VocabSpec, build_vocabulary

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


@pytest.fixture
def reference(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import reference

    return reference


def test_tape_primitives_exist(tracing):
    missing = [op for op in tracing.TAPE_PRIMITIVES if op not in diffcore.Tape.__dict__]
    assert not missing


def test_tracer_installs_and_uninstalls(tracing):
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
    finally:
        tracer.uninstall()
    assert len(patched) > len(tracing.TAPE_PRIMITIVES)
    originals = {}
    for owner, attr, value in patched:  # a name patched twice saved a wrapper second
        originals.setdefault((owner, attr), value)
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, attr


def test_hooks_that_read_results_count_a_tiny_call_of_each(tracing, tmp_path):
    vocab = build_vocabulary(VocabSpec(n_curvature=4, n_speed=3, n_accel=2))
    gen = GenConfig(vocab=vocab.spec)
    s = generate_scenario(0, gen)
    cfg = planner.PlannerConfig(hidden_dim=16, attn_heads=2, ff_dim=32, top_k=8)
    student = planner.init_params(cfg, vocab, seed=0)
    model = planner.PlannerModel(cfg, vocab, student, student.copy())
    data, sidecar = str(tmp_path / "d.jsonl"), str(tmp_path / "d.jsonl.labels.npz")
    with tracing.Tracer() as tracer:
        planner.observe(s)
        labels = evaluator.label_vocabulary(s, vocab)
        sha = scenario.save_dataset(data, [DatasetRecord("train", s)], gen)
        scenario.load_dataset(data)
        evaluator.save_labels(sidecar, [labels], dataset_sha=sha, vocabulary=vocab,
                              cfg=DEFAULT_EVAL_CONFIG)
        evaluator.load_labels(sidecar, dataset_sha=sha, vocabulary=vocab,
                              cfg=DEFAULT_EVAL_CONFIG)
        model.save(str(tmp_path / "m.ckpt"))
        model.student.bind(diffcore.Tape())
    counts = tracer.counts
    for name in ("tokens", "dataset_write_records", "dataset_bytes", "dataset_read_records",
                 "labels_write_sets", "labels_bytes", "labels_read_sets", "ckpt_bytes",
                 "bind_bytes"):
        assert counts[name] > 0, name
    assert counts["entries"] == len(vocab)


def test_reference_forward_agrees_with_a_loaded_model(reference, tmp_path):
    vocab = build_vocabulary(VocabSpec(n_curvature=4, n_speed=3, n_accel=2))
    s = generate_scenario(0, GenConfig(vocab=vocab.spec))
    cfg = planner.PlannerConfig(hidden_dim=16, attn_heads=2, ff_dim=32, top_k=8)
    student = planner.init_params(cfg, vocab, seed=0)
    # Every parameter moves off its initial value, so that one read under
    # another's name (the norms all start at gain 1, offset 0) shows.
    rng = np.random.default_rng(1)
    for name in student.names():
        student[name][:] += 0.1 * rng.standard_normal(student[name].shape)
    path = str(tmp_path / "m.ckpt")
    planner.PlannerModel(cfg, vocab, student, student.copy()).save(path)
    model = planner.PlannerModel.load(path, vocab)
    res = planner.infer(model, s)
    assert reference.check_inference(model, planner.observe(s, cfg.fov), res) == []


def test_traced_training_step_records_backward(tracing):
    # The tracer wraps Tape's operators; a training step is the one traced
    # call that runs backward, so a Tape signature its wrappers cannot pass
    # fails here rather than only in a traced benchmark run.
    vocab = build_vocabulary(VocabSpec(n_curvature=4, n_speed=3, n_accel=2))
    gen = GenConfig(vocab=vocab.spec)
    scenes = [generate_scenario(seed, gen) for seed in range(2)]
    labels = [evaluator.label_vocabulary(s, vocab) for s in scenes]
    cfg = planner.PlannerConfig(hidden_dim=16, coarse_layers=1, refine_layers=1,
                                attn_heads=2, ff_dim=32, top_k=8, batch_size=2,
                                epochs=1)
    with tracing.Tracer() as tracer:
        result = planner.train(scenes, vocab, cfg, 0, labels)
    assert result.steps == 1 and not result.aborted
    assert "diffcore.backward" in {span[0] for span in tracer.spans}
    assert tracer.counts["tape_ops"] > 0


def test_traced_blocked_infer_records_one_coarse_span(tracing, monkeypatch):
    # The coarse stage splits its rows into blocks inside one call, so the
    # tracer's span around `coarse_stage` still opens once per forward.
    vocab = build_vocabulary(VocabSpec(n_curvature=4, n_speed=3, n_accel=2))
    s = generate_scenario(0, GenConfig(vocab=vocab.spec))
    cfg = planner.PlannerConfig(hidden_dim=16, attn_heads=2, ff_dim=32, top_k=8)
    student = planner.init_params(cfg, vocab, seed=0)
    model = planner.PlannerModel(cfg, vocab, student, student.copy())
    ops = []
    for block_rows in (len(vocab), 8):
        monkeypatch.setattr(planner, "BLOCK_ROWS", block_rows)
        with tracing.Tracer() as tracer:
            planner.infer(model, s)
        names = [span[0] for span in tracer.spans]
        assert names.count("planner.coarse") == names.count("planner.forward") == 1
        ops.append(tracer.counts["forward_tape_ops"])
    assert ops[1] > ops[0]  # three blocks ran under the tracer
