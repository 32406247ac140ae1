"""Fast tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from trajsel import config, evaluator, generator, planner, scenario, vocab  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def desk():
    app = config.desk_config()
    voc = vocab.build_vocabulary(app.generator.vocab)
    store = planner.init_params(app.planner, voc, seed=3)
    model = planner.PlannerModel(app.planner, voc, store, store.copy())
    scenes = [generator.generate_scenario(workloads.scene_seed(7, i), app.generator)
              for i in range(2)]
    return app, voc, model, scenes


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_reference_forward_agrees_with_infer(desk):
    _, _, model, scenes = desk
    for s in scenes:
        res = planner.infer(model, s)
        tokens = scenario.observe(s, model.cfg.fov)
        assert reference.check_inference(model, tokens, res) == []


def test_reference_forward_catches_a_changed_weight(desk):
    _, _, model, scenes = desk
    res = planner.infer(model, scenes[0])
    tokens = scenario.observe(scenes[0], model.cfg.fov)
    other = model.teacher.copy()
    other["traj.w1"][0, 0] += 1e-3
    changed = planner.PlannerModel(model.cfg, model.vocabulary, other, other)
    assert reference.check_inference(changed, tokens, res)


def test_scalar_rules_agree_with_labels(desk):
    app, voc, _, scenes = desk
    rng = np.random.default_rng(0)
    for s in scenes:
        lab = evaluator.label_vocabulary(s, voc, app.evaluator)
        entries = sorted(set(rng.integers(0, len(voc), 24).tolist())
                         | {int(np.argmax(lab.epdms)), int(np.argmin(lab.epdms))})
        assert reference.check_rules(s, voc, lab, entries, app.evaluator) == []
        assert reference.aggregate_mismatches(lab, app.evaluator) == 0


def test_self_times_subtract_children():
    t = Tracer()
    t.spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 5.0, 6.0, 0, 0],
               ["d", 2.0, 3.0, 1, 0]]
    st = t.self_times()
    assert st["a"]["self_s"] == pytest.approx(6.0)
    assert st["b"]["self_s"] == pytest.approx(2.0)
    assert st["d"]["total_s"] == pytest.approx(1.0)


def test_host_speed_scales_by_the_probes_near_an_interval():
    h = HostSpeed()
    h.marks = [(0.0, 2 * REFERENCE_S), (1.0, 4 * REFERENCE_S), (2.0, 4 * REFERENCE_S),
               (3.0, REFERENCE_S)]
    assert h.scale(1.4, 1.6) == pytest.approx(0.25)  # only slow probes near
    assert h.normalise(1.4, 1.6) == pytest.approx(0.05)
    assert h.scale(-5.0, -4.0) == pytest.approx(0.5)  # before the first probe
    assert h.scale(2.9, 3.0) == pytest.approx(1 / 2.5)  # median of 4x and 1x


def test_tracer_restores_every_patched_name():
    before = (planner.forward, evaluator.label_vocabulary, planner.Tape.matmul)
    with Tracer():
        assert planner.forward is not before[0]
    assert (planner.forward, evaluator.label_vocabulary, planner.Tape.matmul) == before


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = _benchmark_json()
    key = "per_layer" if trace else "end_to_end"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "train-desk",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec[key]}


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
