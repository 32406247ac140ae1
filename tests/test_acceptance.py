"""End-to-end acceptance battery.

Each test prints one [PASS]/[FAIL] line (run with -s to see them live).
Several criteria run against the fixed 2000-train/500-test dataset and
the twelve trained arms under build/acceptance/, both made under
configs/acceptance.ini; when those artifacts are missing or were made
for another vocabulary or config (a label sidecar that `load_labels`
refuses, arms whose summary records another vocabulary digest or config
hash) they are rebuilt first,
which takes around 40 minutes on one CPU core.
`python3 scripts/accept_data.py` and `python3 scripts/run_arms.py`
prepare them ahead of time.
"""

import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from trajsel import evaluator, harness
from trajsel.cli import cli
from trajsel.config import config_hash, config_text, desk_config, load_config
from trajsel.diffcore import ParamStore, Tape, ema_update
from trajsel.evaluator import METRICS, aggregate, label_vocabulary, subscores
from trajsel.planner import (
    PlannerConfig,
    ema_momentum,
    forward,
    imitation_targets,
    init_params,
    loss_coarse,
    loss_refine,
    make_soft_labels,
)
from trajsel.scenario import load_dataset, rotate_scenario
from trajsel.geom import rotate_trajectory
from trajsel.vocab import VocabSpec, build_vocabulary, l2_to_entries

pytestmark = pytest.mark.acceptance

ROOT = Path(__file__).resolve().parents[1]
ACCEPT = ROOT / "build" / "acceptance"
ARM_KEYS = ["%s_s%d" % (arm, seed)
            for arm in ("c2f", "single", "noaug") for seed in range(4)]


def verdict(num: str, ok: bool, detail: str) -> bool:
    print("[%s] criterion %s: %s" % ("PASS" if ok else "FAIL", num, detail))
    return ok


# Rough wall time of each rebuild script on one CPU core.
REBUILD_MINUTES = {"accept_data.py": 2, "run_arms.py": 40}


def _rebuild(script: str, config) -> None:
    """Run a build script, announcing it on the terminal past output capture."""
    capman = config.pluginmanager.getplugin("capturemanager")
    tw = config.get_terminal_writer()

    def say(text):
        with capman.global_and_fixture_disabled() if capman else contextlib.nullcontext():
            tw.line()
            tw.line(text, yellow=True)

    say("build/acceptance/ is incomplete or stale: running scripts/%s, expect about %d minutes"
        % (script, REBUILD_MINUTES[script]))
    start = time.monotonic()
    subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                   cwd=ROOT, check=True)
    say("scripts/%s finished in %.1f minutes" % (script, (time.monotonic() - start) / 60))


def _labels_current(vocabulary, cfg) -> bool:
    """Both splits and their sidecars exist, and `load_labels` accepts each."""
    for split in ("train", "test"):
        data = ACCEPT / (split + ".jsonl")
        sidecar = ACCEPT / (split + ".jsonl.labels.npz")
        if not (data.exists() and sidecar.exists()):
            return False
        try:
            evaluator.load_labels(str(sidecar), dataset_sha=load_dataset(data).sha256,
                                  vocabulary=vocabulary, cfg=cfg)
        except evaluator.LabelCacheMismatch:
            return False
    return True


@pytest.fixture(scope="session")
def accept_data(pytestconfig, desk_app, desk_vocab):
    if not _labels_current(desk_vocab, desk_app.evaluator):
        _rebuild("accept_data.py", pytestconfig)
    return ACCEPT


@pytest.fixture(scope="session")
def arms_summary(accept_data, desk_vocab, pytestconfig):
    path = accept_data / "arms.json"
    stamp = {"vocab_digest": desk_vocab.digest,
             "config_hash": config_hash(load_config(ROOT / "configs" / "acceptance.ini"))}

    def load():
        return json.loads(path.read_text()) if path.exists() else {}

    summary = load()
    if any(summary.get(k) != v for k, v in stamp.items()) or any(
            k not in summary for k in ARM_KEYS):
        _rebuild("run_arms.py", pytestconfig)
        summary = load()
    missing = [k for k in ARM_KEYS if k not in summary]
    assert not missing, "arms still missing after rebuild: %s" % missing
    return summary


@pytest.fixture(scope="session")
def desk_app():
    return desk_config()


@pytest.fixture(scope="session")
def test_set(accept_data, desk_app, desk_vocab):
    ds = load_dataset(accept_data / "test.jsonl")
    labels = evaluator.load_labels(
        str(accept_data / "test.jsonl.labels.npz"), dataset_sha=ds.sha256,
        vocabulary=desk_vocab, cfg=desk_app.evaluator)
    return [r.scenario for r in ds.records], labels


@pytest.fixture(scope="session")
def train_set(accept_data, desk_app, desk_vocab):
    ds = load_dataset(accept_data / "train.jsonl")
    labels = evaluator.load_labels(
        str(accept_data / "train.jsonl.labels.npz"), dataset_sha=ds.sha256,
        vocabulary=desk_vocab, cfg=desk_app.evaluator)
    return [r.scenario for r in ds.records], labels


@pytest.fixture(scope="session")
def c2f_model(arms_summary, desk_vocab):
    from trajsel.planner import PlannerModel

    return PlannerModel.load(ACCEPT / "c2f_s0.ckpt", desk_vocab)


@pytest.fixture(scope="session")
def c2f_entry(arms_summary):
    return arms_summary["c2f_s0"]


def test_criterion_01a_aggregate_reference_row():
    sub = {"nc": 1.0, "dac": 1.0, "ep": 0.875, "ttc": 1.0, "c": 0.999}
    got = 100.0 * aggregate(sub, version="v1")
    ok = abs(got - 94.8) <= 0.05
    assert verdict("1a", ok, "aggregate(%s) = %.3f, want 94.8 +/- 0.05"
                   % ("1, 1, .875, 1, .999", got))


@pytest.mark.xfail(
    strict=True,
    reason="these subscores aggregate to 80.09 under the stated formula; "
    "the 84.0 +/- 0.1 target they are often quoted with is not what the "
    "formula yields, and the tolerance is kept as given rather than widened",
)
def test_criterion_01b_aggregate_quoted_row():
    sub = {"nc": 0.977, "dac": 0.928, "ep": 0.792, "ttc": 0.928, "c": 1.0}
    got = 100.0 * aggregate(sub, version="v1")
    ok = abs(got - 84.0) <= 0.1
    assert verdict("1b", ok, "aggregate = %.3f, want 84.0 +/- 0.1" % got)


def test_criterion_02_oracle_monotonicity(c2f_model, test_set):
    scenarios, labels = test_set
    ks = (1, 4, 16, 256)
    study = harness.oracle_study(
        harness.evaluate(c2f_model, scenarios, labels, use_teacher=False), ks)
    vals = [study[k] for k in ks]
    nondecreasing = all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    gain = vals[-1] - vals[0]
    ok = nondecreasing and gain >= 1.0
    assert verdict(
        "2", ok,
        "best-in-top-K on %d scenarios: %s (K1->K256 gain %.2f, want >= 1.0)"
        % (len(scenarios), " ".join("%.2f" % v for v in vals), gain))


def test_criterion_03_rotation_equivariance(test_set, desk_vocab):
    scenarios, _ = test_set
    rng = np.random.default_rng(77)
    worst = 0.0
    triples = 0
    for s in scenarios[:20]:
        for i in rng.choice(len(desk_vocab), size=5, replace=False):
            theta = float(rng.uniform(-math.pi / 6.0, math.pi / 6.0))
            t = desk_vocab.entry(int(i))
            sa = subscores(s, t)
            sb = subscores(rotate_scenario(s, theta), rotate_trajectory(t, -theta))
            a = np.array([sa[m] for m in METRICS])
            b = np.array([sb[m] for m in METRICS])
            worst = max(worst, float(np.abs(a - b).max()))
            triples += 1
    ok = triples == 100 and worst <= 1e-9
    assert verdict("3", ok,
                   "%d triples, max subscore deviation %.2e (want <= 1e-9)"
                   % (triples, worst))


class TestCriterion04Gradients:
    """Finite-difference agreement of the autodiff core and the full loss."""

    H = 1e-5
    TOL = 1e-4

    @staticmethod
    def everything(t, x, w, b, g, be, v):
        """One scalar loss that routes through every tape operator."""
        target = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3],
                           [0.25, 0.25, 0.5], [0.1, 0.8, 0.1]])
        h = t.linear(x, w, b)
        h = t.layer_norm(h, g, be)
        q = t.relu(t.add_const(h, 0.05))
        a = t.attention(q, h, t.sigmoid(h), 2)
        m = t.mul(a, t.add_const(t.scale(q, 0.5), 0.1))
        c = t.concat([m, t.transpose(t.matmul(t.transpose(m), v))], axis=1)
        c = t.add(c, t.scale(c, -0.25))
        s = t.slice_cols(c, 2, 9)
        gth = t.gather_rows(s, [0, 2, 1, 2])
        ce = t.cross_entropy(t.slice_cols(gth, 0, 3), target)
        bc = t.bce(t.sigmoid(t.slice_cols(gth, 3, 7)), np.full((4, 4), 0.35))
        sm = t.softmax(s)
        return t.add(t.add(ce, bc),
                     t.add(t.mean(sm), t.scale(t.sum(t.mul(s, s)), 0.01)))

    def test_criterion_04a_operator_chain(self):
        rng = np.random.default_rng(42)
        arrays = [rng.normal(size=sh) * 0.7
                  for sh in [(3, 4), (4, 6), (1, 6), (1, 6), (1, 6), (3, 3)]]

        def value(parts):
            t = Tape()
            return self.everything(t, *[t.var(p) for p in parts]).value[0, 0]

        t = Tape()
        leaves = [t.var(a) for a in arrays]
        t.backward(self.everything(t, *leaves))
        worst = 0.0
        for ai, (arr, leaf) in enumerate(zip(arrays, leaves)):
            num = np.zeros_like(arr)
            for idx in np.ndindex(*arr.shape):
                plus = [a.copy() for a in arrays]
                plus[ai][idx] += self.H
                minus = [a.copy() for a in arrays]
                minus[ai][idx] -= self.H
                num[idx] = (value(plus) - value(minus)) / (2.0 * self.H)
            scale = max(1.0, np.abs(num).max(), np.abs(leaf.grad).max())
            worst = max(worst, float(np.abs(num - leaf.grad).max() / scale))
        ok = worst < self.TOL
        assert verdict("4a", ok,
                       "all-operator chain max rel err %.2e (want < 1e-4)"
                       % worst)

    def test_criterion_04b_full_planner_loss(self):
        from trajsel.generator import generate_scenario
        from trajsel.scenario import GenConfig

        spec = VocabSpec(n_curvature=4, n_speed=3, n_accel=2)
        vocab = build_vocabulary(spec)
        cfg = PlannerConfig(hidden_dim=16, coarse_layers=1, refine_layers=1,
                            attn_heads=2, ff_dim=32, top_k=8, batch_size=2,
                            epochs=1, lr=2e-3, ema_mode="scratch")
        s = generate_scenario(0, GenConfig(vocab=spec))
        labels = label_vocabulary(s, vocab)
        d_exp = l2_to_entries(vocab.positions, s.expert.xy)
        targets = imitation_targets(d_exp, cfg.imi_temperature)
        store = init_params(cfg, vocab, seed=1)

        def loss_of(st):
            tape = Tape()
            bound = st.bind(tape)
            fwd = forward(tape, bound, cfg, vocab, s)
            total = loss_coarse(tape, fwd, labels, targets)
            extra = loss_refine(tape, fwd, labels, d_exp, cfg.imi_temperature)
            if extra is not None:
                total = tape.add(total, extra)
            return total, tape, bound

        total, tape, bound = loss_of(store)
        tape.backward(total)
        store.collect(bound)
        rng = np.random.default_rng(3)
        names = store.names()
        worst = 0.0
        for _ in range(12):
            name = names[int(rng.integers(len(names)))]
            arr = store[name]
            i = int(rng.integers(arr.shape[0]))
            j = int(rng.integers(arr.shape[1]))
            ana = store.grad(name)[i, j]
            keep = arr[i, j]
            arr[i, j] = keep + self.H
            up, _, _ = loss_of(store)
            arr[i, j] = keep - self.H
            dn, _, _ = loss_of(store)
            arr[i, j] = keep
            num = (up.value[0, 0] - dn.value[0, 0]) / (2.0 * self.H)
            worst = max(worst, abs(num - ana) / max(1.0, abs(num), abs(ana)))
        ok = worst < self.TOL
        assert verdict("4b", ok,
                       "full planner loss, 12 sampled parameters, "
                       "max rel err %.2e (want < 1e-4)" % worst)


def test_criterion_05_coarse_to_fine_beats_single_stage(arms_summary):
    deltas = [arms_summary["c2f_s%d" % s]["epdms"]
              - arms_summary["single_s%d" % s]["epdms"] for s in range(4)]
    wins = sum(d > 0.0 for d in deltas)
    ok = wins >= 3
    assert verdict(
        "5", ok,
        "paired EPDMS deltas (c2f - single) per seed: %s; positive on %d/4 "
        "(want >= 3)" % (" ".join("%+.2f" % d for d in deltas), wins))


def test_criterion_06_augmentation_helps_turns_most(arms_summary):
    mean_delta = {}
    for bucket in ("left", "forward", "right"):
        ds = []
        for s in range(4):
            on = arms_summary["c2f_s%d" % s]["splits"][bucket]
            off = arms_summary["noaug_s%d" % s]["splits"][bucket]
            assert on is not None and off is not None, (
                "empty %s bucket in the test split" % bucket)
            ds.append(on - off)
        mean_delta[bucket] = float(np.mean(ds))
    ok = (mean_delta["left"] >= mean_delta["forward"] - 0.5
          and mean_delta["right"] >= mean_delta["forward"] - 0.5)
    assert verdict(
        "6", ok,
        "mean aug-on minus aug-off EPDMS: left %+.2f forward %+.2f "
        "right %+.2f (want left/right >= forward - 0.5)"
        % (mean_delta["left"], mean_delta["forward"], mean_delta["right"]))


def test_criterion_07_rotation_flattens_headings(train_set, desk_vocab,
                                                 desk_app):
    scenarios, labels = train_set
    base_n = 240
    base = scenarios[:base_n]
    orig_labels = labels[:base_n]
    rng = np.random.default_rng([0, 202])
    rotated = []
    for s in base:
        theta = float(rng.uniform(-math.pi / 6.0, math.pi / 6.0))
        rotated.append(label_vocabulary(rotate_scenario(s, theta), desk_vocab,
                                        desk_app.evaluator))
    orig = harness.heading_histogram(orig_labels, desk_vocab, bins=24)
    aug = harness.heading_histogram(list(orig_labels) + rotated, desk_vocab, bins=24)
    kl_o = harness.kl_to_uniform(orig["counts"])
    kl_a = harness.kl_to_uniform(aug["counts"])
    ok = kl_a < kl_o
    assert verdict(
        "7", ok,
        "KL-to-uniform of final headings on %d scenarios: original %.4f, "
        "augmented %.4f (want strictly lower)" % (base_n, kl_o, kl_a))


class TestCriterion08Units:
    @staticmethod
    def _label_set(y):
        from trajsel.evaluator import LabelSet

        n = len(y)
        mat = np.tile(np.asarray(y, dtype=np.float64)[:, None], (1, 10))
        return LabelSet(subscores=mat, progress=np.zeros(n),
                        pdms=np.zeros(n), epdms=np.zeros(n),
                        l2=np.zeros(n), nd=np.ones(n))

    def test_criterion_08a_soft_label_clip(self):
        from trajsel.planner import HEAD_METRICS

        y = [0.0, 1.0, 0.5, 0.3]
        teacher = {m: np.array([1.0, 0.0, 0.58, 0.9]) for m in HEAD_METRICS}
        out = make_soft_labels(teacher, self._label_set(y), delta=0.15)
        first = out[HEAD_METRICS[0]]
        # every (y, teacher) pair on a grid stays within the clip band
        grid = np.linspace(0.0, 1.0, 21)
        yy = np.repeat(grid, 21)
        tt = np.tile(grid, 21)
        full = make_soft_labels({m: tt for m in HEAD_METRICS},
                                self._label_set(yy), delta=0.15)
        ok = (first[0] == 0.15 and first[1] == 0.85
              and first[2] == 0.58 and abs(first[3] - 0.45) < 1e-15
              and all(np.all(np.abs(full[m] - yy) <= 0.15 + 1e-15)
                      for m in HEAD_METRICS))
        assert verdict("8a", ok,
                       "soft labels: 0->%.2f 1->%.2f, |soft-y| <= 0.15 on a "
                       "21x21 grid" % (first[0], first[1]))

    def test_criterion_08b_ema_endpoints(self):
        rng = np.random.default_rng(8)
        student, teacher = ParamStore(), ParamStore()
        for name in ("a", "b"):
            student.add(name, rng.normal(size=(3, 2)))
            teacher.add(name, rng.normal(size=(3, 2)))
        frozen = teacher.copy()
        ema_update(teacher, student, 1.0)
        frozen_ok = all(np.array_equal(teacher[n], frozen[n]) for n in ("a", "b"))
        ema_update(teacher, student, 0.0)
        copied_ok = all(np.array_equal(teacher[n], student[n]) for n in ("a", "b"))
        ok = frozen_ok and copied_ok
        assert verdict("8b", ok, "EMA m=1 freezes the teacher, m=0 copies "
                                 "the student, both exactly")

    def test_criterion_08c_schedule_waypoints(self):
        pre = partial(ema_momentum, "pretrained")
        scr = partial(ema_momentum, "scratch")
        ok = (pre(0.0) == 0.992
              and abs(pre(1.5) - 0.994) < 1e-15
              and abs(pre(3.0) - 0.996) < 1e-15
              and pre(3.0 + 1e-9) == 0.998
              and scr(0.0) == 0.0 and scr(2.999) == 0.0
              and scr(3.0) == 0.992
              and abs(scr(6.0) - 0.996) < 1e-15
              and scr(6.0 + 1e-9) == 0.998)
        assert verdict("8c", ok, "EMA waypoints 0.992 -> 0.996 -> 0.998; "
                                 "scratch holds m=0 for the first 3 epochs")


def test_criterion_09_bit_identical_pipeline(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(config_text(desk_config()), encoding="utf-8")

    def run(out: Path) -> dict[str, str]:
        base = ["--config", str(ini), "--out", str(out), "--seed", "11"]
        data = out / "data.jsonl"
        assert cli(base + ["gen", "--count", "6", "--name", "data.jsonl"]) == 0
        assert cli(base + ["labels", "--dataset", str(data)]) == 0
        assert cli(base + ["train", "--dataset", str(data), "--split", "train",
                           "--name", "model.ckpt"]) == 0
        assert cli(base + ["eval", "--dataset", str(data), "--split", "train",
                           "--checkpoint", str(out / "model.ckpt")]) == 0
        digests = {}
        for name in ("data.jsonl", "data.jsonl.labels.npz", "model.ckpt",
                     "eval.csv"):
            digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
        return digests

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")
    same = [n for n in a if a[n] == b[n]]
    ok = a == b
    assert verdict(
        "9", ok,
        "two gen/labels/train/eval runs, %d/%d artifacts bit-identical "
        "(dataset, labels, checkpoint, report)" % (len(same), len(a)))


def test_criterion_10_trained_beats_random(c2f_model, test_set, c2f_entry):
    scenarios, labels = test_set
    rng = np.random.default_rng([11, 5])
    picks = []
    for lab in labels:
        idx = rng.integers(0, len(lab), size=16)
        picks.append(lab.gt(2)[idx].mean())
    baseline = 100.0 * float(np.mean(picks))
    rep = harness.evaluate(c2f_model, scenarios, labels, use_teacher=False)
    cached = c2f_entry["epdms"]
    gap = rep.aggregate_mean - baseline
    ok = gap >= 20.0 and abs(rep.aggregate_mean - cached) < 1e-6
    assert verdict(
        "10", ok,
        "trained %.2f vs random-selection %.2f EPDMS, gap %.2f "
        "(want >= 20); matches the cached arm summary" % (
            rep.aggregate_mean, baseline, gap))
