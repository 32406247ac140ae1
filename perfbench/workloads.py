"""The four workloads: inputs, set-up, the measured loop and the checks.

Every workload runs in one process with one closed-loop caller. A run
is: make the inputs from the seed (not timed), set the system up several
times (timed), repeat whole rounds of the workload's operation until
`seconds` of wall time have passed, timing each operation, set up several
times more (timed; `setup_s` is the median of both batches). After each
round its outputs are checked against an independent recomputation (see
reference.py) and dropped, so memory does not grow with the run; the
checks are neither timed nor counted against `seconds`. Every time is
scaled to reference host speed by probes made between the operations
(see hostspeed.py).

Operations and rounds:
- serve-desk / serve-paper: one `planner.infer` call per request. The
  requests are held-out scenes: BASE_SCENES fresh scenes per run, each
  sent once as generated and then again under rotations drawn from the
  planner's own augmentation range, each angle drawn once, so no two
  requests carry the same scene. A round rotates a batch of scenes (not
  timed) and sends it back to back.
- train-desk: one `planner.train` call, one epoch over the training set;
  its optimizer steps are the timed operations.
- dataset-desk: one round generates and labels DATASET_ROUND scenes,
  then writes and reads back the dataset and its label sidecar. Each
  scene is one operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from trajsel import config, evaluator, generator, planner, scenario, vocab

import reference
import weights
from hostspeed import HostSpeed
from tracing import Tracer

# Set-up is timed in two batches, one before and one after the measured
# loop, each of at least SETUP_REPEATS set-ups and SETUP_SECONDS (at most
# SETUP_MAX). A single batch sits inside one speed state of the host, so
# its median would read either the fast or the slow state.
SETUP_REPEATS = 3
SETUP_SECONDS = 0.5
SETUP_MAX = 100
BASE_SCENES = {"desk": 32, "paper": 2}  # fresh held-out scenes per serve run
SERVE_ROUND = {"desk": 32, "paper": 1}  # requests prepared per round
TRAIN_SCENES = 16  # training set of train-desk; batch 4 -> 4 steps per epoch
DATASET_ROUND = 8  # scenes per dataset file
# Requests between numpy forward checks; a paper-profile check costs as
# much as the request itself.
REFERENCE_EVERY = {"desk": 16, "paper": 10}
EPDMS_EVERY = 4  # serve requests between ground-truth scorings of the selection
RULE_ENTRIES = 6  # random entries per checked scene for the scalar rule check
RULE_EVERY = 8  # dataset scenes between scalar rule checks


def scene_seed(seed: int, i: int) -> int:
    """Scene seed of the i-th input of a run; disjoint from the weights' seeds."""
    return 10**7 + (seed % 10**6) * 10**5 + i


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Measured:
    """Timed operations of one measured phase, and their checks.

    An operation is a list of (start, end, weight) pieces of wall time
    and the scenes it served; its time is the weighted sum of its pieces,
    raw or scaled to reference host speed by the probes in `speed`.
    """

    speed: HostSpeed = field(default_factory=HostSpeed)
    ops: list = field(default_factory=list)  # (pieces, scenes) per completed operation
    failed: int = 0  # operations that raised
    errors: list = field(default_factory=list)  # why operations failed
    check_errors: list = field(default_factory=list)  # outputs found wrong
    stats: dict = field(default_factory=dict)  # what the checks tally

    def add(self, t0: float, t1: float, scenes: int, *extra) -> None:
        self.ops.append(([(t0, t1, 1.0), *extra], scenes))

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.failed

    @property
    def scenes(self) -> int:
        return sum(n for _, n in self.ops)

    def raw_s(self) -> list[float]:
        return [sum(w * (b - a) for a, b, w in pieces) for pieces, _ in self.ops]

    def normalised_s(self) -> list[float]:
        return [sum(w * self.speed.normalise(a, b) for a, b, w in pieces)
                for pieces, _ in self.ops]

    def tally(self, key: str, *values) -> None:
        self.stats.setdefault(key, []).extend(values)

    def fail(self, what: str, exc: Exception) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


class Deadline:
    """Wall-time budget of a measured phase; checks made inside it do not count."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def __bool__(self) -> bool:
        return time.perf_counter() < self.end

    @contextlib.contextmanager
    def paused(self, tracer):
        t0 = time.perf_counter()
        with _untraced(tracer):
            yield
        self.end += time.perf_counter() - t0


@contextlib.contextmanager
def _untraced(tracer):
    """Keeps the load generator's own calls out of the trace."""
    if tracer is None:
        yield
        return
    tracer.uninstall()
    try:
        yield
    finally:
        tracer.install()


class Serve:
    """Closed-loop `planner.infer` on distinct held-out scenes."""

    def __init__(self, profile: str, ctx):
        self.ctx = ctx
        self.app = config.desk_config() if profile == "desk" else config.paper_config()
        self.profile = profile
        self.ckpt = None
        if profile == "desk":
            self.ckpt = weights.desk_checkpoint(ctx.cache_dir, ctx.src_dir)
        self.base = [generator.generate_scenario(scene_seed(ctx.seed, j), self.app.generator)
                     for j in range(BASE_SCENES[profile])]
        # Warms the first call up; its angle is never drawn for a request.
        self.warm = scenario.rotate_scenario(self.base[0], 0.5 * self.app.planner.theta)

    def request(self, i: int):
        """The i-th request scene of the run."""
        s = self.base[i % len(self.base)]
        if i < len(self.base):
            return s
        theta = self.app.planner.theta
        rng = np.random.default_rng([self.ctx.seed % 2**32, i])
        return scenario.rotate_scenario(s, float(rng.uniform(-theta, theta)))

    def setup(self):
        voc = vocab.build_vocabulary(self.app.generator.vocab)
        if self.profile == "desk":
            return planner.PlannerModel.load(self.ckpt, voc)
        # Paper weights come from init_params and pass through a checkpoint
        # file, as trained weights would.
        store = planner.init_params(self.app.planner, voc, seed=0)
        path = os.path.join(self.ctx.work_dir, "paper.ckpt")
        planner.PlannerModel(self.app.planner, voc, store, store).save(path)
        model = planner.PlannerModel.load(path, voc)
        os.remove(path)
        return model

    def warm_up(self, model) -> None:
        planner.infer(model, self.warm)

    def measure(self, model, seconds: float, start: int, tracer) -> Measured:
        m = Measured()
        i = start
        deadline = Deadline(seconds)
        while deadline:
            with _untraced(tracer):
                batch = [self.request(j) for j in range(i, i + SERVE_ROUND[self.profile])]
            outputs = []
            for s in batch:
                m.speed.maybe_probe()
                if tracer is not None:
                    tracer.request = i
                t0 = time.perf_counter()
                try:
                    res = planner.infer(model, s)
                except Exception as exc:  # counted against the attempts
                    m.fail(f"scene {s.seed}", exc)
                    i += 1
                    continue
                m.add(t0, time.perf_counter(), 1)
                outputs.append((i, s, res))
                i += 1
            with deadline.paused(tracer):
                self.check(model, outputs, m)
        m.speed.probe()
        return m

    def check(self, model, outputs, m: Measured) -> None:
        """Top-K membership of every selection, the numpy forward on every
        REFERENCE_EVERY-th request, and the selection's EPDMS on every
        EPDMS_EVERY-th."""
        voc = model.vocabulary
        for i, s, res in outputs:
            if res.topk is None or res.selected not in res.topk:
                m.check_errors.append(f"scene {s.seed}: selected entry not among the top-K")
            if i % REFERENCE_EVERY[self.profile] == 0:
                tokens = scenario.observe(s, model.cfg.fov)
                m.check_errors += [f"scene {s.seed}: {e}"
                                   for e in reference.check_inference(model, tokens, res)]
            if i % EPDMS_EVERY == 0:
                sub = evaluator.subscores(s, voc.entry(res.selected), self.app.evaluator)
                m.tally("epdms", evaluator.aggregate(sub, self.app.evaluator, "v2"))

    def info(self, m: Measured) -> dict:
        scores = m.stats.get("epdms", [])
        return {"serve_epdms": 100.0 * float(np.mean(scores)) if scores else None,
                "serve_epdms_scenes": len(scores)}


class Train:
    """One epoch of `planner.train` on the desk profile, labels precomputed."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.app = config.desk_config()
        self.cfg = replace(self.app.planner, epochs=1)
        voc = vocab.build_vocabulary(self.app.generator.vocab)
        scenes = [generator.generate_scenario(scene_seed(ctx.seed, i), self.app.generator)
                  for i in range(TRAIN_SCENES)]
        labels = [evaluator.label_vocabulary(s, voc, self.app.evaluator) for s in scenes]
        self.dataset = os.path.join(ctx.work_dir, "train.jsonl")
        self.sidecar = self.dataset + ".labels.npz"
        sha = scenario.save_dataset(
            self.dataset, [scenario.DatasetRecord("train", s) for s in scenes],
            self.app.generator)
        evaluator.save_labels(self.sidecar, labels, dataset_sha=sha, vocabulary=voc,
                              cfg=self.app.evaluator)

    def setup(self):
        voc = vocab.build_vocabulary(self.app.generator.vocab)
        ds = scenario.load_dataset(self.dataset)
        labels = evaluator.load_labels(self.sidecar, dataset_sha=ds.sha256, vocabulary=voc,
                                       cfg=self.app.evaluator)
        return voc, ds.split("train"), labels

    def warm_up(self, system) -> None:
        pass

    def measure(self, system, seconds: float, start: int, tracer) -> Measured:
        voc, scenes, labels = system
        m = Measured()
        sizes = self.batch_sizes(scenes)
        deadline = Deadline(seconds)
        while deadline:
            m.speed.maybe_probe()
            done = []  # (start, end) per completed step
            adopt = [len(tracer.spans) if tracer is not None else 0]
            began = [time.perf_counter()]

            def step_done(rec):
                now = time.perf_counter()
                done.append((began[0], now))
                if tracer is not None:
                    tracer.add_span("planner.train_step", began[0], now, adopt[0])
                    adopt[0] = len(tracer.spans)
                    tracer.request += 1
                m.speed.maybe_probe()
                began[0] = time.perf_counter()

            if tracer is not None:
                tracer.request = start + m.attempted
            began[0] = time.perf_counter()
            try:
                result = planner.train(scenes, voc, self.cfg, seed=self.ctx.seed % 2**32,
                                       labels=labels, eval_cfg=self.app.evaluator,
                                       progress=step_done)
            except Exception as exc:  # the steps not completed count as failed
                result = None
                for _ in range(len(sizes) - len(done)):
                    m.fail("train", exc)
            for (t0, t1), n in zip(done, sizes):
                m.add(t0, t1, n)
            if result is not None:
                with deadline.paused(tracer):
                    self.check(result, len(sizes), m)
        m.speed.probe()
        return m

    def batch_sizes(self, scenes) -> list[int]:
        """Samples per optimizer step of one `train` call."""
        batch = max(1, min(self.cfg.batch_size, len(scenes)))
        per_epoch = [min(batch, len(scenes) - k) for k in range(0, len(scenes), batch)]
        return per_epoch * self.cfg.epochs

    def check(self, result, want_steps: int, m: Measured) -> None:
        """Every step ran and logged finite losses; teacher == student."""
        if result.aborted:
            m.check_errors.append("a training step was aborted")
        if result.steps != want_steps or len(result.log) != want_steps:
            m.check_errors.append(f"{result.steps} steps, expected {want_steps}")
        for rec in result.log:
            for key in ("L_ori", "L_aug", "L_soft"):
                if not math.isfinite(rec[key]):
                    m.check_errors.append(f"step {rec['step']}: {key} = {rec[key]}")
            m.tally("L_ori", rec["L_ori"])
        # Scratch EMA keeps momentum 0 before epoch 3: teacher == student.
        st, te = result.model.student, result.model.teacher
        if st.names() != te.names() or any(
                st[n].tobytes() != te[n].tobytes() for n in st.names()):
            m.check_errors.append("teacher differs from student under momentum 0")

    def info(self, m: Measured) -> dict:
        losses = m.stats.get("L_ori", [])
        return {"mean_L_ori": float(np.mean(losses)) if losses else None}


class Dataset:
    """Desk-profile dataset building: generate, label, write, read back."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.app = config.desk_config()

    def setup(self):
        return vocab.build_vocabulary(self.app.generator.vocab)

    def warm_up(self, system) -> None:
        pass

    def measure(self, voc, seconds: float, start: int, tracer) -> Measured:
        m = Measured()
        gen = self.app.generator
        rng = np.random.default_rng([self.ctx.seed % 2**32, 5, start])
        i = start
        deadline = Deadline(seconds)
        while deadline:
            first = i
            records, label_sets, spans = [], [], []
            for j in range(first, first + DATASET_ROUND):
                m.speed.maybe_probe()
                if tracer is not None:
                    tracer.request = j
                t0 = time.perf_counter()
                try:
                    s = generator.generate_scenario(scene_seed(self.ctx.seed, j), gen)
                    lab = evaluator.label_vocabulary(s, voc, self.app.evaluator)
                except Exception as exc:  # counted against the attempts
                    m.fail(f"scene seed {scene_seed(self.ctx.seed, j)}", exc)
                    continue
                spans.append((t0, time.perf_counter()))
                label_sets.append(lab)
                records.append(scenario.DatasetRecord("train", s))
            i += DATASET_ROUND
            if not records:
                continue
            m.speed.maybe_probe()
            t_io = time.perf_counter()
            path = os.path.join(self.ctx.work_dir, f"ds{first}.jsonl")
            sha = scenario.save_dataset(path, records, gen,
                                        seed_range=(first, first + DATASET_ROUND))
            ds = scenario.load_dataset(path)
            lsha = evaluator.save_labels(path + ".labels.npz", label_sets, dataset_sha=sha,
                                         vocabulary=voc, cfg=self.app.evaluator)
            loaded = evaluator.load_labels(path + ".labels.npz", dataset_sha=ds.sha256,
                                           vocabulary=voc, cfg=self.app.evaluator)
            io = (t_io, time.perf_counter(), 1.0 / len(records))
            for t0, t1 in spans:
                m.add(t0, t1, 1, io)
            with deadline.paused(tracer):
                self.check(voc, (path, sha, lsha, records, label_sets, ds, loaded), rng, m)
        m.speed.probe()
        return m

    def check(self, voc, output, rng, m: Measured) -> None:
        """Round trips by sha256 and content, the expert entry, every row's
        aggregate, and the scalar rule path on every RULE_EVERY-th scene."""
        path, sha, lsha, records, label_sets, ds, loaded = output
        cfg = self.app.evaluator
        m.check_errors += _round_trip_errors(path, sha, lsha, records, label_sets, ds, loaded)
        m.tally("bytes", os.path.getsize(path) + os.path.getsize(path + ".labels.npz"))
        os.remove(path)
        os.remove(path + ".labels.npz")
        for rec, lab in zip(records, label_sets):
            m.tally("scenes", 1)
            s = rec.scenario
            expert = int(np.argmin(lab.l2))
            if lab.l2[expert] != 0.0:
                m.check_errors.append(f"scene {s.seed}: expert is not a vocabulary entry")
            if not lab.epdms[expert] > 0.0:
                m.check_errors.append(f"scene {s.seed}: expert entry scores 0")
            bad = reference.aggregate_mismatches(lab, cfg)
            if bad:
                m.check_errors.append(f"scene {s.seed}: {bad} rows disagree with aggregate()")
            if (len(m.stats["scenes"]) - 1) % RULE_EVERY:
                continue
            picks = {expert, int(np.argmax(lab.epdms))}
            picks.update(int(k) for k in rng.integers(0, len(voc), RULE_ENTRIES))
            m.check_errors += reference.check_rules(s, voc, lab, sorted(picks), cfg)

    def info(self, m: Measured) -> dict:
        n = max(len(m.stats.get("scenes", [])), 1)
        return {"dataset_bytes_per_scene": sum(m.stats.get("bytes", [])) / n}


def _round_trip_errors(path, sha, lsha, records, label_sets, ds, loaded) -> list[str]:
    errors = []
    with open(path, "rb") as fh:
        if hashlib.sha256(fh.read()).hexdigest() != sha or ds.sha256 != sha:
            errors.append(f"{os.path.basename(path)}: dataset sha256 mismatch")
    with open(path + ".labels.npz", "rb") as fh:
        if hashlib.sha256(fh.read()).hexdigest() != lsha:
            errors.append(f"{os.path.basename(path)}: label sidecar sha256 mismatch")
    if len(ds.records) != len(records) or any(
            json.dumps(scenario.scenario_to_dict(a.scenario), sort_keys=True)
            != json.dumps(scenario.scenario_to_dict(b.scenario), sort_keys=True)
            for a, b in zip(ds.records, records)):
        errors.append(f"{os.path.basename(path)}: scenes changed in the round trip")
    for a, b in zip(label_sets, loaded):
        for key in ("subscores", "progress", "pdms", "epdms", "l2", "nd"):
            if getattr(a, key).tobytes() != getattr(b, key).tobytes():
                errors.append(f"{os.path.basename(path)}: labels {key} changed in the round trip")
    if len(loaded) != len(label_sets):
        errors.append(f"{os.path.basename(path)}: label count changed in the round trip")
    return errors


WORKLOADS = {
    "serve-desk": lambda ctx: Serve("desk", ctx),
    "serve-paper": lambda ctx: Serve("paper", ctx),
    "train-desk": Train,
    "dataset-desk": Dataset,
}

# End-to-end metrics: name -> (unit, better). Every workload reports all.
# Times are scaled to reference host speed by the probes (hostspeed.py).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "scenes_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def p50_ms(m: Measured) -> float:
    """Median time of one operation, at reference host speed."""
    return 1e3 * statistics.median(m.normalised_s())


def throughput(m: Measured) -> float:
    """Scenes per second of operation time, at reference host speed."""
    return m.scenes / sum(m.normalised_s())


def _ungated_figures(m: Measured) -> dict:
    """Figures that are not gated: the tail, and the raw wall-clock times.

    The tail is the highest of p99/p95/p90 with ten samples beyond it.
    """
    norm, raw = m.normalised_s(), m.raw_s()
    out = {"samples": len(norm), "raw_p50_ms": 1e3 * statistics.median(raw),
           "raw_scenes_per_s": m.scenes / sum(raw), "probes": len(m.speed.marks),
           "probe_share": m.speed.probe_s / (sum(raw) + m.speed.probe_s),
           "median_scale": statistics.median(
               m.speed.scale(p[0][0], p[0][1]) for p, _ in m.ops)}
    for q in (99, 95, 90):
        if len(norm) * (100 - q) / 100.0 >= 10:
            out[f"p{q}_ms"] = 1e3 * float(np.percentile(norm, q))
            break
    return out


def _time_setups(wl, limit: int, speed: HostSpeed):
    """Set the system up repeatedly; returns the times at reference speed
    and the last system."""
    times = []
    raw = 0.0
    for _ in range(limit):
        speed.probe()
        t0 = time.perf_counter()
        system = wl.setup()
        t1 = time.perf_counter()
        speed.probe()
        times.append((t0, t1))
        raw += t1 - t0
        if len(times) >= SETUP_REPEATS and raw >= SETUP_SECONDS:
            break
    return [speed.normalise(t0, t1) for t0, t1 in times], system


def _result(ms: list[Measured], metrics: dict, info: dict) -> dict:
    errors = [e for m in ms for e in m.check_errors]
    return {
        "correct": not errors,
        "attempted": sum(m.attempted for m in ms),
        "failed": sum(m.failed for m in ms),
        "metrics": metrics,
        "errors": errors + [e for m in ms for e in m.errors],
        "info": info,
    }


def run(name: str, ctx, seconds: float, trace: bool) -> dict:
    """One run of a workload; returns the result object and extra figures."""
    wl = WORKLOADS[name](ctx)
    speed = HostSpeed()
    setups, system = _time_setups(wl, 1 if trace else SETUP_MAX, speed)
    wl.warm_up(system)
    if not trace:
        m = wl.measure(system, seconds, 0, None)
        rss = peak_rss_mb()
        setups += _time_setups(wl, SETUP_MAX, speed)[0]
        metrics = {
            "setup_s": statistics.median(setups),
            "p50_ms": p50_ms(m),
            "scenes_per_s": throughput(m),
            "peak_rss_mb": rss,
        }
        info = wl.info(m)
        info.update(_ungated_figures(m))
        return _result([m], metrics, info)

    # Half the run untraced, half traced: the difference is the tracing
    # overhead; the traced half gives the per-layer figures.
    base = wl.measure(system, seconds / 2, 0, None)
    tracer = Tracer()
    with tracer:
        traced_system = wl.setup()
        traced = wl.measure(traced_system, seconds / 2, 10**4, tracer)
    metrics = tracer.per_layer(traced.scenes)
    untraced, traced_p50 = p50_ms(base), p50_ms(traced)
    metrics["trace.p50_overhead_ms"] = traced_p50 - untraced
    metrics["trace.p50_overhead_pct"] = 100.0 * (traced_p50 - untraced) / untraced
    info = wl.info(base)
    info.update({"untraced_p50_ms": untraced, "traced_p50_ms": traced_p50,
                 "untraced_scenes_per_s": throughput(base),
                 "traced_scenes_per_s": throughput(traced),
                 "spans": len(tracer.spans)})
    trace_path = os.path.join(ctx.cache_dir, "traces", f"{name}-seed{ctx.seed}.jsonl")
    tracer.write(trace_path, {"workload": name, "seed": ctx.seed, "seconds": seconds})
    info["trace_file"] = os.path.relpath(trace_path, ctx.root)
    info["self_ms"] = {k: round(1e3 * v["self_s"], 3)
                       for k, v in sorted(tracer.self_times().items())}
    return _result([base, traced], metrics, info)
