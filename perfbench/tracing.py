"""Spans and counters recorded around calls into trajsel's public functions.

A Tracer swaps module and class attributes of trajsel for wrappers that
record one span per call (name, start, end, parent span, request id) and
a few counters (tokens, entries, bytes, tape operations, matmul flops).
Nothing inside the package is edited: every boundary is a public name
that the package itself looks up at call time. Spans stay in memory and
are written out when the run ends; per-layer metrics are computed from
them afterwards.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

from trajsel import diffcore, evaluator, generator, planner, scenario, vocab

# Tape operators that each record exactly one node; `sub` and `attention`
# are composites built from these and are not counted on their own.
TAPE_PRIMITIVES = (
    "var", "matmul", "add", "mul", "scale", "add_const", "relu", "sigmoid",
    "softmax", "layer_norm", "transpose", "concat", "slice_cols",
    "gather_rows", "mean", "sum", "bce", "cross_entropy",
)

# Per-layer metrics: name -> (unit, better). The README maps each one to
# the end-to-end metric and workload it should move.
PER_LAYER = {
    "scenario.observe_ms": ("ms", "lower"),
    "scenario.tokens_per_scene": ("count", "lower"),
    "scenario.rotate_ms": ("ms", "lower"),
    "scenario.dataset_write_ms_per_scene": ("ms", "lower"),
    "scenario.dataset_read_ms_per_scene": ("ms", "lower"),
    "scenario.dataset_bytes_per_scene": ("B", "lower"),
    "generator.scene_ms": ("ms", "lower"),
    "generator.attempts_per_scene": ("count", "lower"),
    "evaluator.label_ms": ("ms", "lower"),
    "evaluator.expert_ms": ("ms", "lower"),
    "evaluator.entries_per_s": ("1/s", "higher"),
    "evaluator.label_calls_per_scene": ("count", "lower"),
    "evaluator.labels_write_ms_per_scene": ("ms", "lower"),
    "evaluator.labels_read_ms_per_scene": ("ms", "lower"),
    "evaluator.labels_bytes_per_scene": ("B", "lower"),
    "vocab.build_ms": ("ms", "lower"),
    "vocab.l2_ms": ("ms", "lower"),
    "planner.forward_ms": ("ms", "lower"),
    "planner.encode_ms": ("ms", "lower"),
    "planner.coarse_ms": ("ms", "lower"),
    "planner.topk_ms": ("ms", "lower"),
    "planner.refine_ms": ("ms", "lower"),
    "planner.teacher_infer_ms": ("ms", "lower"),
    "planner.loss_ms": ("ms", "lower"),
    "planner.train_step_ms": ("ms", "lower"),
    "planner.ckpt_write_ms": ("ms", "lower"),
    "planner.ckpt_read_ms": ("ms", "lower"),
    "planner.ckpt_bytes": ("B", "lower"),
    "diffcore.tape_ops_per_forward": ("count", "lower"),
    "diffcore.matmul_gflop_per_forward": ("GFLOP", "lower"),
    "diffcore.matmul_gflops": ("GFLOP/s", "higher"),
    "diffcore.bind_ms": ("ms", "lower"),
    "diffcore.bind_bytes": ("B", "lower"),
    "diffcore.backward_ms": ("ms", "lower"),
    "diffcore.adam_ms": ("ms", "lower"),
    "diffcore.ema_ms": ("ms", "lower"),
    "harness.combine_ms": ("ms", "lower"),
    "trace.p50_overhead_ms": ("ms", "lower"),
    "trace.p50_overhead_pct": ("%", "lower"),
}


class Tracer:
    """In-memory span recorder that patches trajsel boundaries while active."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, request id].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ---- recording ----

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add_span(self, name: str, start: float, end: float, adopt_from: int) -> None:
        """Record a span after the fact and re-parent the spans it covers.

        Used for training steps, which the package does not expose as a
        call: the step's boundaries come from train()'s progress callback.
        Spans recorded since index `adopt_from` whose parent is the
        current open span become children of the new span.
        """
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, start, end, parent, self.request])
        for span in self.spans[adopt_from:idx]:
            if span[3] == parent:
                span[3] = idx

    def _wrap(self, fn, name, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_span(self, owner, attr, name, after=None) -> None:
        orig = getattr(owner, attr)
        self._patch(owner, attr, self._wrap(orig, name, after))

    # ---- the boundaries ----

    def install(self) -> "Tracer":
        c = self.counts

        def tokens(args, kwargs, result):
            c["tokens"] += len(result)

        def entries(args, kwargs, result):
            c["entries"] += len(result)

        def dataset_written(args, kwargs, result):
            c["dataset_write_records"] += len(args[1])
            c["dataset_bytes"] += os.path.getsize(args[0])

        def dataset_read(args, kwargs, result):
            c["dataset_read_records"] += len(result.records)

        def labels_written(args, kwargs, result):
            c["labels_write_sets"] += len(args[1])
            c["labels_bytes"] += os.path.getsize(args[0])

        def labels_read(args, kwargs, result):
            c["labels_read_sets"] += len(result)

        def ckpt_written(args, kwargs, result):
            c["ckpt_bytes"] += os.path.getsize(args[0])

        def bound(args, kwargs, result):
            c["bind_bytes"] += sum(v.value.nbytes for v in result.values())

        self.patch_span(scenario, "save_dataset", "scenario.dataset_write", dataset_written)
        self.patch_span(scenario, "load_dataset", "scenario.dataset_read", dataset_read)
        self.patch_span(planner, "observe", "scenario.observe", tokens)
        self.patch_span(planner, "rotate_scenario", "scenario.rotate")
        self.patch_span(generator, "generate_scenario", "generator.scene")
        self.patch_span(evaluator, "label_vocabulary", "evaluator.label", entries)
        self.patch_span(evaluator, "expert_trajectory", "evaluator.expert")
        self.patch_span(evaluator, "save_labels", "evaluator.labels_write", labels_written)
        self.patch_span(evaluator, "load_labels", "evaluator.labels_read", labels_read)
        self.patch_span(vocab, "build_vocabulary", "vocab.build")
        self.patch_span(planner, "l2_to_entries", "vocab.l2")
        self.patch_span(planner, "train", "planner.train")
        self.patch_span(planner, "infer", "planner.infer")
        self.patch_span(planner, "forward", "planner.forward")
        span_forward = planner.forward

        def forward(*args, **kwargs):
            ops, flop = c["tape_ops"], c["matmul_flop"]
            try:
                return span_forward(*args, **kwargs)
            finally:
                c["forward_tape_ops"] += c["tape_ops"] - ops
                c["forward_matmul_flop"] += c["matmul_flop"] - flop

        self._patch(planner, "forward", forward)
        self.patch_span(planner, "encode_observation", "planner.encode")
        self.patch_span(planner, "encode_trajectories", "planner.encode")
        self.patch_span(planner, "coarse_stage", "planner.coarse")
        self.patch_span(planner, "topk_filter", "planner.topk")
        self.patch_span(planner, "refine_stage", "planner.refine")
        for loss in ("loss_coarse", "loss_refine", "loss_soft"):
            self.patch_span(planner, loss, "planner.loss")
        self.patch_span(planner, "save_checkpoint", "planner.ckpt_write", ckpt_written)
        self.patch_span(planner, "load_checkpoint", "planner.ckpt_read")
        self.patch_span(planner, "combine_score", "harness.combine")
        self.patch_span(planner, "adam_step", "diffcore.adam")
        self.patch_span(planner, "ema_update", "diffcore.ema")
        self.patch_span(diffcore.ParamStore, "bind", "diffcore.bind", bound)
        self.patch_span(diffcore.Tape, "backward", "diffcore.backward")
        self._install_tape_counters()
        return self

    def _install_tape_counters(self) -> None:
        """Count recorded tape nodes and time matmuls without making spans."""
        c = self.counts
        for op in TAPE_PRIMITIVES:
            if op == "matmul":
                continue
            orig = getattr(diffcore.Tape, op)

            def counted(*args, _orig=orig, **kwargs):
                c["tape_ops"] += 1
                return _orig(*args, **kwargs)

            self._patch(diffcore.Tape, op, counted)
        orig_matmul = diffcore.Tape.matmul

        def matmul(tape, a, b):
            t0 = time.perf_counter()
            out = orig_matmul(tape, a, b)
            c["matmul_s"] += time.perf_counter() - t0
            m, k = a.value.shape
            c["matmul_flop"] += 2.0 * m * k * b.value.shape[1]
            c["tape_ops"] += 1
            return out

        self._patch(diffcore.Tape, "matmul", matmul)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---- analysis ----

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds.

        Self time is a span's duration minus the time its children cover;
        calls run on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        return out

    def _under(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def per_layer(self, scenes: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters.

        `scenes` counts the scenes the traced phase served, trained on or
        built; it is the denominator of the per-scene and per-sample
        figures. A layer the workload never calls reads 0.
        """
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        teacher = [0.0, 0]
        expert_in_scene = 0
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            totals[name] += t1 - t0
            calls[name] += 1
            if name == "planner.infer" and self._under(i, "planner.train"):
                teacher[0] += t1 - t0
                teacher[1] += 1
            if name == "evaluator.expert" and self._under(i, "generator.scene"):
                expert_in_scene += 1
        c = self.counts

        def per(num: float, den: float) -> float:
            return num / den if den else 0.0

        def ms_per_call(name: str) -> float:
            return 1e3 * per(totals[name], calls[name])

        forwards = calls["planner.forward"]
        return {
            "scenario.observe_ms": ms_per_call("scenario.observe"),
            "scenario.tokens_per_scene": per(c["tokens"], calls["scenario.observe"]),
            "scenario.rotate_ms": ms_per_call("scenario.rotate"),
            "scenario.dataset_write_ms_per_scene": 1e3 * per(
                totals["scenario.dataset_write"], c["dataset_write_records"]),
            "scenario.dataset_read_ms_per_scene": 1e3 * per(
                totals["scenario.dataset_read"], c["dataset_read_records"]),
            "scenario.dataset_bytes_per_scene": per(
                c["dataset_bytes"], c["dataset_write_records"]),
            "generator.scene_ms": ms_per_call("generator.scene"),
            "generator.attempts_per_scene": per(expert_in_scene, calls["generator.scene"]),
            "evaluator.label_ms": ms_per_call("evaluator.label"),
            "evaluator.expert_ms": ms_per_call("evaluator.expert"),
            "evaluator.entries_per_s": per(c["entries"], totals["evaluator.label"]),
            "evaluator.label_calls_per_scene": per(calls["evaluator.label"], scenes),
            "evaluator.labels_write_ms_per_scene": 1e3 * per(
                totals["evaluator.labels_write"], c["labels_write_sets"]),
            "evaluator.labels_read_ms_per_scene": 1e3 * per(
                totals["evaluator.labels_read"], c["labels_read_sets"]),
            "evaluator.labels_bytes_per_scene": per(c["labels_bytes"], c["labels_write_sets"]),
            "vocab.build_ms": ms_per_call("vocab.build"),
            "vocab.l2_ms": ms_per_call("vocab.l2"),
            "planner.forward_ms": ms_per_call("planner.forward"),
            "planner.encode_ms": 1e3 * per(totals["planner.encode"], forwards),
            "planner.coarse_ms": ms_per_call("planner.coarse"),
            "planner.topk_ms": ms_per_call("planner.topk"),
            "planner.refine_ms": ms_per_call("planner.refine"),
            "planner.teacher_infer_ms": 1e3 * per(teacher[0], teacher[1]),
            "planner.loss_ms": 1e3 * per(totals["planner.loss"], scenes),
            "planner.train_step_ms": ms_per_call("planner.train_step"),
            "planner.ckpt_write_ms": ms_per_call("planner.ckpt_write"),
            "planner.ckpt_read_ms": ms_per_call("planner.ckpt_read"),
            "planner.ckpt_bytes": per(c["ckpt_bytes"], calls["planner.ckpt_write"]),
            "diffcore.tape_ops_per_forward": per(c["forward_tape_ops"], forwards),
            "diffcore.matmul_gflop_per_forward": 1e-9 * per(c["forward_matmul_flop"], forwards),
            "diffcore.matmul_gflops": 1e-9 * per(c["matmul_flop"], c["matmul_s"]),
            "diffcore.bind_ms": ms_per_call("diffcore.bind"),
            "diffcore.bind_bytes": per(c["bind_bytes"], calls["diffcore.bind"]),
            "diffcore.backward_ms": ms_per_call("diffcore.backward"),
            "diffcore.adam_ms": ms_per_call("diffcore.adam"),
            "diffcore.ema_ms": ms_per_call("diffcore.ema"),
            "harness.combine_ms": 1e3 * per(totals["harness.combine"], forwards),
        }

    def write(self, path: str, meta: dict) -> None:
        """Spans as JSON lines after one header line; a self-time summary beside."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t_base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "counts": dict(self.counts)}) + "\n")
            for i, (name, t0, t1, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_us": round(1e6 * (t0 - t_base), 3),
                    "end_us": round(1e6 * (t1 - t_base), 3), "parent": parent,
                    "request": req,
                }) + "\n")
        with open(path[: -len(".jsonl")] + ".selftime.json", "w", encoding="utf-8") as fh:
            json.dump(self.self_times(), fh, indent=1, sort_keys=True)
