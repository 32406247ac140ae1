"""Evaluation campaigns, analyses, and reporting.

`evaluate` is the one campaign that runs the selector: once per scenario,
and each report row keeps the selection's ground truth, the scene's turn
bucket and its best-in-top-K curve. The oracle and turning-split studies
read those rows, so the CLI's `eval` writes the mean, oracle and split
reports from one evaluation. The FOV sweep runs `evaluate` once per
camera rig, and the heading-distribution study needs labels only.
Reports are formatted here as plain tables, CSV and SVG text; the CLI
writes them to files.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from . import evaluator, planner
from .evaluator import DEFAULT_EVAL_CONFIG, LabelSet
from .geom import DegenerateTrajectory, turning_angle
# Unused here: perfbench/reference.py:87-88 reads these two names from harness.
from .planner import SCORE_CLAMP, coefficients_for  # noqa: F401
from .scenario import (
    FOV_1CAM,
    FOV_3CAM,
    FOV_5CAM,
    Scenario,
    observe,
    rotate_scenario,
    sample_rotation,
)
from .vocab import TrajectoryVocabulary


class EmptyDataset(ValueError):
    """An analysis was asked to run over zero scenarios."""


# ---- evaluation campaigns ----


@dataclass
class EvalReport:
    """Mean subscores (percent) plus per-scenario rows for one model run.

    Each row holds the `selected` entry, its ground-truth `subscores` and
    `aggregate`, the scene's `turn_bucket`, and `best_in_top_k`: entry K-1
    is the best ground-truth aggregate among the K entries the model ranks
    highest, refined entries above coarse ones. That curve costs one float
    per vocabulary entry and row: 3 KB per scene on the desk grid, 45 KB on
    the paper grid. `oracle_study` and `split_eval` read these rows.
    """

    version: int
    n_scenarios: int
    subscore_means: dict[str, float]
    aggregate_mean: float
    rows: list[dict] = field(repr=False, default_factory=list)
    config_hash: str = ""

    def to_text(self) -> str:
        names = list(self.subscore_means)
        w = max(len(n) for n in names + ["aggregate"]) + 2
        out = [f"scenarios: {self.n_scenarios}   scoring: v{self.version}"]
        for n in names:
            out.append(f"  {n:<{w}}{self.subscore_means[n]:6.2f}")
        out.append(f"  {'aggregate':<{w}}{self.aggregate_mean:6.2f}")
        if self.config_hash:
            out.append(f"  config {self.config_hash[:12]}")
        return "\n".join(out)

    def to_csv(self) -> str:
        names = list(self.subscore_means)
        mean = [f"{self.subscore_means[n]:.4f}" for n in names] + [f"{self.aggregate_mean:.4f}"]
        rows = [[i] + [f"{row['subscores'][n] * 100.0:.2f}" for n in names]
                + [f"{row['aggregate'] * 100.0:.2f}"] for i, row in enumerate(self.rows)]
        return table_csv(["row"] + names + ["aggregate"], [["mean"] + mean] + rows)


def _report(rows: list[dict], version: int, config_hash: str) -> EvalReport:
    """The report whose means are taken over `rows`, in order."""
    means = {n: 100.0 * float(np.mean([r["subscores"][n] for r in rows]))
             for n in evaluator.METRICS}
    return EvalReport(
        version=version,
        n_scenarios=len(rows),
        subscore_means=means,
        aggregate_mean=100.0 * float(np.mean([r["aggregate"] for r in rows])),
        rows=rows,
        config_hash=config_hash,
    )


def _best_in_top_k(gt: np.ndarray, res: planner.ForwardPass) -> np.ndarray:
    """Best ground truth among the model's K highest-ranked entries, K = 1..N.

    The refined entries come first, in refine order with ties kept in
    top-K order as `forward` breaks them; the rest follow in coarse order,
    ties to the lower index.
    """
    order = np.argsort(-res.coarse_combined, kind="stable")
    if res.topk is not None:
        refined = res.topk[np.argsort(-res.refine_combined, kind="stable")]
        order = np.concatenate([refined, order[~np.isin(order, res.topk)]])
    return np.maximum.accumulate(gt[order])


def evaluate(model, scenarios, labels, use_teacher: bool = True) -> EvalReport:
    """Run the selector once per scenario and score what it selected.

    `labels` holds one LabelSet per scenario, in order. Selections are
    scored on the model's own `score_version`, and the report carries the
    model's `config_hash`.
    """
    if not scenarios:
        raise EmptyDataset("no scenarios to evaluate")
    version = model.cfg.score_version
    rows = []
    for s, lab in zip(scenarios, labels, strict=True):
        res = planner.infer(model, s, use_teacher=use_teacher)
        gt = lab.gt(version)
        sub = lab.subscores[res.selected]
        rows.append(
            {
                "selected": int(res.selected),
                "subscores": {n: float(sub[j])
                              for j, n in enumerate(evaluator.METRICS)},
                "aggregate": float(gt[res.selected]),
                "turn_bucket": turn_bucket(s),
                "best_in_top_k": _best_in_top_k(gt, res),
            }
        )
    return _report(rows, version, model.config_hash)


def oracle_study(report: EvalReport, ks) -> dict[int, float]:
    """Mean best-in-top-K ground-truth aggregate per K, in percent.

    A K beyond the vocabulary counts as the whole vocabulary.
    """
    for k in ks:
        if k < 1:
            raise planner.KOutOfRange(f"K={k} below 1")
    sums = {k: 0.0 for k in ks}
    for row in report.rows:
        curve = row["best_in_top_k"]
        for k in ks:
            sums[k] += float(curve[min(k, len(curve)) - 1])
    return {k: 100.0 * sums[k] / report.n_scenarios for k in ks}


def turn_bucket(s: Scenario) -> str:
    """left / forward / right by the expert's signed turning angle (30 deg)."""
    try:
        ang = turning_angle(s.expert)
    except DegenerateTrajectory:
        return "forward"
    if ang > 30.0:
        return "left"
    if ang < -30.0:
        return "right"
    return "forward"


def split_eval(report: EvalReport) -> dict[str, EvalReport | None]:
    """The report's rows split into left-turn, forward and right-turn reports.

    A bucket without scenarios maps to None.
    """
    out: dict[str, EvalReport | None] = {}
    for name in ("left", "forward", "right"):
        rows = [r for r in report.rows if r["turn_bucket"] == name]
        out[name] = _report(rows, report.version, report.config_hash) if rows else None
    return out


# ---- heading-distribution study ----


def qualifying_entries(labels: LabelSet, version: int = 2) -> np.ndarray:
    """Indices whose ground truth exceeds 0.99 or ranks in the top 3."""
    gt = labels.gt(version)
    order = np.argsort(-gt, kind="stable")
    keep = np.zeros(len(gt), dtype=bool)
    keep[gt > 0.99] = True
    keep[order[:3]] = True
    return np.flatnonzero(keep)


def heading_histogram(label_sets, vocabulary: TrajectoryVocabulary,
                      bins: int, version: int = 2) -> dict:
    """Final-heading histogram of qualifying entries, max bin scaled to 1."""
    if not label_sets:
        raise EmptyDataset("no labeled scenarios")
    finals = vocabulary.headings[:, -1]
    lo, hi = float(finals.min()), float(finals.max())
    span = max(hi - lo, 1e-9)
    edges = lo + span * np.arange(bins + 1) / bins
    counts = np.zeros(bins, dtype=np.int64)
    for lab in label_sets:
        for idx in qualifying_entries(lab, version=version):
            b = min(int((finals[idx] - lo) / span * bins), bins - 1)
            counts[b] += 1
    peak = counts.max()
    freqs = counts / peak if peak > 0 else counts.astype(np.float64)
    return {"edges": edges, "counts": counts, "frequencies": freqs}


def rotation_augmented_labels(scenarios, vocabulary: TrajectoryVocabulary,
                              labels, theta: float, seed: int = 0, copies: int = 1,
                              eval_cfg=DEFAULT_EVAL_CONFIG) -> list:
    """The originals' `labels` plus LabelSets of `copies` rotated variants each.

    Pooling originals with rotated copies is how the augmented heading
    distribution is measured; the rotations draw from uniform(-theta,
    theta), the range training draws from at the planner's `theta`, and
    are labelled under `eval_cfg`.
    """
    rng = np.random.default_rng([seed, 202])
    out = []
    for s, lab in zip(scenarios, labels, strict=True):
        out.append(lab)
        for _ in range(copies):
            s_rot = rotate_scenario(s, sample_rotation(rng, theta))
            out.append(evaluator.label_vocabulary(s_rot, vocabulary, eval_cfg))
    return out


def kl_to_uniform(counts: np.ndarray) -> float:
    """KL(empirical bin distribution || uniform), natural log."""
    c = np.asarray(counts, dtype=np.float64)
    total = c.sum()
    if total <= 0:
        raise EmptyDataset("empty histogram")
    p = c / total
    nz = p > 0
    return float(np.sum(p[nz] * np.log(p[nz] * len(c))))


def fov_sweep(scenarios, model=None, labels=None, use_teacher: bool = True) -> list[dict]:
    """Mean token count (and score, when a model is given) per camera rig.

    A model needs `labels`, one LabelSet per scenario; each rig's score is
    the `evaluate` aggregate of the model with that rig's mask.
    """
    if not scenarios:
        raise EmptyDataset("no scenarios")
    if model is not None and labels is None:
        raise ValueError("scoring a model needs labels")
    rows = []
    for cams, fov in ((1, FOV_1CAM), (3, FOV_3CAM), (5, FOV_5CAM)):
        tokens = float(np.mean([len(observe(s, fov)) for s in scenarios]))
        score = None
        if model is not None:
            masked = replace(model, cfg=replace(model.cfg, fov=fov))
            score = evaluate(masked, scenarios, labels, use_teacher).aggregate_mean
        rows.append({"cameras": cams, "fov_halfangle": fov,
                     "mean_tokens": tokens, "score": score})
    return rows


# ---- report output ----


def table_text(headers, rows) -> str:
    """Plain fixed-width table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def table_csv(headers, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def svg_bars(values, labels=None, title: str = "") -> str:
    """Minimal self-contained 640x320 SVG bar chart."""
    width, height = 640, 320
    vals = [float(v) for v in values]
    n = max(len(vals), 1)
    vmax = max([abs(v) for v in vals] + [1e-9])
    pad, label_h = 28, 18
    plot_w, plot_h = width - 2 * pad, height - 2 * pad - label_h
    bw = plot_w / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{pad - 8}" text-anchor="middle" '
            f'font-size="13">{title}</text>'
        )
    for i, v in enumerate(vals):
        h = plot_h * abs(v) / vmax
        x = pad + i * bw
        y = pad + plot_h - h
        parts.append(
            f'<rect x="{x + 1:.1f}" y="{y:.1f}" width="{max(bw - 2, 1):.1f}" '
            f'height="{h:.1f}" fill="#4878a8"/>'
        )
        if labels is not None:
            parts.append(
                f'<text x="{x + bw / 2:.1f}" y="{height - pad + 4:.1f}" '
                f'text-anchor="middle" font-size="10">{labels[i]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
