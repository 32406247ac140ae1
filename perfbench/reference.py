"""Independent recomputations the workloads check the program against.

- `forward`: the selector's forward pass in plain numpy, straight from the
  ParamStore arrays (no Tape), giving coarse scores, the top-K set and
  refine scores.
- `rule_flags`: the nc, dac and tlc rules of one vocabulary entry through
  the scalar geometry path (footprint polygons, separating axes, point in
  cell, segment crossing), one sample at a time.
- `aggregate_mismatches`: pdms/epdms re-derived row by row from the
  subscores with `evaluator.aggregate`.
"""

from __future__ import annotations

import math

import numpy as np

from trajsel import evaluator, harness, planner
from trajsel.geom import Point2, Pose2, footprint, point_in_region, polygons_intersect
from trajsel.scenario import TOKEN_KINDS

LN_EPS = 1e-5  # Tape.layer_norm default


def _close(a, b, tol: float) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * (1.0 + np.abs(b))))


class _Numpy:
    """The planner's layers over one ParamStore, evaluated eagerly."""

    def __init__(self, store, cfg):
        self.p = store
        self.cfg = cfg

    def mlp(self, prefix, x):
        p = self.p
        h = np.maximum(x @ p[prefix + ".w1"] + p[prefix + ".b1"], 0.0)
        return h @ p[prefix + ".w2"] + p[prefix + ".b2"]

    def ln(self, prefix, x):
        mu = x.mean(axis=1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=1, keepdims=True)
        return xc / np.sqrt(var + LN_EPS) * self.p[prefix + ".lng"] + self.p[prefix + ".lnb"]

    def attention(self, q, k, v):
        heads = self.cfg.attn_heads
        dh = q.shape[1] // heads
        outs = []
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            logits = (q[:, sl] @ k[:, sl].T) / math.sqrt(dh)
            z = np.exp(logits - logits.max(axis=1, keepdims=True))
            outs.append((z / z.sum(axis=1, keepdims=True)) @ v[:, sl])
        return np.concatenate(outs, axis=1)

    def self_block(self, prefix, x):
        p = self.p
        h = self.ln(prefix, x)
        att = self.attention(h @ p[prefix + ".wq"], h @ p[prefix + ".wk"], h @ p[prefix + ".wv"])
        return x + att @ p[prefix + ".wo"]

    def cross_block(self, prefix, x, kv):
        p = self.p
        q = self.ln(prefix, x) @ p[prefix + ".wq"]
        att = self.attention(q, kv @ p[prefix + ".wk"], kv @ p[prefix + ".wv"])
        return x + att @ p[prefix + ".wo"]

    def ff_block(self, prefix, x):
        return x + self.mlp(prefix, self.ln(prefix, x))

    def heads(self, prefix, xn):
        sig = lambda z: 1.0 / (1.0 + np.exp(-z))  # noqa: E731
        out = {"imi": sig(self.mlp(prefix + ".imi", xn)[:, 0])}
        sub = sig(xn @ self.p[prefix + ".sub.w"] + self.p[prefix + ".sub.b"])
        for j, m in enumerate(planner.HEAD_METRICS):
            out[m] = sub[:, j]
        return out


def combine(table: dict, version: int) -> np.ndarray:
    """The log-linear selection score, written out from the coefficient table."""
    co = harness.coefficients_for(version)
    clamp = lambda name: np.maximum(table[name], harness.SCORE_CLAMP)  # noqa: E731
    total = co.imi * np.log(clamp("imi"))
    for name, lam in co.penalties:
        total = total + lam * np.log(clamp(name))
    avg = sum(lam * clamp(name) for name, lam in co.average)
    return total + co.lambda_avg * np.log(avg)


def forward(store, cfg, vocabulary, tokens, topk=None):
    """(coarse combined, top-K indices, refine combined) for one observation.

    When `topk` is given the refinement runs on those entries, so refine
    scores can be compared even where the coarse order has a near tie at
    the K boundary.
    """
    net = _Numpy(store, cfg)
    feats = tokens.features * cfg.feat_scale
    E = np.empty((len(tokens), cfg.hidden_dim))
    for ki, kind in enumerate(TOKEN_KINDS):
        idx = np.flatnonzero(tokens.kinds == ki)
        if idx.size:
            E[idx] = net.mlp("tok." + kind, feats[idx])
    x = net.mlp("traj", vocabulary.flat_waypoints * cfg.feat_scale)
    for l in range(cfg.coarse_layers):
        if cfg.coarse_self_attn:
            x = net.self_block(f"coarse{l}.self", x)
        x = net.cross_block(f"coarse{l}.cross", x, E)
        x = net.ff_block(f"coarse{l}.ff", x)
    coarse = combine(net.heads("head", net.ln("coarse.out", x)), cfg.score_version)
    if cfg.single_stage:
        return coarse, None, None
    k = min(cfg.top_k, len(vocabulary))
    own_topk = np.argsort(-coarse, kind="stable")[:k]
    idx = own_topk if topk is None else np.asarray(topk)
    g = x[idx]
    table = None
    for l in range(cfg.refine_layers):
        if cfg.refine_self_attn:
            g = net.self_block(f"refine{l}.self", g)
        g = net.cross_block(f"refine{l}.cross", g, E)
        g = net.ff_block(f"refine{l}.ff", g)
        table = net.heads(f"refine{l}.head", net.ln(f"refine{l}.out", g))
    return coarse, own_topk, combine(table, cfg.score_version)


def check_inference(model, tokens, result, tol: float = 1e-9) -> list[str]:
    """Compare one `planner.infer` result with the numpy forward pass."""
    coarse, _, refine = forward(model.teacher, model.cfg, model.vocabulary, tokens,
                                topk=result.topk)
    errors = []
    if not _close(result.coarse_combined, coarse, tol):
        errors.append("coarse scores differ from the numpy forward pass")
    if result.topk is None:
        if result.selected != int(np.argmax(coarse)):
            errors.append("selection differs from the numpy forward pass")
        return errors
    kth = np.sort(coarse)[-len(result.topk)]
    if np.any(coarse[result.topk] < kth - tol * (1.0 + abs(kth))):
        errors.append("top-K holds an entry outside the numpy top-K")
    if result.selected not in set(int(i) for i in result.topk):
        errors.append("selected entry is not among the top-K")
    if not _close(result.refine_combined, refine, tol):
        errors.append("refine scores differ from the numpy forward pass")
    best = float(refine.max())
    chosen = float(refine[list(result.topk).index(result.selected)])
    if chosen < best - tol * (1.0 + abs(best)):
        errors.append("selection is not the numpy forward pass's best refined entry")
    return errors


# ---- scalar rule checks ----


def _dense_samples(positions, headings, dt):
    """Waypoints plus segment midpoints, with the shared start pose.

    Mirrors the evaluator's densification rule: a midpoint takes its
    segment's direction, or the previous heading on a near-stationary
    segment.
    """
    pts = [(0.0, 0.0)] + [(float(x), float(y)) for x, y in positions]
    heads = [0.0] + [float(h) for h in headings]
    out = []
    for j, (p, h) in enumerate(zip(pts, heads)):
        out.append((p, h, j * dt))
        if j + 1 < len(pts):
            q = pts[j + 1]
            dx, dy = q[0] - p[0], q[1] - p[1]
            mh = math.atan2(dy, dx) if math.hypot(dx, dy) > 1e-9 else h
            out.append(((0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1])), mh, (j + 0.5) * dt))
    return out


def _crosses(p0, p1, q1, q2) -> bool:
    d = (q2[0] - q1[0], q2[1] - q1[1])
    s = (p1[0] - p0[0], p1[1] - p0[1])
    c1 = d[0] * (p0[1] - q1[1]) - d[1] * (p0[0] - q1[0])
    c2 = d[0] * (p1[1] - q1[1]) - d[1] * (p1[0] - q1[0])
    c3 = s[0] * (q1[1] - p0[1]) - s[1] * (q1[0] - p0[0])
    c4 = s[0] * (q2[1] - p0[1]) - s[1] * (q2[0] - p0[0])
    return c1 * c2 < 0.0 and c3 * c4 < 0.0


def rule_flags(s, vocabulary, i, cfg=evaluator.DEFAULT_EVAL_CONFIG) -> dict[str, float]:
    """nc, dac and tlc of entry i, one dense sample at a time."""
    samples = _dense_samples(vocabulary.positions[i], vocabulary.headings[i], vocabulary.dt)
    collide = False
    on_road = True
    for (x, y), h, t in samples:
        ego = footprint(Pose2(Point2(x, y), h), cfg.ego_length, cfg.ego_width)
        for ag in s.agents if not collide else ():
            vx, vy = ag.velocity()
            at = Pose2(Point2(ag.pose.position.x + t * vx, ag.pose.position.y + t * vy),
                       ag.pose.heading)
            if polygons_intersect(ego, footprint(at, ag.length, ag.width)):
                collide = True
        if on_road and not all(point_in_region(c, s.drivable) for c in ego.vertices):
            on_road = False
    light_ok = True
    for light in s.lights:
        if not light.is_red:
            continue
        q1 = (light.stop_line[0].x, light.stop_line[0].y)
        q2 = (light.stop_line[1].x, light.stop_line[1].y)
        for (p0, _, _), (p1, _, _) in zip(samples, samples[1:]):
            if _crosses(p0, p1, q1, q2):
                light_ok = False
    return {"nc": float(not collide), "dac": float(on_road), "tlc": float(light_ok)}


def check_rules(s, vocabulary, labels, entries, cfg=evaluator.DEFAULT_EVAL_CONFIG) -> list[str]:
    errors = []
    for i in entries:
        got = rule_flags(s, vocabulary, int(i), cfg)
        for m, v in got.items():
            if labels.metric(m)[i] != v:
                errors.append(f"scene {s.seed} entry {i}: {m} is {labels.metric(m)[i]}, "
                              f"scalar path gives {v}")
    return errors


def aggregate_mismatches(labels, cfg=evaluator.DEFAULT_EVAL_CONFIG, tol: float = 1e-12) -> int:
    """Rows whose stored pdms/epdms differ from evaluator.aggregate of the row."""
    bad = 0
    for row, pdms, epdms in zip(labels.subscores, labels.pdms, labels.epdms):
        sub = dict(zip(evaluator.METRICS, row.tolist()))
        for version, stored in (("v1", pdms), ("v2", epdms)):
            if abs(evaluator.aggregate(sub, cfg, version) - stored) > tol:
                bad += 1
                break
    return bad
