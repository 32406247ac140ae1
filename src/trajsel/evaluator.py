"""Rule-based trajectory scoring: per-metric subscores and their aggregates.

All rules are desk-scale proxies with configurable thresholds. Penalties
are binary {0, 1}; averaged metrics lie in [0, 1]. One rule pass,
`_score_arrays`, scores a batch of start-prefixed trajectories (the whole
vocabulary of a scenario, or a single trajectory) and returns every
subscore but ego progress, plus each trajectory's route progress. Ego
progress is a ratio to a reference progress that each caller chooses:
`label_vocabulary` and `subscores` use the expert's, `expert_trajectory`
the best progress any penalty-clean entry reaches.

Within a batch, the nearest-segment search runs once per distinct sample
point and the footprint test once per distinct dense pose. Every array
that does not depend on the scene (`_Rows`) is built on the first rule
pass under a config and kept, for the vocabulary's latest config only,
while the vocabulary lives; among them are the footprint corners, sorted
by x, and the comfort flags.
A rule pass then tests each drivable cell only against the corners in its
x-slab, and takes history comfort from the cached comfort terms plus the
few terms the previous ego position adds.

Collision-style rules (collision, drivable area, traffic light) run on a
densified sample set that includes segment midpoints so fast entries
cannot step over an obstacle between waypoints.

The collision and time-to-collision rules test each agent only against
the dense samples that can overlap it. Two boxes overlap, contact
included, only if their centres are within r_ego + r_agent, r being half
a box's diagonal. So a sample goes to the separating-axis test only when
its centre distance to the agent is within r_ego + r_agent plus
`_BOUND_MARGIN` (1 mm) at one of the instants the rules test: at the
sample's time, or `ttc_checks` later with both moving at constant
velocity. The margin covers the rounding gap between the bound's
arithmetic and the test's, so no sample that the test would flag is
skipped. The samples kept take the test's elementwise arithmetic on
gathered elements, and the agent's heading cosines come from the same call
over every sample time, so every flag equals that of testing every sample.

The scene-dependent geometry kernels work component-wise on separate x
and y arrays, with every two-term dot or cross product written out. Their
order of operations is fixed: label files are compared byte for byte, and
tests pin the kernels to reference formulations bit for bit.

The lane search tests each distinct sample point only against the lane
segments that can be nearest to it. `_Rows` groups the points into
`_TILE_SIZE`-metre square tiles, each with a centre c and a radius r that
covers its points. Per scene, d(c), the distance from c to its nearest
segment, bounds every point's nearest distance from above by d(c) + r, and
d(c, k) - r bounds each point's distance to segment k from below. Only
segments with d(c, k) <= d(c) + 2r + `_BOUND_MARGIN` are tested; the margin
covers rounding and the length floor. A skipped segment is thus strictly
farther, as computed, than the nearest one, and any segment that ties with
the nearest is tested. Each tested pair takes the arithmetic of a search
over every pair, and the lowest index wins a tie, so distances and
indices are exactly those of that search. Route progress searches every
route segment. Both searches run in blocks of at most `_CHUNK_ELEMENTS`
pairs, so labelling memory does not grow with grid size x lane segments.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import threading
import weakref
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from .geom import Trajectory, normalize_angles, oriented_rect_corners
from .scenario import NoSafeTrajectory, Scenario
from .vocab import (
    TrajectoryVocabulary,
    distinct_rows,
    l2_to_entries,
    normalized_distance,
)

METRICS = ("nc", "dac", "ddc", "tlc", "ep", "ttc", "lk", "hc", "ec", "c")
_MIDX = {m: i for i, m in enumerate(METRICS)}


def _scoring_version(version: str | int) -> int:
    """1 or 2 for an aggregate version spelled "v1"/"v2" or 1/2.

    Both spellings appear: the evaluator keys on "v1"/"v2", the selector's
    `score_version` is 1/2.
    """
    if version in ("v1", 1):
        return 1
    if version in ("v2", 2):
        return 2
    raise ValueError(f"unknown scoring version {version!r}")


@dataclass(frozen=True)
class EvaluatorConfig:
    """Thresholds and weight tables of the rule evaluator."""

    ego_length: float = 4.6
    ego_width: float = 1.9
    ttc_checks: tuple[float, ...] = (0.5, 1.0)  # [s] constant-velocity lookaheads
    max_long_accel: float = 4.0  # [m/s^2]
    max_lat_accel: float = 4.9  # [m/s^2]
    max_jerk: float = 8.4  # [m/s^3]
    max_yaw_rate: float = 0.95  # [rad/s]
    lk_max_offset: float = 0.5  # [m] lateral offset from nearest centerline
    ec_window: float = 1.0  # [s]
    ec_max_delta: float = 2.0  # [m/s^2] mean accel change between windows
    ep_min_ref_progress: float = 0.5  # [m] below this progress ratio degenerates to 1
    ddc_max_dev: float = math.pi / 2  # [rad] heading deviation from lane direction
    moving_eps: float = 0.1  # [m/s] direction checks skip slower samples
    # Version 1 aggregate: product over penalties, weighted mean over the rest.
    penalties_v1: tuple[str, ...] = ("nc", "dac")
    average_v1: tuple[tuple[str, float], ...] = (("ep", 5.0), ("ttc", 5.0), ("c", 2.0))
    # Version 2 adds direction/light penalties and swaps comfort terms.
    penalties_v2: tuple[str, ...] = ("nc", "dac", "ddc", "tlc")
    average_v2: tuple[tuple[str, float], ...] = (
        ("ep", 5.0),
        ("ttc", 5.0),
        ("lk", 2.0),
        ("hc", 1.0),
        ("ec", 1.0),
    )

    def __post_init__(self):
        for version in (1, 2):
            names = (*self.penalties(version), *(m for m, _ in self.average(version)))
            unknown = [m for m in names if m not in METRICS]
            if unknown:
                raise ValueError(f"v{version} weights name unknown metrics {unknown}")
            if not sum(w for _, w in self.average(version)) > 0.0:
                raise ValueError(f"v{version} average weights must sum to a positive number")

    def penalties(self, version: str | int) -> tuple[str, ...]:
        return self.penalties_v1 if _scoring_version(version) == 1 else self.penalties_v2

    def average(self, version: str | int) -> tuple[tuple[str, float], ...]:
        return self.average_v1 if _scoring_version(version) == 1 else self.average_v2


DEFAULT_EVAL_CONFIG = EvaluatorConfig()


def _aggregate(sub, cfg: EvaluatorConfig, version: str | int):
    """(product of penalties) x (weighted mean) over `sub`, which maps each
    metric `version` reads to a value or a (B,) column; others may be absent."""
    pen = 1.0
    for m in cfg.penalties(version):
        pen = pen * sub[m]
    num = den = 0.0
    for m, w in cfg.average(version):
        num = num + w * sub[m]
        den += w
    return pen * num / den


def aggregate(sub, cfg: EvaluatorConfig = DEFAULT_EVAL_CONFIG, version: str = "v2") -> float:
    """Driving score in [0, 1]: (product of penalties) x (weighted mean).

    `sub` maps metric names to values, as `subscores` returns them; only
    the metrics of `version` need be present. Version "v1" uses the
    collision/drivable penalties with progress, time-to-collision and
    comfort in the average; "v2" adds direction and light penalties and
    the lane-keeping/history/extended comfort terms. The integers 1 and 2
    name the same versions; anything else is a ValueError. Equals, bit for
    bit, the label files' pdms (v1) and epdms (v2) of the same row.
    """
    return float(_aggregate(sub, cfg, version))


def _aggregate_matrix(mat: np.ndarray, cfg: EvaluatorConfig, version: str) -> np.ndarray:
    """`aggregate` of every row of a (B, len(METRICS)) subscore matrix."""
    return _aggregate({m: mat[:, i] for i, m in enumerate(METRICS)}, cfg, version)


@dataclass
class LabelSet:
    """Ground-truth labels of every vocabulary entry for one scenario."""

    subscores: np.ndarray  # (N, len(METRICS)) float64
    progress: np.ndarray  # (N,) route arc length [m]
    pdms: np.ndarray  # (N,) version-1 aggregate
    epdms: np.ndarray  # (N,) version-2 aggregate
    l2: np.ndarray  # (N,) RMS distance to the expert [m]
    nd: np.ndarray  # (N,) normalized distance in (0, 1]

    def metric(self, name: str) -> np.ndarray:
        return self.subscores[:, _MIDX[name]]

    def gt(self, version: str | int = "v2") -> np.ndarray:
        return self.pdms if _scoring_version(version) == 1 else self.epdms

    def __len__(self) -> int:
        return self.subscores.shape[0]


# Dense samples --------------------------------------------------------------


def _densify(pos, head):
    """Insert segment midpoints for collision-style checks.

    Midpoint headings use the segment direction (previous sample heading
    when the segment is near stationary).
    """
    B, S, _ = pos.shape
    mid = 0.5 * (pos[:, :-1] + pos[:, 1:])
    seg = pos[:, 1:] - pos[:, :-1]
    seg_len = np.hypot(seg[..., 0], seg[..., 1])
    mid_head = np.where(seg_len > 1e-9, np.arctan2(seg[..., 1], seg[..., 0]), head[:, :-1])
    dense_pos = np.empty((B, 2 * S - 1, 2))
    dense_pos[:, 0::2] = pos
    dense_pos[:, 1::2] = mid
    dense_head = np.empty((B, 2 * S - 1))
    dense_head[:, 0::2] = head
    dense_head[:, 1::2] = mid_head
    return dense_pos, dense_head


def _sat_reach(ec, es, he, ac, as_, ha):
    """Half-extent sums of the separating-axis test, one per axis.

    ec/es are the ego heading cosines/sines, ac/as_ the agent's, one per
    tested pair; he and ha are (half length, half width). Returns the
    thresholds for the ego forward, ego left, agent forward and agent left
    axes.
    """
    p = np.abs(ac * ec + as_ * es)  # |cos| of the relative heading
    q = np.abs(ac * es - as_ * ec)  # |sin| of the relative heading
    return (
        he[0] + (ha[0] * p + ha[1] * q),
        he[1] + (ha[0] * q + ha[1] * p),
        (he[0] * p + he[1] * q) + ha[0],
        (he[0] * q + he[1] * p) + ha[1],
    )


def _rects_overlap(dx, dy, ec, es, ac, as_, reach):
    """Separating-axis overlap of oriented rectangle batches.

    dx, dy are ego minus agent centers; ec/es, ac/as_ and `reach` as in
    `_sat_reach`, broadcast against dx. Boundary contact counts as
    overlap. Returns a bool array shaped as dx.
    """
    ok = np.abs(dx * ec + dy * es) <= reach[0]
    ok &= np.abs(dy * ec - dx * es) <= reach[1]
    ok &= np.abs(dx * ac + dy * as_) <= reach[2]
    ok &= np.abs(dy * ac - dx * as_) <= reach[3]
    return ok


# Slack added to the bounds that prune the collision test and the lane
# search [m]. It exceeds the rounding of every distance the bounds compare
# (a few ulps of the coordinates), and the 1e-6 m by which a lane segment
# under the 1e-12 squared-length floor can misplace its projection, by
# orders of magnitude.
_BOUND_MARGIN = 1e-3


def _collision_flags(s, rows):
    """(no_collision, ttc_ok) bool arrays of shape (B,).

    Each agent is tested only on the dense samples whose centre distance
    to it, at the sample's time or `ttc_checks` later, is within
    r_ego + r_agent + `_BOUND_MARGIN`, with r the half diagonal of a box
    (module docstring). Those samples take the separating-axis test's
    arithmetic on gathered elements, so the flags are those of testing
    every sample.
    """
    cfg, times = rows.cfg, rows.dense_t
    B, T = rows.dense_head.shape
    ex, ey = rows.dense_pos[..., 0], rows.dense_pos[..., 1]
    vx, vy = rows.dense_vel[..., 0], rows.dense_vel[..., 1]
    he = (0.5 * cfg.ego_length, 0.5 * cfg.ego_width)
    collide = np.zeros(B, dtype=bool)
    ttc_hit = np.zeros(B, dtype=bool)
    if not s.agents:
        return ~collide, ~ttc_hit
    # The ego's centre `tau` after each dense sample.
    ahead = [(tau, ex + tau * vx, ey + tau * vy) for tau in cfg.ttc_checks]
    flat_pos, flat_vel = rows.dense_pos.reshape(-1, 2), rows.dense_vel.reshape(-1, 2)
    flat_cos, flat_sin = rows.dense_cos.reshape(-1), rows.dense_sin.reshape(-1)
    for ag in s.agents:
        heading = np.full(T, ag.pose.heading)
        ac, as_ = np.cos(heading), np.sin(heading)
        ha = (0.5 * ag.length, 0.5 * ag.width)
        avx, avy = ag.velocity()
        bx = ag.pose.position.x + times * avx
        by = ag.pose.position.y + times * avy
        reach2 = (math.hypot(*he) + math.hypot(*ha) + _BOUND_MARGIN) ** 2
        near = _within(ex - bx, ey - by, reach2)
        for tau, fx, fy in ahead:
            near |= _within(fx - (bx + tau * avx), fy - (by + tau * avy), reach2)
        idx = np.flatnonzero(near)
        if idx.size == 0:
            continue
        row, t = np.divmod(idx, T)
        gx, gy = flat_pos[idx, 0], flat_pos[idx, 1]
        gc, gs, gac, gas = flat_cos.take(idx), flat_sin.take(idx), ac.take(t), as_.take(t)
        gbx, gby = bx.take(t), by.take(t)
        gvx, gvy = flat_vel[idx, 0], flat_vel[idx, 1]
        # Row 0 holds the centre offsets at the sample's time, row k those
        # `ttc_checks[k - 1]` later.
        ttc = cfg.ttc_checks
        dx = np.stack([gx - gbx, *((gx + tau * gvx) - (gbx + tau * avx) for tau in ttc)])
        dy = np.stack([gy - gby, *((gy + tau * gvy) - (gby + tau * avy) for tau in ttc)])
        hit = _rects_overlap(dx, dy, gc, gs, gac, gas, _sat_reach(gc, gs, he, gac, gas, ha))
        collide[row[hit[0]]] = True
        ttc_hit[row[hit[1:].any(axis=0)]] = True
    return ~collide, ~(ttc_hit | collide)


def _within(dx, dy, reach2):
    """dx^2 + dy^2 <= reach2, elementwise; overwrites dx and dy."""
    dx *= dx
    dy *= dy
    dx += dy
    return dx <= reach2


def _drivable_flags(s, rows):
    """Every footprint corner stays in the drivable union; shape (B,).

    The corners are tested once per distinct dense pose. A corner can only
    belong to cells whose bounding box holds it, and a corner already
    claimed needs no further tests. The corners come sorted by x, so each
    cell finds its x-slab by bisection and filters y and "not yet claimed"
    inside it; its four half-planes are then one (4, n) comparison.
    """
    A, b, bounds = s.drivable_geometry
    x, y = rows.corner_x, rows.corner_y
    inside = np.zeros(x.size, dtype=bool)
    lo = np.searchsorted(x, bounds[:, 0], side="left").tolist()
    hi = np.searchsorted(x, bounds[:, 2], side="right").tolist()
    for c, (l, h) in enumerate(zip(lo, hi)):
        ys = y[l:h]
        cand = np.flatnonzero((ys >= bounds[c, 1]) & (ys <= bounds[c, 3]) & ~inside[l:h])
        if cand.size == 0:
            continue
        cand += l
        ok = A[c, :, 0, None] * x[cand] + A[c, :, 1, None] * y[cand] >= b[c, :, None]
        inside[cand[ok.all(axis=0)]] = True
    pose_ok = np.ones(rows.pose_map[0].size, dtype=bool)
    pose_ok[rows.corner_pose[~inside]] = False
    return np.all(pose_ok[rows.pose_map[1]].reshape(rows.dense_head.shape), axis=1)


def _light_flags(s, pos):
    """True when the center path never crosses a red stop line; (B,)."""
    B = pos.shape[0]
    ok = np.ones(B, dtype=bool)
    p0 = pos[:, :-1]
    p1 = pos[:, 1:]
    seg = p1 - p0
    for light in s.lights:
        if not light.is_red:
            continue
        q1 = light.stop_line[0].as_array()
        q2 = light.stop_line[1].as_array()
        d = q2 - q1
        c1 = d[0] * (p0[..., 1] - q1[1]) - d[1] * (p0[..., 0] - q1[0])
        c2 = d[0] * (p1[..., 1] - q1[1]) - d[1] * (p1[..., 0] - q1[0])
        c3 = seg[..., 0] * (q1[1] - p0[..., 1]) - seg[..., 1] * (q1[0] - p0[..., 0])
        c4 = seg[..., 0] * (q2[1] - p0[..., 1]) - seg[..., 1] * (q2[0] - p0[..., 0])
        crossing = (c1 * c2 < 0.0) & (c3 * c4 < 0.0)
        ok &= ~np.any(crossing, axis=1)
    return ok


# Elements per (points x segments) block in the nearest-segment searches;
# bounds their temporaries whatever the grid size and lane count.
_CHUNK_ELEMENTS = 1 << 15


def route_progress(points: np.ndarray, route_xy: np.ndarray, cumlen: np.ndarray) -> np.ndarray:
    """Arc-length position of each point's projection onto the route.

    The nearest route segment wins, the lowest index on ties.
    """
    ax, ay = route_xy[:-1, 0], route_xy[:-1, 1]
    dx, dy = np.diff(route_xy[:, 0]), np.diff(route_xy[:, 1])
    len2 = np.maximum(dx * dx + dy * dy, 1e-12)
    seg_len = np.sqrt(len2)
    px, py = points[:, 0], points[:, 1]
    out = np.empty(points.shape[0])
    rows = max(1, _CHUNK_ELEMENTS // dx.size)
    for lo in range(0, px.size, rows):
        cx, cy = px[lo : lo + rows, None], py[lo : lo + rows, None]
        t = (cx - ax) * dx
        t += (cy - ay) * dy
        t /= len2
        np.clip(t, 0.0, 1.0, out=t)
        rx = cx - (ax + t * dx)
        ry = cy - (ay + t * dy)
        rx *= rx
        ry *= ry
        rx += ry
        best = np.argmin(rx, axis=1)
        out[lo : lo + rows] = cumlen[best] + t[np.arange(best.size), best] * seg_len[best]
    return out


# Side of the square tiles that group a batch's distinct sample points for
# the lane search [m].
_TILE_SIZE = 3.0


@dataclass(frozen=True)
class _Tiles:
    """Points grouped by the `_TILE_SIZE`-metre square that holds them.

    Tile i holds the points x[start[i]:start[i + 1]], y[...]. (cx, cy) is
    the centre of its points' bounding box and radius the largest distance
    from that centre to one of its points.
    """

    x: np.ndarray
    y: np.ndarray
    start: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    radius: np.ndarray


def _tile_points(x: np.ndarray, y: np.ndarray) -> tuple[_Tiles, np.ndarray]:
    """(tiles, order): the points (x, y) grouped into tiles, and the stable
    permutation with tiles.x == x[order] and tiles.y == y[order]."""
    ix, iy = np.floor(x / _TILE_SIZE), np.floor(y / _TILE_SIZE)
    order = np.lexsort((iy, ix))
    ix, iy, x, y = ix[order], iy[order], x[order], y[order]
    new = np.ones(x.size, dtype=bool)
    new[1:] = (ix[1:] != ix[:-1]) | (iy[1:] != iy[:-1])
    start = np.append(np.flatnonzero(new), x.size)
    lo, size = start[:-1], np.diff(start)
    cx = 0.5 * (np.minimum.reduceat(x, lo) + np.maximum.reduceat(x, lo))
    cy = 0.5 * (np.minimum.reduceat(y, lo) + np.maximum.reduceat(y, lo))
    radius = np.maximum.reduceat(np.hypot(x - np.repeat(cx, size), y - np.repeat(cy, size)), lo)
    return _Tiles(x, y, start, cx, cy, radius), order


def _segment_dist2(rx, ry, dx, dy, len2):
    """Squared distance to a segment from the point at offset (rx, ry) from
    its start, elementwise over the broadcast arguments. The segment runs
    along (dx, dy) and len2 is its squared length floored away from zero.
    Overwrites rx and ry and returns rx."""
    t = rx * dx
    w = ry * dy
    t += w
    t /= len2
    np.clip(t, 0.0, 1.0, out=t)
    rx -= np.multiply(t, dx, out=w)
    ry -= np.multiply(t, dy, out=w)
    rx *= rx
    ry *= ry
    rx += ry
    return rx


def _nearest_lane_segment(tiles: _Tiles, sx, sy, dx, dy, len2):
    """Squared distance to, and index of, the nearest segment of each of the
    tiles' points, in tile order; ties go to the lowest index.

    Segment k runs from (sx[k], sy[k]) along (dx[k], dy[k]); len2 is its
    squared length floored away from zero. A tile's points are tested only
    against the segments with d(c, k) <= d(c) + 2r + `_BOUND_MARGIN` (module
    docstring). The tile x segment bounds and the point x candidate pairs
    run in blocks of at most `_CHUNK_ELEMENTS` pairs, one tile or point at
    the least.
    """
    m, n_tiles = sx.size, tiles.cx.size
    # Per tile, the segments that can be nearest to one of its points, in
    # index order: cand[cand_lo[i]:cand_lo[i] + cand_n[i]] for tile i.
    cand, cand_n = [], []
    rows = max(1, _CHUNK_ELEMENTS // m)
    for lo in range(0, n_tiles, rows):
        cx, cy = tiles.cx[lo : lo + rows, None], tiles.cy[lo : lo + rows, None]
        d2 = _segment_dist2(cx - sx, cy - sy, dx, dy, len2)
        reach = np.sqrt(d2.min(axis=1))
        reach += 2.0 * tiles.radius[lo : lo + rows] + _BOUND_MARGIN
        near = d2 <= (reach * reach)[:, None]
        cand.append(np.flatnonzero(near) % m)
        cand_n.append(np.count_nonzero(near, axis=1))
    cand, cand_n = np.concatenate(cand), np.concatenate(cand_n)
    cand_lo = np.cumsum(cand_n) - cand_n
    # Per point, where its candidates begin in `cand`, how many there are,
    # and where its pairs end in the sequence of every point's pairs.
    size = np.diff(tiles.start)
    first, count = np.repeat(cand_lo, size), np.repeat(cand_n, size)
    pair_end = np.cumsum(count)
    n = tiles.x.size
    best = np.empty(n)
    best_idx = np.empty(n, dtype=np.intp)
    # A pair holds about twice the temporaries of a tile x segment bound.
    budget = max(1, _CHUNK_ELEMENTS // 2)
    lo = 0
    while lo < n:
        base = pair_end[lo] - count[lo]
        hi = max(lo + 1, int(np.searchsorted(pair_end, base + budget, side="right")))
        c = count[lo:hi]
        group = pair_end[lo:hi] - c - base  # each point's first pair in the block
        seg = cand.take(np.repeat(first[lo:hi] - group, c) + np.arange(pair_end[hi - 1] - base))
        rx = np.repeat(tiles.x[lo:hi], c)
        rx -= sx.take(seg)
        ry = np.repeat(tiles.y[lo:hi], c)
        ry -= sy.take(seg)
        d2 = _segment_dist2(rx, ry, dx.take(seg), dy.take(seg), len2.take(seg))
        low = np.minimum.reduceat(d2, group)
        hits = np.flatnonzero(d2 == np.repeat(low, c))
        best[lo:hi] = low
        best_idx[lo:hi] = seg.take(hits.take(np.searchsorted(hits, group)))
        lo = hi
    return best, best_idx


def _lane_keep_and_direction(s, rows):
    """(lk_ok, ddc_ok) from lateral offset and heading deviation; (B,).

    The nearest-segment search runs once per distinct sample point.
    """
    cfg, head, inverse = rows.cfg, rows.head, rows.point_map[1]
    starts, ends, dirs = s.lane_segments
    sx, sy = starts[:, 0].copy(), starts[:, 1].copy()
    dx, dy = ends[:, 0] - sx, ends[:, 1] - sy
    len2 = np.maximum(dx * dx + dy * dy, 1e-12)
    best, best_idx = _nearest_lane_segment(rows.tiles, sx, sy, dx, dy, len2)
    lk_ok = np.all((best <= cfg.lk_max_offset**2)[inverse].reshape(head.shape), axis=1)
    dev = np.abs(normalize_angles(head.reshape(-1) - dirs[best_idx][inverse]))
    ddc = (dev <= cfg.ddc_max_dev) | rows.slow
    ddc_ok = np.all(ddc.reshape(head.shape), axis=1)
    return lk_ok, ddc_ok


def _comfort_pass(pos, head, dt, cfg):
    """Accel/jerk/yaw-rate limits on a sampled path; (B,) bool."""
    w = (pos[:, 1:] - pos[:, :-1]) / dt  # segment velocities (B, S-1, 2)
    speeds = np.hypot(w[..., 0], w[..., 1])
    acc = (w[:, 1:] - w[:, :-1]) / dt  # (B, S-2, 2)
    # Longitudinal/lateral split about the motion direction; slow segments
    # fall back to the sampled heading.
    unit = np.where(
        (speeds[:, :-1] > 1e-9)[..., None],
        w[:, :-1] / np.maximum(speeds[:, :-1], 1e-12)[..., None],
        np.stack([np.cos(head[:, :-2]), np.sin(head[:, :-2])], axis=-1),
    )
    a_long = acc[..., 0] * unit[..., 0] + acc[..., 1] * unit[..., 1]
    a_lat = unit[..., 0] * acc[..., 1] - unit[..., 1] * acc[..., 0]
    ok = np.all(np.abs(a_long) <= cfg.max_long_accel, axis=1)
    ok &= np.all(np.abs(a_lat) <= cfg.max_lat_accel, axis=1)
    if acc.shape[1] >= 2:
        jerk = np.linalg.norm(acc[:, 1:] - acc[:, :-1], axis=-1) / dt
        ok &= np.all(jerk <= cfg.max_jerk, axis=1)
    yaw = np.abs(normalize_angles(head[:, 1:] - head[:, :-1])) / dt
    ok &= np.all(yaw <= cfg.max_yaw_rate, axis=1)
    return ok


def _ec_pass(pos, dt, cfg):
    """Mean accel vector change between consecutive windows is bounded."""
    w = (pos[:, 1:] - pos[:, :-1]) / dt
    acc = (w[:, 1:] - w[:, :-1]) / dt  # (B, n_acc, 2)
    per_window = max(1, int(round(cfg.ec_window / dt)))
    n_acc = acc.shape[1]
    means = []
    for k in range(0, n_acc, per_window):
        means.append(acc[:, k : k + per_window].mean(axis=1))
    if len(means) < 2:
        return np.ones(pos.shape[0], dtype=bool)
    means = np.stack(means, axis=1)
    delta = np.linalg.norm(means[:, 1:] - means[:, :-1], axis=-1)
    return np.all(delta <= cfg.ec_max_delta, axis=1)


class _Rows:
    """A batch of start-prefixed trajectories with every rule-pass array
    under `cfg` that does not depend on the scene.

    pos (B, S, 2) and head (B, S) are start-prefixed samples sharing one
    start pose. `slow` flags samples slower than `moving_eps`
    (a start sample takes its outgoing segment's speed). `dense_*` are the
    densified rows with their velocities, times and heading cos/sin.
    `point_map` and `pose_map` are the (first, inverse) pairs of
    `distinct_rows` over the rows' sample points (x, y) and dense poses
    (x, y, heading), flattened. `tiles` holds the distinct points grouped
    into `_TILE_SIZE`-metre squares (`_tile_points`), with each tile's
    centre and radius for the lane search's bounds; the distinct points
    are numbered tile by tile. `corner_x`/`corner_y` are the ego footprint
    corners of the distinct poses sorted by x, and `corner_pose` the
    distinct pose of each. `comfort` and `ec` are the comfort flags.
    Nothing here depends on the scene, so for a vocabulary the points are
    tiled and the corners sorted inside `_vocabulary_rows`, once while its
    config stays the same.
    """

    def __init__(self, pos: np.ndarray, head: np.ndarray, dt: float, cfg: EvaluatorConfig):
        self.pos, self.head, self.dt, self.cfg = pos, head, dt, cfg
        seg_v = (pos[:, 1:] - pos[:, :-1]) / dt
        sv = np.hypot(seg_v[..., 0], seg_v[..., 1])
        self.slow = np.concatenate([sv[:, :1], sv], axis=1).reshape(-1) < cfg.moving_eps
        self.dense_pos, self.dense_head = dense_pos, dense_head = _densify(pos, head)
        # Velocity at each dense sample for constant-velocity propagation:
        # waypoints carry their outgoing segment (last one its incoming),
        # midpoints the segment they sit on.
        self.dense_vel = dense_vel = np.empty_like(dense_pos)
        dense_vel[:, 0::2] = np.concatenate([seg_v, seg_v[:, -1:]], axis=1)
        dense_vel[:, 1::2] = seg_v
        self.dense_t = np.arange(dense_pos.shape[1]) * (0.5 * dt)
        self.dense_cos, self.dense_sin = np.cos(dense_head), np.sin(dense_head)
        points = pos.reshape(-1, 2)
        first, inverse = distinct_rows(points)
        self.tiles, order = _tile_points(points[first, 0], points[first, 1])
        self.point_map = first[order], np.argsort(order)[inverse]
        self.pose_map = distinct_rows(np.concatenate([dense_pos, dense_head[..., None]], axis=2)
                                      .reshape(-1, 3))
        p = self.pose_map[0]
        corners = oriented_rect_corners(dense_pos.reshape(-1, 2)[p], dense_head.reshape(-1)[p],
                                        cfg.ego_length, cfg.ego_width)
        cx, cy = corners[..., 0].ravel(), corners[..., 1].ravel()
        order = np.argsort(cx, kind="stable")
        self.corner_x, self.corner_y = cx[order], cy[order]
        self.corner_pose = (order // 4).astype(np.int32)
        self.comfort = _comfort_pass(pos, head, dt, cfg)
        self.ec = _ec_pass(pos, dt, cfg)


# Each vocabulary's `_Rows` under the latest config it was scored with.
_intrinsic_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_intrinsic_lock = threading.Lock()


def _vocabulary_rows(vocabulary: TrajectoryVocabulary, cfg: EvaluatorConfig) -> _Rows:
    """The vocabulary's `_Rows` under `cfg`, built when the vocabulary has
    none yet or has those of a config unequal to `cfg`.

    Only the latest config's rows stay while the vocabulary lives, which for
    a `build_vocabulary` vocabulary is the whole process: 0.95 MB on the
    desk grid and 12.8 MB on the paper grid, the sum of the rows' array
    sizes (0.07 and 0.8 MB of it are the corners' pose indices). A threshold
    sweep in one process therefore holds one config's rows, and rebuilds
    them each time it switches config. Configs are compared with `==`, so
    equal configs that are distinct objects share the rows.
    """
    with _intrinsic_lock:
        rows = _intrinsic_cache.get(vocabulary)
        if rows is None or rows.cfg != cfg:
            # Every entry starts at the origin, heading along +x.
            n = len(vocabulary)
            pos = np.concatenate([np.zeros((n, 1, 2)), vocabulary.positions], axis=1)
            head = np.concatenate([np.zeros((n, 1)), vocabulary.headings], axis=1)
            rows = _intrinsic_cache[vocabulary] = _Rows(pos, head, vocabulary.dt, cfg)
    return rows


def _score_arrays(s: Scenario, rows: _Rows):
    """The rule pass over a batch of trajectories sharing one start pose.

    Scores under the config `rows` was built for. Returns (subscore matrix
    (B, len(METRICS)), route progress (B,)); the EP column is left NaN for
    the caller to fill with `_write_ep` against its own reference.
    """
    pos, head, dt = rows.pos, rows.head, rows.dt
    B, S, _ = pos.shape
    nc_ok, ttc_ok = _collision_flags(s, rows)
    dac_ok = _drivable_flags(s, rows)
    tlc_ok = _light_flags(s, rows.dense_pos)
    lk_ok, ddc_ok = _lane_keep_and_direction(s, rows)

    # History comfort is the comfort pass over (prev, start, samples...)
    # ANDed with `rows.comfort`, so the first step's accel and jerk count.
    # Past that path's first acceleration, jerk and yaw-rate terms, every
    # term equals a term of `rows.comfort` bit for bit: the same elementwise
    # operations run on the same values. The pass over the path's first four
    # points (prev, start and two samples) thus gives the same flags.
    n = min(S, 3)
    hpos = np.empty((B, n + 1, 2))
    hpos[:, 0] = s.ego_history.prev_position.as_array()
    hpos[:, 1:] = pos[:, :n]
    hv = hpos[:, 1] - hpos[:, 0]
    hhead = np.empty((B, n + 1))
    hhead[:, 0] = math.atan2(hv[0, 1], hv[0, 0]) if np.hypot(*hv[0]) > 1e-9 else head[0, 0]
    hhead[:, 1:] = head[:, :n]
    hc_flags = _comfort_pass(hpos, hhead, dt, rows.cfg)

    mat = np.empty((B, len(METRICS)))
    mat[:, _MIDX["nc"]] = nc_ok
    mat[:, _MIDX["dac"]] = dac_ok
    mat[:, _MIDX["ddc"]] = ddc_ok
    mat[:, _MIDX["tlc"]] = tlc_ok
    mat[:, _MIDX["ep"]] = np.nan
    mat[:, _MIDX["ttc"]] = ttc_ok
    mat[:, _MIDX["lk"]] = lk_ok
    mat[:, _MIDX["hc"]] = hc_flags & rows.comfort
    mat[:, _MIDX["ec"]] = rows.ec
    mat[:, _MIDX["c"]] = rows.comfort
    progress = route_progress(pos[:, -1], s.route_xy, s.route_cumlen)
    return mat, progress


def _write_ep(mat: np.ndarray, progress: np.ndarray, ref: float, cfg: EvaluatorConfig) -> None:
    """Fill the EP column with progress over `ref`, clipped to [0, 1].

    A reference below `ep_min_ref_progress` gives every entry 1.
    """
    if ref < cfg.ep_min_ref_progress:
        mat[:, _MIDX["ep"]] = 1.0
    else:
        mat[:, _MIDX["ep"]] = np.clip(progress / ref, 0.0, 1.0)


def _expert_progress(s: Scenario) -> float:
    """Route progress of the scenario's expert; the usual EP reference."""
    if s.expert is None:
        raise ValueError("scenario has no expert trajectory for progress reference")
    return float(route_progress(s.expert.xy[-1:], s.route_xy, s.route_cumlen)[0])


def label_vocabulary(
    s: Scenario,
    vocabulary: TrajectoryVocabulary,
    cfg: EvaluatorConfig = DEFAULT_EVAL_CONFIG,
) -> LabelSet:
    """Ground-truth subscores and aggregates for every entry.

    Progress is relative to the expert's; a scenario without an expert
    raises ValueError.
    """
    ref = _expert_progress(s)
    mat, progress = _score_arrays(s, _vocabulary_rows(vocabulary, cfg))
    _write_ep(mat, progress, ref, cfg)
    l2 = l2_to_entries(vocabulary.positions, s.expert.xy)
    return LabelSet(
        subscores=mat,
        progress=progress,
        pdms=_aggregate_matrix(mat, cfg, "v1"),
        epdms=_aggregate_matrix(mat, cfg, "v2"),
        l2=l2,
        nd=normalized_distance(l2),
    )


def subscores(
    s: Scenario, t: Trajectory, cfg: EvaluatorConfig = DEFAULT_EVAL_CONFIG
) -> dict[str, float]:
    """Score one trajectory against a scenario, in `METRICS` order.

    Progress is relative to the expert's; a scenario without an expert
    raises ValueError.
    """
    ref = _expert_progress(s)
    pos = np.vstack([t.start_pose.position.as_array(), t.xy])
    head = np.concatenate([[t.start_pose.heading], t.heading_array])
    mat, progress = _score_arrays(s, _Rows(pos[None], head[None], t.dt, cfg))
    _write_ep(mat, progress, ref, cfg)
    return dict(zip(METRICS, mat[0].tolist()))


def expert_trajectory(
    s: Scenario,
    vocabulary: TrajectoryVocabulary,
    cfg: EvaluatorConfig = DEFAULT_EVAL_CONFIG,
) -> tuple[int, Trajectory]:
    """The entry maximizing the version-2 aggregate.

    No expert exists yet, so progress is relative to the achievable
    progress: the best progress among penalty-clean entries (no collision,
    on the drivable area, along the lane direction, no red light run), so
    rule breakers don't deflate everyone else's progress ratio. When no
    entry is clean, the best progress of all entries. Ties break toward
    higher progress, then lower index. Raises NoSafeTrajectory when every
    entry scores zero.
    """
    mat, progress = _score_arrays(s, _vocabulary_rows(vocabulary, cfg))
    legal = mat[:, [_MIDX[m] for m in ("nc", "dac", "ddc", "tlc")]].all(axis=1)
    ref = float(progress[legal].max()) if legal.any() else float(progress.max())
    _write_ep(mat, progress, ref, cfg)
    scores = _aggregate_matrix(mat, cfg, "v2")
    if float(scores.max()) <= 0.0:
        raise NoSafeTrajectory(f"seed {s.seed}: all {len(scores)} entries score zero")
    order = np.lexsort((np.arange(len(scores)), -progress, -scores))
    idx = int(order[0])
    return idx, vocabulary.entry(idx)


# Label sidecar cache --------------------------------------------------------

LABELS_FORMAT_VERSION = 1
# A sidecar stores one stacked array per LabelSet field, in field order.
_LABEL_ARRAYS = tuple(f.name for f in dataclasses.fields(LabelSet))


class LabelCacheMismatch(ValueError):
    """Sidecar was built for a different dataset, grid, or config."""


def config_digest(cfg: EvaluatorConfig) -> str:
    """sha256 of the scoring thresholds and weights; keys label caches."""
    parts = []
    for f in dataclasses.fields(cfg):
        parts.append("%s=%r" % (f.name, getattr(cfg, f.name)))
    return hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()


def save_labels(
    path,
    label_sets: list[LabelSet],
    *,
    dataset_sha: str,
    vocabulary: TrajectoryVocabulary,
    cfg: EvaluatorConfig,
) -> str:
    """Write every scenario's LabelSet to one compressed sidecar file.

    The file records the dataset digest, grid digest and config digest it
    was built from; load_labels refuses to serve it to anything else.
    Returns the file's sha256.
    """
    if not label_sets:
        raise ValueError("nothing to save")
    arrays = {
        "format_version": np.array(LABELS_FORMAT_VERSION),
        "dataset_sha": np.array(dataset_sha),
        "vocab_digest": np.array(vocabulary.digest),
        "config_digest": np.array(config_digest(cfg)),
        **{n: np.stack([getattr(ls, n) for ls in label_sets]) for n in _LABEL_ARRAYS},
    }
    np.savez_compressed(path, **arrays)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_labels(
    path,
    *,
    dataset_sha: str,
    vocabulary: TrajectoryVocabulary,
    cfg: EvaluatorConfig,
) -> list[LabelSet]:
    """Read a sidecar built from the dataset with digest `dataset_sha`, for
    `vocabulary` and under `cfg`.

    The format version must be an integer equal to LABELS_FORMAT_VERSION,
    the file's dataset digest, vocabulary digest and config digest must
    each match, `subscores` must be (S, N, len(METRICS)) for the N entries
    of `vocabulary` and every other array (S, N); LabelCacheMismatch naming
    the file otherwise. A file that cannot be read as a complete sidecar
    raises LabelCacheMismatch too, so callers treat it like a stale one.
    """
    keys = ("format_version", "dataset_sha", "vocab_digest", "config_digest",
            *_LABEL_ARRAYS)
    with open(path, "rb") as fh:
        try:
            with np.load(fh) as z:
                a = {k: z[k] for k in keys}
        # RuntimeError: zipfile's error for an entry flagged as encrypted,
        # and its NotImplementedError for an unknown compression method.
        except (OSError, ValueError, KeyError, EOFError, RuntimeError,
                zipfile.BadZipFile, zlib.error) as e:
            raise LabelCacheMismatch(f"{path} is unreadable: {e}") from None
    version = a["format_version"]
    if version.shape != () or version.dtype.kind not in "iu" \
            or int(version) != LABELS_FORMAT_VERSION:
        raise LabelCacheMismatch(f"{path}: unsupported format version {version}")
    checks = (
        ("dataset_sha", dataset_sha),
        ("vocab_digest", vocabulary.digest),
        ("config_digest", config_digest(cfg)),
    )
    for key, want in checks:
        got = str(a[key])
        if got != want:
            raise LabelCacheMismatch(f"{path}: {key} mismatch: file has {got[:12]}..")
    shape = a["subscores"].shape
    if len(shape) != 3 or shape[1:] != (len(vocabulary), len(METRICS)):
        raise LabelCacheMismatch(f"{path}: subscores of shape {shape}, vocabulary has "
                                 f"{len(vocabulary)} entries and {len(METRICS)} metrics")
    for n in _LABEL_ARRAYS[1:]:
        if a[n].shape != shape[:2]:
            raise LabelCacheMismatch(f"{path}: {n} of shape {a[n].shape}, "
                                     f"subscores of shape {shape}")
    return [LabelSet(**{n: a[n][i] for n in _LABEL_ARRAYS}) for i in range(shape[0])]
