"""Procedural scenario builders and the seeded generation loop.

Four scene kinds: straight road, gentle curve, sharp turn, and a T
intersection. Roads are built along a constant-curvature centerline so
that some vocabulary entry follows the lane exactly (curvatures snap to
vocabulary levels). Sharp turns stay free of agents and lights, which
makes their experts turn reliably; everything else mixes leads,
oncoming traffic, red-light queues, and crossing vehicles.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from numpy.random import default_rng

from . import evaluator
from .geom import (
    IDENTITY_POSE,
    ConvexPolygon,
    Point2,
    Pose2,
    footprint,
    normalize_angles,
    polygons_intersect,
)
from .scenario import (
    Agent,
    EgoHistory,
    GenConfig,
    GenerationFailed,
    Lane,
    NoSafeTrajectory,
    Scenario,
    TrafficLight,
)
from .vocab import arc_positions, build_vocabulary, curvature_levels

_CELL_STEP = 4.0  # [m] drivable cell length along the road
_LANE_STEP = 2.5  # [m] lane/route point spacing
_ARM_LENGTH = 30.0  # [m] T-intersection arm extent

def _road_points(kappa: float, params: np.ndarray) -> np.ndarray:
    """Centerline points: straight behind the origin, an arc ahead of it."""
    fwd = np.maximum(params, 0.0)
    pts = arc_positions(kappa, fwd)
    pts[:, 0] += np.minimum(params, 0.0)
    return pts


def _road_dirs(kappa: float, params: np.ndarray) -> np.ndarray:
    return kappa * np.maximum(params, 0.0)


def _offset(pts: np.ndarray, dirs: np.ndarray, off: float) -> np.ndarray:
    return pts + off * np.stack([-np.sin(dirs), np.cos(dirs)], axis=-1)


def _strip_cells(pts, dirs, off_lo, off_hi):
    """CCW quads between consecutive centerline samples."""
    lo = _offset(pts, dirs, off_lo)
    hi = _offset(pts, dirs, off_hi)
    cells = []
    for i in range(len(pts) - 1):
        cells.append(
            ConvexPolygon(
                (
                    Point2(*lo[i]),
                    Point2(*lo[i + 1]),
                    Point2(*hi[i + 1]),
                    Point2(*hi[i]),
                )
            )
        )
    return cells


def _lane(pts: np.ndarray, dirs: np.ndarray) -> Lane:
    return Lane(
        points=tuple(Point2(*p) for p in pts),
        directions=tuple(float(d) for d in dirs),
    )


def _snap_kappa(rng, cfg: GenConfig, lo: float, hi: float) -> float:
    """A signed curvature drawn from the vocabulary levels inside [lo, hi]."""
    levels = curvature_levels(cfg.vocab)
    pos = levels[(levels >= lo) & (levels <= hi)]
    if pos.size == 0:
        pos = levels[np.argmin(np.abs(levels - 0.5 * (lo + hi)))][None]
    mag = float(pos[rng.integers(0, pos.size)])
    sign = 1.0 if rng.integers(0, 2) else -1.0
    return sign * mag


class _Builder:
    """Accumulates world elements for one generation attempt."""

    def __init__(self, rng, cfg: GenConfig, ego_box: ConvexPolygon):
        self.rng = rng
        self.cfg = cfg
        self.ego_box = ego_box
        self.agents: list[Agent] = []
        self.lights: list[TrafficLight] = []
        self.drivable: list[ConvexPolygon] = []
        self.lanes: list[Lane] = []
        self.route: tuple[Point2, ...] = ()

    def add_agent(self, pose: Pose2, speed: float) -> bool:
        """Place an agent unless it overlaps `ego_box` or a prior agent."""
        if len(self.agents) >= self.cfg.agent_count:
            return False
        cand = Agent(pose=pose, speed=speed)
        box = footprint(pose, cand.length, cand.width)
        if polygons_intersect(box, self.ego_box):
            return False
        for other in self.agents:
            if polygons_intersect(box, footprint(other.pose, other.length, other.width)):
                return False
        self.agents.append(cand)
        return True


def _build_road(b: _Builder, kappa: float) -> None:
    """Two-lane road along a constant-curvature centerline."""
    cfg = b.cfg
    w = cfg.lane_width
    cell_ts = np.arange(-cfg.road_back, cfg.road_length + 1e-9, _CELL_STEP)
    pts, dirs = _road_points(kappa, cell_ts), _road_dirs(kappa, cell_ts)
    b.drivable.extend(_strip_cells(pts, dirs, -0.5 * w, 1.5 * w))

    lane_ts = np.arange(-cfg.road_back, cfg.road_length + 1e-9, _LANE_STEP)
    lpts, ldirs = _road_points(kappa, lane_ts), _road_dirs(kappa, lane_ts)
    b.lanes.append(_lane(lpts, ldirs))
    b.lanes.append(_lane(_offset(lpts, ldirs, w), normalize_angles(ldirs + math.pi)))

    route_ts = np.arange(0.0, cfg.road_length + 1e-9, _LANE_STEP)
    rpts = _road_points(kappa, route_ts)
    rpts[0] = 0.0  # exact origin
    b.route = tuple(Point2(*p) for p in rpts)


def _build_arm(b: _Builder, x_int: float, side: float) -> None:
    """Perpendicular two-lane arm of a T intersection."""
    w = b.cfg.lane_width
    edge = 1.5 * w if side > 0 else -0.5 * w
    ys = side * np.arange(0.0, _ARM_LENGTH + 1e-9, _CELL_STEP) + edge
    for i in range(len(ys) - 1):
        y0, y1 = (ys[i], ys[i + 1]) if side > 0 else (ys[i + 1], ys[i])
        b.drivable.append(
            ConvexPolygon(
                (
                    Point2(x_int - w, y0),
                    Point2(x_int + w, y0),
                    Point2(x_int + w, y1),
                    Point2(x_int - w, y1),
                )
            )
        )
    lane_ys = side * np.arange(1.0, _ARM_LENGTH + 1e-9, _LANE_STEP) + edge
    inbound = -side * math.pi / 2.0
    for x_off, direction in ((-0.5 * w, inbound), (0.5 * w, -inbound)):
        pts = np.stack([np.full(lane_ys.shape, x_int + x_off), lane_ys], axis=-1)
        b.lanes.append(_lane(pts, np.full(lane_ys.shape, direction)))


def _place_light(b: _Builder, kappa: float, s_line: float, red: bool) -> None:
    cfg = b.cfg
    w = cfg.lane_width
    p = _road_points(kappa, np.array([s_line]))[0]
    d = float(_road_dirs(kappa, np.array([s_line]))[0])
    n = np.array([-math.sin(d), math.cos(d)])
    q1 = p - 0.5 * w * n
    q2 = p + 1.5 * w * n
    b.lights.append(
        TrafficLight(
            stop_line=(Point2(*q1), Point2(*q2)),
            state="red" if red else "green",
        )
    )
    if red:
        s_q = s_line - float(b.rng.uniform(2.8, 4.2))
        qp = _road_points(kappa, np.array([s_q]))[0]
        qd = float(_road_dirs(kappa, np.array([s_q]))[0])
        b.add_agent(Pose2(Point2(*qp), qd), 0.0)


def _place_lead(b: _Builder, kappa: float) -> None:
    s = float(b.rng.uniform(14.0, 34.0))
    v = float(b.rng.uniform(1.5, 6.0))
    p = _road_points(kappa, np.array([s]))[0]
    d = float(_road_dirs(kappa, np.array([s]))[0])
    b.add_agent(Pose2(Point2(*p), d), v)


def _place_oncoming(b: _Builder, kappa: float, s: float, v: float) -> None:
    """Oncoming-lane agent aimed along the chord of its 4 s of travel.

    Constant-velocity motion cannot follow a curved lane, so the heading
    points at where the lane will be rather than along the tangent; the
    straight path then stays within the lane over the horizon.
    """
    w = b.cfg.lane_width
    dirs = _road_dirs(kappa, np.array([s, max(s - 4.0 * v, 0.0)]))
    pts = _offset(_road_points(kappa, np.array([s, max(s - 4.0 * v, 0.0)])), dirs, w)
    aim = pts[1] - pts[0]
    heading = math.atan2(aim[1], aim[0])
    b.add_agent(Pose2(Point2(*pts[0]), heading), v)


def _oncoming_speed(b: _Builder, kappa: float) -> float:
    """Keep the ballistic path's lane deviation under the clearance."""
    hi = 9.0 if abs(kappa) < 1e-6 else min(9.0, math.sqrt(9.6 / abs(kappa)) / 4.0)
    return float(b.rng.uniform(min(4.0, hi - 0.5), hi))


def _place_crossing(b: _Builder, x_int: float, side: float) -> None:
    t_cross = float(b.rng.uniform(1.2, 3.2))
    v = float(b.rng.uniform(4.0, 9.0))
    y0 = side * v * t_cross
    pose = Pose2(Point2(x_int - 0.5 * b.cfg.lane_width, y0), -side * math.pi / 2.0)
    b.add_agent(pose, v)


def _build_attempt(seed: int, attempt: int, cfg: GenConfig, ego_box: ConvexPolygon) -> Scenario:
    rng = default_rng([seed, attempt])
    r = rng.uniform()
    if r < cfg.turn_fraction:
        kind = "turn"
    elif r < cfg.turn_fraction + cfg.curve_fraction:
        kind = "curve"
    elif r < cfg.turn_fraction + cfg.curve_fraction + cfg.tee_fraction:
        kind = "tee"
    else:
        kind = "straight"

    b = _Builder(rng, cfg, ego_box)
    if kind == "turn":
        kappa = _snap_kappa(rng, cfg, cfg.turn_kappa_min, cfg.turn_kappa_max)
    elif kind == "curve":
        kappa = _snap_kappa(rng, cfg, cfg.gentle_kappa_min, cfg.gentle_kappa_max)
    else:
        kappa = 0.0
    _build_road(b, kappa)

    ego_speed = float(rng.uniform(cfg.ego_speed_min, cfg.ego_speed_max))
    history = EgoHistory(
        prev_position=Point2(-ego_speed * cfg.vocab.dt, 0.0),
        speed=ego_speed,
        accel=float(rng.uniform(-1.0, 1.0)),
    )

    if kind == "tee":
        x_int = float(rng.uniform(28.0, 45.0))
        side = 1.0 if rng.integers(0, 2) else -1.0
        _build_arm(b, x_int, side)
        red = False
        if rng.uniform() < cfg.light_prob:
            red = rng.uniform() < cfg.red_prob
            s_line = x_int - float(rng.uniform(5.0, 8.0))
            _place_light(b, kappa, s_line, red)
        if red:
            _place_oncoming(
                b, kappa, s_line + float(rng.uniform(2.0, 10.0)), float(rng.uniform(4.5, 6.5))
            )
        if rng.uniform() < cfg.crossing_prob:
            _place_crossing(b, x_int, side)
        if rng.uniform() < cfg.oncoming_prob:
            _place_oncoming(b, kappa, float(rng.uniform(25.0, 55.0)), _oncoming_speed(b, kappa))
    elif kind != "turn":
        red = False
        if rng.uniform() < cfg.light_prob:
            red = rng.uniform() < cfg.red_prob
            s_line = float(rng.uniform(cfg.stop_line_min, cfg.stop_line_max))
            _place_light(b, kappa, s_line, red)
        if red:
            # Oncoming traffic sweeping the other lane keeps "overtake the
            # queue up to the line" from outscoring an honest stop.
            _place_oncoming(
                b,
                kappa,
                s_line + float(rng.uniform(2.0, 10.0)),
                min(float(rng.uniform(4.5, 6.5)), _oncoming_speed(b, kappa)),
            )
        else:
            if rng.uniform() < cfg.lead_prob:
                _place_lead(b, kappa)
            if rng.uniform() < cfg.oncoming_prob:
                _place_oncoming(
                    b, kappa, float(rng.uniform(25.0, 55.0)), _oncoming_speed(b, kappa)
                )

    return Scenario(
        seed=seed,
        kind=kind,
        ego_speed=ego_speed,
        ego_history=history,
        agents=tuple(b.agents),
        drivable=tuple(b.drivable),
        lanes=tuple(b.lanes),
        route=b.route,
        lights=tuple(b.lights),
        expert=None,
    )


def generate_scenario(seed: int, cfg: GenConfig,
                      eval_cfg=evaluator.DEFAULT_EVAL_CONFIG) -> Scenario:
    """Deterministic scenario for (seed, cfg), expert attached.

    The expert is the best entry of `build_vocabulary(cfg.vocab)`, the
    grid the dataset header names, scored under `eval_cfg`. Attempts that
    leave no safely scoreable entry are redrawn from a fresh substream;
    GenerationFailed signals an over-constrained config.
    """
    vocabulary = build_vocabulary(cfg.vocab)
    ego_box = footprint(IDENTITY_POSE, eval_cfg.ego_length, eval_cfg.ego_width)
    for attempt in range(cfg.max_scenario_attempts):
        s = _build_attempt(seed, attempt, cfg, ego_box)
        try:
            _, expert = evaluator.expert_trajectory(s, vocabulary, eval_cfg)
        except NoSafeTrajectory:
            continue
        return replace(s, expert=expert)
    raise GenerationFailed(
        f"seed {seed}: no safe trajectory in {cfg.max_scenario_attempts} attempts"
    )
