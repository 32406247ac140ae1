"""Scenario types, frame rotation, observation tokens, and dataset files.

A scenario is expressed in the ego frame: the ego vehicle sits at the
origin with heading zero, the road continues straight for a stretch
behind it, and every other element (agents, drivable cells, lanes,
route, lights) is positioned relative to that.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .geom import (
    ConvexPolygon,
    Point2,
    Pose2,
    Trajectory,
    normalize_angle,
    rotate_point,
    rotate_trajectory,
)
from .vocab import VocabSpec

DATASET_FORMAT_VERSION = 1

# Angular half-width of the observation mask for 1/3/5 camera rigs.
FOV_1CAM = math.pi / 3.0
FOV_3CAM = 3.0 * math.pi / 4.0
FOV_5CAM = math.pi
DEFAULT_FOV = FOV_3CAM

TOKEN_KINDS = ("ego", "agent", "lane", "light", "boundary")
TOKEN_DIM = 7


class FormatVersionMismatch(ValueError):
    """Dataset file written by an incompatible format version."""


class GenerationFailed(RuntimeError):
    """Rejection sampling could not produce a valid scenario."""


class NoSafeTrajectory(RuntimeError):
    """Every vocabulary entry scores zero; the scenario is discarded."""


@dataclass(frozen=True)
class Agent:
    """A vehicle moving at constant velocity along its heading."""

    pose: Pose2
    speed: float  # [m/s]
    length: float = 4.6
    width: float = 1.9

    def __post_init__(self):
        if not 0.0 <= self.speed <= 20.0:
            raise ValueError(f"agent speed {self.speed} outside [0, 20]")

    def velocity(self) -> np.ndarray:
        return self.speed * np.array(
            [math.cos(self.pose.heading), math.sin(self.pose.heading)]
        )


@dataclass(frozen=True)
class TrafficLight:
    stop_line: tuple[Point2, Point2]
    state: str  # "red" or "green"

    def __post_init__(self):
        if self.state not in ("red", "green"):
            raise ValueError(f"unknown light state {self.state!r}")

    @property
    def is_red(self) -> bool:
        return self.state == "red"


@dataclass(frozen=True)
class EgoHistory:
    """Last half second of ego motion."""

    prev_position: Point2  # ego center one history step ago
    speed: float  # current speed [m/s]
    accel: float  # current longitudinal accel [m/s^2]


@dataclass(frozen=True)
class Lane:
    """Centerline polyline with an explicit tangent heading per point."""

    points: tuple[Point2, ...]
    directions: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) < 2 or len(self.points) != len(self.directions):
            raise ValueError("lane needs >= 2 points with matching directions")

    @cached_property
    def xy(self) -> np.ndarray:
        out = np.array([[p.x, p.y] for p in self.points], dtype=np.float64)
        out.setflags(write=False)
        return out

    @cached_property
    def dir_array(self) -> np.ndarray:
        out = np.array(self.directions, dtype=np.float64)
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class GenConfig:
    """Knobs of the procedural generator."""

    vocab: VocabSpec = field(default_factory=VocabSpec)
    turn_fraction: float = 0.08
    curve_fraction: float = 0.22
    tee_fraction: float = 0.18
    agent_count: int = 3  # hard cap; 0 disables all agents
    light_prob: float = 0.3
    red_prob: float = 0.7
    lead_prob: float = 0.55
    oncoming_prob: float = 0.5
    crossing_prob: float = 0.85
    # History comfort tolerates at most ~2 m/s of start-speed mismatch, so
    # the ego speed range stays below the band where every entry fails it.
    ego_speed_min: float = 2.0
    ego_speed_max: float = 8.0
    lane_width: float = 3.5
    road_length: float = 75.0
    road_back: float = 25.0
    # Gentle curvatures keep even the longest expert under a 30 degree
    # turning angle; sharp ones push every unobstructed expert past it.
    gentle_kappa_min: float = 0.004
    gentle_kappa_max: float = 0.0146
    turn_kappa_min: float = 0.04
    turn_kappa_max: float = 0.06
    stop_line_min: float = 14.0
    stop_line_max: float = 26.0
    max_scenario_attempts: int = 8


@dataclass(frozen=True)
class Scenario:
    seed: int
    kind: str
    ego_speed: float
    ego_history: EgoHistory
    agents: tuple[Agent, ...]
    drivable: tuple[ConvexPolygon, ...]  # quadrilaterals
    lanes: tuple[Lane, ...]
    route: tuple[Point2, ...]
    lights: tuple[TrafficLight, ...]
    expert: Trajectory | None = None

    def __post_init__(self):
        if len(self.route) < 2:
            raise ValueError("route needs at least 2 points")
        r0 = self.route[0]
        if math.hypot(r0.x, r0.y) > 1e-9:
            raise ValueError("route must start at the origin")
        if not self.drivable or not self.lanes:
            raise ValueError("scenario needs drivable cells and lanes")
        for i, cell in enumerate(self.drivable):
            if len(cell.vertices) != 4:
                raise ValueError(f"drivable cell {i} has {len(cell.vertices)} vertices, "
                                 "not the 4 of a quadrilateral")

    @cached_property
    def route_xy(self) -> np.ndarray:
        out = np.array([[p.x, p.y] for p in self.route], dtype=np.float64)
        out.setflags(write=False)
        return out

    @cached_property
    def route_cumlen(self) -> np.ndarray:
        seg = np.diff(self.route_xy, axis=0)
        out = np.concatenate([[0.0], np.cumsum(np.hypot(seg[:, 0], seg[:, 1]))])
        out.setflags(write=False)
        return out

    @cached_property
    def lane_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated (starts, ends, directions) over all lanes.

        A segment's direction is the stored heading of its start point, so
        lane orientation never depends on point ordering.
        """
        starts, ends, dirs = [], [], []
        for lane in self.lanes:
            xy = lane.xy
            starts.append(xy[:-1])
            ends.append(xy[1:])
            dirs.append(lane.dir_array[:-1])
        return (
            np.concatenate(starts, axis=0),
            np.concatenate(ends, axis=0),
            np.concatenate(dirs, axis=0),
        )

    @cached_property
    def drivable_geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A (C, 4, 2), b (C, 4), bounds (C, 4)) over the C drivable cells.

        Point p lies in cell c when all(A[c] @ p >= b[c]): A[c] holds the
        inward normals of the cell's edges. bounds[c] is its (xmin, ymin,
        xmax, ymax), a cheap prefilter.
        """
        c = len(self.drivable)
        v = np.fromiter((z for cell in self.drivable for p in cell.vertices for z in (p.x, p.y)),
                        np.float64, count=8 * c).reshape(c, 4, 2)
        e = np.roll(v, -1, axis=1) - v
        A = np.stack([-e[..., 1], e[..., 0]], axis=-1)
        bounds = np.concatenate([v.min(axis=1), v.max(axis=1)], axis=1)
        out = A, np.einsum("cij,cij->ci", A, v), bounds
        for a in out:
            a.setflags(write=False)
        return out


def sample_rotation(rng: np.random.Generator, theta_max: float) -> float:
    """Draw a rotation angle uniformly from [-theta_max, theta_max]."""
    return float(rng.uniform(-theta_max, theta_max))


def rotate_scenario(s: Scenario, theta: float) -> Scenario:
    """Re-express the scenario with the ego rotated left by `theta`.

    The world rotates by -theta about the origin; the ego stays at the
    identity pose. The expert trajectory is rigidly rotated rather than
    re-derived, matching how augmented training samples are built.
    """
    a = -theta
    origin = Point2(0.0, 0.0)

    def rp(p: Point2) -> Point2:
        return rotate_point(p, origin, a)

    agents = tuple(
        replace(ag, pose=Pose2(rp(ag.pose.position), ag.pose.heading + a))
        for ag in s.agents
    )
    drivable = tuple(
        ConvexPolygon(tuple(rp(v) for v in cell.vertices)) for cell in s.drivable
    )
    lanes = tuple(
        Lane(
            tuple(rp(p) for p in lane.points),
            tuple(normalize_angle(d + a) for d in lane.directions),
        )
        for lane in s.lanes
    )
    route = tuple(rp(p) for p in s.route)
    lights = tuple(
        TrafficLight((rp(l.stop_line[0]), rp(l.stop_line[1])), l.state) for l in s.lights
    )
    history = replace(s.ego_history, prev_position=rp(s.ego_history.prev_position))
    expert = rotate_trajectory(s.expert, a) if s.expert is not None else None
    return replace(
        s,
        agents=agents,
        drivable=drivable,
        lanes=lanes,
        route=route,
        lights=lights,
        ego_history=history,
        expert=expert,
    )


@dataclass(frozen=True)
class ObservationTokens:
    """Deterministic token set describing what the planner may see."""

    kinds: np.ndarray  # (T,) int, indices into TOKEN_KINDS
    features: np.ndarray  # (T, TOKEN_DIM) float64

    def __len__(self) -> int:
        return len(self.kinds)


def _nearest_visible(items, fov_halfangle: float, cap: int | None = None) -> list:
    """Features of the (point, features) items whose point lies in the mask.

    Keeps items with |bearing| <= fov_halfangle, ordered by (distance,
    bearing) with ties in input order, and at most `cap` of them.
    """
    kept = []
    for p, feat in items:
        bearing = math.atan2(p.y, p.x)
        if abs(bearing) <= fov_halfangle:
            kept.append((math.hypot(p.x, p.y), bearing, feat))
    kept.sort(key=lambda r: (r[0], r[1]))
    return [feat for _, _, feat in kept[:cap]]


def observe(
    s: Scenario,
    fov_halfangle: float = DEFAULT_FOV,
    max_lane_points: int = 12,
    max_boundary_points: int = 12,
) -> ObservationTokens:
    """Tokenize a scenario under an angular observation mask.

    Emits the ego state plus every agent/lane point/light/boundary point
    whose source position has |bearing| <= fov_halfangle. Lane and
    boundary points keep the nearest max_*_points. Tokens are ordered by
    (kind, distance, bearing) so the output is reproducible.
    """
    if not 0.0 < fov_halfangle <= math.pi:
        raise ValueError("fov_halfangle must lie in (0, pi]")
    # First vertex per position, in cell order. The key is exact, because a
    # corner two cells share holds the same floats in both: `_strip_cells`
    # takes it from one array element, `_build_arm` from one `ys` value and
    # the same x expression, rotation maps equal floats to equal floats and
    # JSON round-trips them. Other corners lie far apart (an arm corner
    # meets a road corner only if its random x falls on one), so a rounded
    # key would merge the same vertices.
    vertices = {}
    for cell in s.drivable:
        for v in cell.vertices:
            vertices.setdefault((v.x, v.y), v)
    blocks = (  # in TOKEN_KINDS order
        [(s.ego_speed, s.ego_history.accel)],
        _nearest_visible(
            ((ag.pose.position,
              (ag.pose.position.x, ag.pose.position.y, math.cos(ag.pose.heading),
               math.sin(ag.pose.heading), ag.speed, ag.length, ag.width))
             for ag in s.agents),
            fov_halfangle),
        _nearest_visible(
            ((p, (p.x, p.y, math.cos(d), math.sin(d)))
             for lane in s.lanes for p, d in zip(lane.points, lane.directions)),
            fov_halfangle, max_lane_points),
        _nearest_visible(
            ((Point2(0.5 * (a.x + b.x), 0.5 * (a.y + b.y)),
              (a.x, a.y, b.x, b.y, 1.0 if light.is_red else 0.0))
             for light in s.lights for a, b in (light.stop_line,)),
            fov_halfangle),
        _nearest_visible(((v, (v.x, v.y)) for v in vertices.values()),
                         fov_halfangle, max_boundary_points),
    )
    kinds = np.repeat(np.arange(len(blocks), dtype=np.int64), [len(b) for b in blocks])
    feats = np.zeros((len(kinds), TOKEN_DIM))
    for row, feat in zip(feats, (f for block in blocks for f in block)):
        row[: len(feat)] = feat
    kinds.setflags(write=False)
    feats.setflags(write=False)
    return ObservationTokens(kinds, feats)


# Serialization. Floats go through JSON untouched (repr round-trips exactly).


def _point(p: Point2) -> list:
    return [p.x, p.y]


def _traj_to_dict(t: Trajectory) -> dict:
    return {
        "waypoints": [_point(p) for p in t.waypoints],
        "dt": t.dt,
        "start": [t.start_pose.position.x, t.start_pose.position.y, t.start_pose.heading],
        "headings": list(t.headings),
    }


# The types JSON numbers parse to; true and false parse to bool.
_NUMBER_TYPES = frozenset((int, float))


def _num(d: dict, key: str):
    """d[key] when it is a number; ValueError naming the key otherwise.

    Points are left to Point2, which refuses any value that is not a real
    number.
    """
    v = d[key]
    if type(v) not in _NUMBER_TYPES:
        raise ValueError(f"{key!r} is not a number: {v!r}")
    return v


def _nums(d: dict, key: str) -> tuple:
    """d[key] as a tuple of numbers; ValueError naming the key otherwise."""
    if type(d[key]) is not list:
        raise ValueError(f"{key!r} is not a list: {d[key]!r}")
    vals = tuple(d[key])
    if not _NUMBER_TYPES.issuperset(map(type, vals)):
        bad = next(v for v in vals if type(v) not in _NUMBER_TYPES)
        raise ValueError(f"{key!r} holds a non-number: {bad!r}")
    return vals


def _traj_from_dict(d: dict) -> Trajectory:
    sx, sy, sh = _nums(d, "start")
    return Trajectory(
        tuple(Point2(x, y) for x, y in d["waypoints"]),
        _num(d, "dt"),
        Pose2(Point2(sx, sy), sh),
        _nums(d, "headings"),
    )


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "seed": s.seed,
        "kind": s.kind,
        "ego_speed": s.ego_speed,
        "ego_history": {
            "prev_position": _point(s.ego_history.prev_position),
            "speed": s.ego_history.speed,
            "accel": s.ego_history.accel,
        },
        "agents": [
            {
                "position": _point(a.pose.position),
                "heading": a.pose.heading,
                "speed": a.speed,
                "length": a.length,
                "width": a.width,
            }
            for a in s.agents
        ],
        "drivable": [[_point(v) for v in cell.vertices] for cell in s.drivable],
        "lanes": [
            {"points": [_point(p) for p in lane.points], "directions": list(lane.directions)}
            for lane in s.lanes
        ],
        "route": [_point(p) for p in s.route],
        "lights": [
            {"stop_line": [_point(l.stop_line[0]), _point(l.stop_line[1])], "state": l.state}
            for l in s.lights
        ],
        "expert": _traj_to_dict(s.expert) if s.expert is not None else None,
    }


def scenario_from_dict(d: dict) -> Scenario:
    hist = d["ego_history"]
    return Scenario(
        seed=_num(d, "seed"),
        kind=d["kind"],
        ego_speed=_num(d, "ego_speed"),
        ego_history=EgoHistory(
            Point2(*hist["prev_position"]), _num(hist, "speed"), _num(hist, "accel")
        ),
        agents=tuple(
            Agent(
                Pose2(Point2(*a["position"]), _num(a, "heading")),
                _num(a, "speed"),
                _num(a, "length"),
                _num(a, "width"),
            )
            for a in d["agents"]
        ),
        drivable=tuple(
            ConvexPolygon(tuple(Point2(x, y) for x, y in cell)) for cell in d["drivable"]
        ),
        lanes=tuple(
            Lane(tuple(Point2(x, y) for x, y in lane["points"]), _nums(lane, "directions"))
            for lane in d["lanes"]
        ),
        route=tuple(Point2(x, y) for x, y in d["route"]),
        lights=tuple(
            TrafficLight(
                (Point2(*l["stop_line"][0]), Point2(*l["stop_line"][1])), l["state"]
            )
            for l in d["lights"]
        ),
        expert=_traj_from_dict(d["expert"]) if d["expert"] is not None else None,
    )


@dataclass(frozen=True)
class DatasetRecord:
    split: str  # "train" or "test"
    scenario: Scenario

    def __post_init__(self):
        if self.split not in ("train", "test"):
            raise ValueError(f"split {self.split!r} is neither 'train' nor 'test'")


@dataclass
class DatasetFile:
    gen_config: GenConfig
    seed_range: tuple[int, int] | None
    records: list[DatasetRecord]
    sha256: str = ""

    def split(self, name: str) -> list[Scenario]:
        return [r.scenario for r in self.records if r.split == name]


def save_dataset(
    path,
    records: list[DatasetRecord],
    gen_config: GenConfig,
    seed_range: tuple[int, int] | None = None,
) -> str:
    """Write a line-delimited dataset file; returns its sha256 digest."""
    header = {
        "format_version": DATASET_FORMAT_VERSION,
        "gen_config": asdict(gen_config),
        "seed_range": list(seed_range) if seed_range is not None else None,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for rec in records:
        lines.append(
            json.dumps({"split": rec.split, "scenario": scenario_to_dict(rec.scenario)},
                       sort_keys=True)
        )
    blob = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(blob)
    return hashlib.sha256(blob).hexdigest()


def load_dataset(path) -> DatasetFile:
    """Read a dataset file.

    An empty file or a foreign format version raises FormatVersionMismatch
    naming the file. A line that is not UTF-8 or not valid JSON, lacks a
    key, holds a non-number where a number belongs or names a split other
    than train and test raises ValueError naming the file and the line, and
    so does a header whose `gen_config` lacks a setting or has an unknown one.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        lines = blob.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        line = blob.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{path} line {line}: {e}") from None
    if not lines:
        raise FormatVersionMismatch(f"{path}: empty dataset file")
    n = 1  # the line being read, 1-based
    try:
        header = json.loads(lines[0])
        version = header.get("format_version")
        if version != DATASET_FORMAT_VERSION:
            raise FormatVersionMismatch(
                f"{path}: dataset format {version!r}, expected {DATASET_FORMAT_VERSION}"
            )
        gen = header["gen_config"]
        for name, d, cls in (("gen_config", gen, GenConfig),
                             ("gen_config.vocab", gen["vocab"], VocabSpec)):
            if missing := {f.name for f in fields(cls)} - set(d):
                raise ValueError(f"missing {name} key {', '.join(sorted(missing))}")
        gen_config = GenConfig(**{**gen, "vocab": VocabSpec(**gen["vocab"])})
        rng = header.get("seed_range")
        seed_range = tuple(rng) if rng is not None else None
        records = []
        for n, line in enumerate(lines[1:], start=2):
            if line.strip():
                d = json.loads(line)
                records.append(DatasetRecord(d["split"], scenario_from_dict(d["scenario"])))
    except FormatVersionMismatch:
        raise
    except KeyError as e:
        raise ValueError(f"{path} line {n}: missing key {e}") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise ValueError(f"{path} line {n}: {e}") from None
    return DatasetFile(
        gen_config=gen_config,
        seed_range=seed_range,
        records=records,
        sha256=hashlib.sha256(blob).hexdigest(),
    )
