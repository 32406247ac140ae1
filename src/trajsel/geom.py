"""Planar geometry: points, poses, timed trajectories, convex regions.

Frame convention: x forward, y left, angles counterclockwise-positive,
headings normalized to (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TAU = 2.0 * math.pi
MAX_SPEED = 15.0  # [m/s] kinematic bound shared with the trajectory vocabulary
MIN_TURN_DISPLACEMENT = 0.1  # [m] below this a turning angle is undefined
_SPACING_SLACK = 1e-9


class DegenerateTrajectory(ValueError):
    """Raised when total displacement is too small for a turning angle."""


def normalize_angle(angle: float) -> float:
    """Wrap an angle in radians to (-pi, pi]."""
    return angle - TAU * math.ceil((angle - math.pi) / TAU)


def normalize_angles(angles: np.ndarray) -> np.ndarray:
    """Vectorized `normalize_angle`."""
    a = np.asarray(angles, dtype=np.float64)
    return a - TAU * np.ceil((a - math.pi) / TAU)


@dataclass(frozen=True)
class Point2:
    """A point in the plane, meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=np.float64)


@dataclass(frozen=True)
class Pose2:
    """Position plus heading; heading is normalized on construction."""

    position: Point2
    heading: float

    def __post_init__(self):
        if not math.isfinite(self.heading):
            raise ValueError(f"non-finite heading {self.heading}")
        object.__setattr__(self, "heading", normalize_angle(self.heading))


IDENTITY_POSE = Pose2(Point2(0.0, 0.0), 0.0)


@dataclass(frozen=True)
class Trajectory:
    """Waypoints sampled at a fixed time step from a start pose.

    Waypoints exclude the start position: waypoint j sits at time (j+1)*dt.
    `headings` carries the tangent heading at each waypoint.
    """

    waypoints: tuple[Point2, ...]
    dt: float
    start_pose: Pose2
    headings: tuple[float, ...]

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("trajectory needs at least 2 waypoints")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"bad dt {self.dt}")
        if len(self.headings) != len(self.waypoints):
            raise ValueError("headings length must match waypoints")
        pts = [self.start_pose.position] + list(self.waypoints)
        limit = MAX_SPEED * self.dt + _SPACING_SLACK
        for a, b in zip(pts, pts[1:]):
            if a.distance_to(b) > limit:
                raise ValueError(
                    f"waypoint spacing {a.distance_to(b):.3f} m exceeds "
                    f"max {limit:.3f} m at dt={self.dt}"
                )

    def __len__(self) -> int:
        return len(self.waypoints)

    @cached_property
    def xy(self) -> np.ndarray:
        """Waypoint coordinates, shape (len, 2)."""
        out = np.array([[p.x, p.y] for p in self.waypoints], dtype=np.float64)
        out.setflags(write=False)
        return out

    @cached_property
    def heading_array(self) -> np.ndarray:
        """Per-waypoint headings, normalized."""
        out = normalize_angles(np.array(self.headings, dtype=np.float64))
        out.setflags(write=False)
        return out

    def final_point(self) -> Point2:
        return self.waypoints[-1]


def rotate_point(p: Point2, center: Point2, angle: float) -> Point2:
    """Rotate `p` about `center` by `angle` (CCW positive)."""
    c, s = math.cos(angle), math.sin(angle)
    dx, dy = p.x - center.x, p.y - center.y
    return Point2(center.x + c * dx - s * dy, center.y + s * dx + c * dy)


def rotate_trajectory(t: Trajectory, angle: float) -> Trajectory:
    """Rigidly rotate a trajectory by `angle` about its start position.

    Waypoints rotate about the start point; the start heading and the
    per-waypoint headings shift by the same angle. dt is unchanged.
    """
    center = t.start_pose.position
    wps = tuple(rotate_point(p, center, angle) for p in t.waypoints)
    heads = tuple(normalize_angle(h + angle) for h in t.headings)
    pose = Pose2(center, t.start_pose.heading + angle)
    return Trajectory(wps, t.dt, pose, heads)


def turning_angle(t: Trajectory) -> float:
    """Signed angle, degrees in (-180, 180], positive left.

    Measured between the start heading and the bearing from the start
    position to the final waypoint.

    Raises DegenerateTrajectory when the displacement is under 0.1 m.
    """
    start = t.start_pose.position
    end = t.final_point()
    dx, dy = end.x - start.x, end.y - start.y
    if math.hypot(dx, dy) < MIN_TURN_DISPLACEMENT:
        raise DegenerateTrajectory(
            f"displacement {math.hypot(dx, dy):.4f} m below {MIN_TURN_DISPLACEMENT} m"
        )
    rel = normalize_angle(math.atan2(dy, dx) - t.start_pose.heading)
    return math.degrees(rel)


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon with counterclockwise vertices."""

    vertices: tuple[Point2, ...]

    def __post_init__(self):
        n = len(self.vertices)
        if n < 3:
            raise ValueError("polygon needs at least 3 vertices")
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            c = self.vertices[(i + 2) % n]
            cross = (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x)
            if cross <= 0.0:
                raise ValueError("vertices must be strictly convex and CCW")

    @cached_property
    def array(self) -> np.ndarray:
        out = np.array([[p.x, p.y] for p in self.vertices], dtype=np.float64)
        out.setflags(write=False)
        return out

    @cached_property
    def edges(self) -> np.ndarray:
        """Edge vectors, one row per vertex."""
        v = self.array
        out = np.roll(v, -1, axis=0) - v
        out.setflags(write=False)
        return out

    def contains(self, p: Point2) -> bool:
        """Closed-region test: boundary points count as inside."""
        v = self.array
        e = self.edges
        rx = p.x - v[:, 0]
        ry = p.y - v[:, 1]
        return bool(np.all(e[:, 0] * ry - e[:, 1] * rx >= 0.0))


def footprint(pose: Pose2, length: float, width: float) -> ConvexPolygon:
    """Oriented rectangle centered on the pose, aligned with its heading."""
    if length <= 0 or width <= 0:
        raise ValueError("footprint needs positive extents")
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    hl, hw = 0.5 * length, 0.5 * width
    px, py = pose.position.x, pose.position.y
    local = [(hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)]  # FL, RL, RR, FR: CCW
    return ConvexPolygon(
        tuple(Point2(px + c * lx - s * ly, py + s * lx + c * ly) for lx, ly in local)
    )


def _project_interval(vertices: np.ndarray, axis: np.ndarray) -> tuple[float, float]:
    proj = vertices @ axis
    return float(proj.min()), float(proj.max())


def polygons_intersect(a: ConvexPolygon, b: ConvexPolygon) -> bool:
    """Convex overlap via separating axes; shared boundary counts as overlap."""
    va, vb = a.array, b.array
    for poly in (a, b):
        for ex, ey in poly.edges:
            axis = np.array([-ey, ex])
            lo_a, hi_a = _project_interval(va, axis)
            lo_b, hi_b = _project_interval(vb, axis)
            if hi_a < lo_b or hi_b < lo_a:
                return False
    return True


def point_in_region(p: Point2, cells: tuple[ConvexPolygon, ...] | list[ConvexPolygon]) -> bool:
    """Membership in a union of convex cells (closed regions)."""
    return any(cell.contains(p) for cell in cells)


def oriented_rect_corners(
    centers: np.ndarray, headings: np.ndarray, length: float, width: float
) -> np.ndarray:
    """Corners of oriented rectangles; shape centers.shape[:-1] + (4, 2).

    Corner order matches `footprint` (FL, RL, RR, FR). Each corner is
    center + (c*lx - s*ly, s*lx + c*ly) for its local offset (lx, ly), the
    two products summed before the center is added.
    """
    hl, hw = 0.5 * length, 0.5 * width
    headings = np.asarray(headings, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    c, s = np.cos(headings), np.sin(headings)
    a, b = c * hl, s * hw  # x offset terms
    e, f = s * hl, c * hw  # y offset terms
    px, py = centers[..., 0], centers[..., 1]
    out = np.empty(np.broadcast_shapes(px.shape, c.shape) + (4, 2))
    out[..., 0, 0] = px + (a - b)
    out[..., 0, 1] = py + (e + f)
    out[..., 1, 0] = px + (-a - b)
    out[..., 1, 1] = py + (f - e)
    out[..., 2, 0] = px + (b - a)
    out[..., 2, 1] = py + (-e - f)
    out[..., 3, 0] = px + (a + b)
    out[..., 3, 1] = py + (e - f)
    return out
