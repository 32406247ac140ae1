"""Fixed trajectory vocabulary: constant-curvature arcs with trapezoidal speed profiles.

Entries are scenario independent. The grid is curvature-major, then target
speed, then accel shape, so cell = (ik * n_speed + iv) * n_accel + ia. A
stop shape brakes before it reaches a high target speed, so several cells
can hold the same trajectory; the vocabulary keeps each trajectory once, at
its first cell, and its entries follow cell order.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .geom import IDENTITY_POSE, MAX_SPEED, Point2, Trajectory, normalize_angles

KAPPA_LIMIT = 0.2  # [1/m] kinematic feasibility bound
DISTANCE_SCALE = 3.0  # [m] scale of the normalized-distance squash

# Canonical accel shapes: (ramp [m/s^2], stop fraction of horizon or None).
# Cruise shapes ramp to the target speed and hold; stop shapes brake back to
# zero so the speed trace is a trapezoid ending at the given fraction of the
# horizon. Ramp 24 is effectively a step and is deliberately uncomfortable.
# Ordered so every prefix mixes cruise and stop shapes; smaller grids take
# a prefix.
ACCEL_SHAPES: tuple[tuple[float, float | None], ...] = (
    (3.0, None),
    (24.0, None),
    (3.0, 0.94),
    (6.0, 0.75),
    (1.5, None),
    (6.0, None),
    (1.5, 0.94),
    (6.0, 0.94),
)


@dataclass(frozen=True)
class VocabSpec:
    """Grid specification for the vocabulary."""

    n_curvature: int = 64
    n_speed: int = 16
    n_accel: int = 8
    kappa_max: float = KAPPA_LIMIT
    v_max: float = MAX_SPEED
    dt: float = 0.5
    horizon: float = 4.0

    def __post_init__(self):
        if min(self.n_curvature, self.n_speed, self.n_accel) < 1:
            raise ValueError("grid dimensions must be positive")
        if self.n_accel > len(ACCEL_SHAPES):
            raise ValueError(f"at most {len(ACCEL_SHAPES)} accel shapes available")
        if not 0.0 < self.kappa_max <= KAPPA_LIMIT:
            raise ValueError(f"kappa_max must lie in (0, {KAPPA_LIMIT}]")
        if not 0.0 < self.v_max <= MAX_SPEED:
            raise ValueError(f"v_max must lie in (0, {MAX_SPEED}]")
        if self.dt <= 0 or self.horizon <= 0:
            raise ValueError("dt and horizon must be positive")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon must be an integer number of steps")

    @property
    def size(self) -> int:
        """Grid cells; cells that repeat an earlier cell's trajectory hold no entry."""
        return self.n_curvature * self.n_speed * self.n_accel

    @property
    def n_waypoints(self) -> int:
        return int(round(self.horizon / self.dt))


def curvature_levels(spec: VocabSpec) -> np.ndarray:
    """Signed curvature levels, quadratically spaced and mirror symmetric.

    kappa = kappa_max * u * |u| with u uniform on [-1, 1] concentrates
    resolution near straight driving while keeping the set closed under
    y-negation. Even counts contain no exact zero; odd counts do.
    """
    n = spec.n_curvature
    if n == 1:
        return np.zeros(1)
    # Integer-symmetric grid: u[n-1-i] is the exact negation of u[i].
    u = (2.0 * np.arange(n, dtype=np.float64) - (n - 1)) / (n - 1)
    return spec.kappa_max * u * np.abs(u)


def speed_levels(spec: VocabSpec) -> np.ndarray:
    """Target speeds v_max * (i+1)/n, excluding zero.

    A stop shape brakes before it reaches a high target speed, so those
    targets repeat a lower target's trajectory; the vocabulary drops such
    cells (128 of 512 desk, 2 504 of 8 192 paper).
    """
    return spec.v_max * (np.arange(spec.n_speed, dtype=np.float64) + 1.0) / spec.n_speed


def profile_speed(t: np.ndarray, v_target: float, ramp: float, stop_frac: float | None,
                  horizon: float) -> np.ndarray:
    """Instantaneous speed of a trapezoidal profile starting from rest."""
    t = np.asarray(t, dtype=np.float64)
    v = np.minimum(ramp * t, v_target)
    if stop_frac is not None:
        t_stop = stop_frac * horizon
        v = np.minimum(v, ramp * (t_stop - t))
    return np.maximum(v, 0.0)


def _profile_arclength(times: np.ndarray, v_target: float, ramp: float,
                       stop_frac: float | None, horizon: float) -> np.ndarray:
    """Exact arc length at the given times.

    The speed trace is piecewise linear; integrating on a grid that
    contains every kink makes the trapezoid rule exact.
    """
    kinks = [0.0, v_target / ramp]
    if stop_frac is not None:
        t_stop = stop_frac * horizon
        kinks += [t_stop - v_target / ramp, 0.5 * t_stop, t_stop]
    kinks = [k for k in kinks if 0.0 < k < horizon]
    grid = np.unique(np.concatenate([np.asarray(times), np.asarray(kinks), [0.0]]))
    v = profile_speed(grid, v_target, ramp, stop_frac, horizon)
    s = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(grid))])
    idx = np.searchsorted(grid, times)
    return s[idx]


def arc_positions(kappa: float, arclens: np.ndarray) -> np.ndarray:
    """Points along a constant-curvature arc from the origin, heading +x.

    Shape (len(arclens), 2). The y component uses the half-angle form so
    mirrored curvatures negate exactly.
    """
    s = np.asarray(arclens, dtype=np.float64)
    if kappa == 0.0:
        return np.stack([s, np.zeros_like(s)], axis=-1)
    x = np.sin(kappa * s) / kappa
    y = 2.0 * np.sin(0.5 * kappa * s) ** 2 / kappa
    return np.stack([x, y], axis=-1)


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first index of each distinct row, distinct number of every row).

    Rows of a 2-D float64 array match on their bytes, so +0.0 and -0.0
    never merge; distinct rows are numbered in `np.unique` order.
    """
    keys = np.ascontiguousarray(rows).view(np.uint64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


class TrajectoryVocabulary:
    """The distinct entries of a grid, with dense arrays for batch scoring."""

    def __init__(self, spec: VocabSpec):
        self.spec = spec
        self.kappas = curvature_levels(spec)
        self.speeds = speed_levels(spec)
        L = spec.n_waypoints
        times = (np.arange(L, dtype=np.float64) + 1.0) * spec.dt

        n_prof = spec.n_speed * spec.n_accel
        arclens = np.empty((n_prof, L), dtype=np.float64)
        for iv, v in enumerate(self.speeds):
            for ia, (ramp, stop_frac) in enumerate(ACCEL_SHAPES[: spec.n_accel]):
                p = iv * spec.n_accel + ia
                arclens[p] = _profile_arclength(times, v, ramp, stop_frac, spec.horizon)

        N = spec.size
        positions = np.empty((N, L, 2), dtype=np.float64)
        headings = np.empty((N, L), dtype=np.float64)
        for ik, kappa in enumerate(self.kappas):
            base = ik * n_prof
            positions[base : base + n_prof] = arc_positions(
                kappa, arclens.reshape(-1)
            ).reshape(n_prof, L, 2)
            headings[base : base + n_prof] = normalize_angles(kappa * arclens)
        # Each trajectory once, at its first cell: entry i lies in cell _cells[i].
        first, _ = distinct_rows(np.concatenate([positions.reshape(N, -1), headings], axis=1))
        self._cells = np.sort(first)
        self.positions, self.headings = positions[self._cells], headings[self._cells]
        for arr in (self._cells, self.positions, self.headings):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def n_waypoints(self) -> int:
        return self.spec.n_waypoints

    @property
    def dt(self) -> float:
        return self.spec.dt

    def grid_index(self, i: int) -> tuple[int, int, int]:
        """(curvature, speed, accel) levels of entry i's cell."""
        ik, rest = divmod(int(self._cells[i]), self.spec.n_speed * self.spec.n_accel)
        iv, ia = divmod(rest, self.spec.n_accel)
        return ik, iv, ia

    def entry(self, i: int) -> Trajectory:
        if not 0 <= i < len(self):
            raise IndexError(f"entry {i} out of range for vocabulary of {len(self)}")
        wps = tuple(Point2(float(x), float(y)) for x, y in self.positions[i])
        heads = tuple(float(h) for h in self.headings[i])
        return Trajectory(wps, self.spec.dt, IDENTITY_POSE, heads)

    @property
    def flat_waypoints(self) -> np.ndarray:
        """Read-only view of the waypoints flattened per entry, (N, 2L); model input."""
        return self.positions.reshape(len(self), -1)

    @cached_property
    def digest(self) -> str:
        """sha256 of the grid settings and the entries' bytes; label sidecars
        and checkpoints record it, so a change to how entries are built from
        a spec refuses what was made before it."""
        text = ";".join("%s=%r" % kv for kv in sorted(asdict(self.spec).items()))
        h = hashlib.sha256(text.encode("utf-8"))
        h.update(self.positions.tobytes())
        h.update(self.headings.tobytes())
        return h.hexdigest()


_vocabularies: dict[VocabSpec, TrajectoryVocabulary] = {}


def build_vocabulary(spec: VocabSpec) -> TrajectoryVocabulary:
    """The vocabulary of a grid spec, built once per spec (the default
    64x16x8 = 8192 cells give 5 688 entries)."""
    v = _vocabularies.get(spec)
    if v is None:
        v = _vocabularies.setdefault(spec, TrajectoryVocabulary(spec))
    return v


def l2_to_entries(positions: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """RMS waypoint distance from each entry to a reference path.

    positions: (N, L, 2) entry waypoints; xy: (L, 2) reference waypoints.
    """
    if positions.shape[1:] != xy.shape:
        raise ValueError(f"waypoint grids differ: {positions.shape[1:]} vs {xy.shape}")
    d = positions - xy[None, :, :]
    return np.sqrt(np.mean(np.sum(d * d, axis=-1), axis=-1))


def normalized_distance(d: float | np.ndarray):
    """Map a distance to (0, 1] via exp(-(d/DISTANCE_SCALE)^2); 1 at zero."""
    d = np.asarray(d, dtype=np.float64)
    out = np.exp(-((d / DISTANCE_SCALE) ** 2))
    return float(out) if out.ndim == 0 else out
