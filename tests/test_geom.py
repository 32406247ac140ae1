import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajsel.geom import (
    IDENTITY_POSE,
    ConvexPolygon,
    DegenerateTrajectory,
    Point2,
    Pose2,
    Trajectory,
    footprint,
    normalize_angle,
    normalize_angles,
    oriented_rect_corners,
    point_in_region,
    polygons_intersect,
    rotate_point,
    rotate_trajectory,
    turning_angle,
)

angles = st.floats(-50.0, 50.0, allow_nan=False)


def make_traj(points, dt=0.5, heading=0.0, start=(0.0, 0.0)):
    return Trajectory(
        tuple(Point2(x, y) for x, y in points),
        dt,
        Pose2(Point2(*start), heading),
        (heading,) * len(points),
    )


class TestAngles:
    @given(angles)
    def test_normalize_range(self, a):
        n = normalize_angle(a)
        assert -math.pi < n <= math.pi

    @given(angles)
    def test_normalize_idempotent(self, a):
        n = normalize_angle(a)
        assert normalize_angle(n) == pytest.approx(n, abs=1e-12)

    @given(angles)
    def test_normalize_preserves_direction(self, a):
        n = normalize_angle(a)
        assert math.cos(n) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(n) == pytest.approx(math.sin(a), abs=1e-9)

    def test_array_form_matches_scalar(self):
        arr = np.linspace(-20, 20, 101)
        out = normalize_angles(arr)
        for a, n in zip(arr, out):
            assert n == pytest.approx(normalize_angle(float(a)), abs=1e-12)


class TestPoints:
    def test_distance(self):
        assert Point2(0, 0).distance_to(Point2(3, 4)) == 5.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Point2(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Pose2(Point2(0, 0), float("inf"))

    def test_pose_normalizes_heading(self):
        p = Pose2(Point2(0, 0), 3 * math.pi)
        assert p.heading == pytest.approx(math.pi)


class TestRotation:
    @given(angles, st.floats(-5, 5), st.floats(-5, 5))
    def test_rotate_point_preserves_radius(self, theta, x, y):
        c = Point2(1.0, -2.0)
        p = Point2(x, y)
        q = rotate_point(p, c, theta)
        assert c.distance_to(q) == pytest.approx(c.distance_to(p), abs=1e-9)

    def test_rotate_point_quarter_turn(self):
        q = rotate_point(Point2(1, 0), Point2(0, 0), math.pi / 2)
        assert (q.x, q.y) == (pytest.approx(0, abs=1e-12), pytest.approx(1))

    def test_rotate_trajectory_round_trip(self):
        t = make_traj([(1, 0), (2, 0.5), (3, 1.5)])
        back = rotate_trajectory(rotate_trajectory(t, 0.7), -0.7)
        assert np.allclose(back.xy, t.xy, atol=1e-12)
        assert back.start_pose.heading == pytest.approx(0.0, abs=1e-12)

    def test_rotate_trajectory_moves_headings(self):
        t = make_traj([(1, 0), (2, 0)])
        r = rotate_trajectory(t, 0.3)
        assert r.heading_array[0] == pytest.approx(t.heading_array[0] + 0.3)


class TestTrajectory:
    def test_requires_two_waypoints(self):
        with pytest.raises(ValueError):
            make_traj([(1, 0)])

    def test_rejects_teleports(self):
        # 15 m/s at dt=0.5 allows 7.5 m steps; 8 m is out
        with pytest.raises(ValueError):
            make_traj([(8.0, 0), (9.0, 0)])

    def test_headings_one_per_waypoint(self):
        with pytest.raises(ValueError, match="headings length"):
            Trajectory((Point2(1, 0), Point2(2, 0)), 0.5, IDENTITY_POSE, (0.0,))

    def test_horizon_and_final(self):
        t = make_traj([(1, 0), (2, 0), (3, 0)], dt=0.5)
        assert len(t) * t.dt == pytest.approx(1.5)
        assert t.final_point() == Point2(3, 0)

    def test_xy_is_write_protected(self):
        t = make_traj([(1, 0), (2, 0)])
        with pytest.raises(ValueError):
            t.xy[0, 0] = 9.0


class TestTurningAngle:
    def test_straight_is_zero(self):
        assert turning_angle(make_traj([(1, 0), (2, 0)])) == pytest.approx(0.0)

    def test_left_is_positive(self):
        assert turning_angle(make_traj([(1, 0.2), (1.5, 1.5)])) > 0

    def test_right_is_negative(self):
        assert turning_angle(make_traj([(1, -0.2), (1.5, -1.5)])) < 0

    def test_ninety_degrees(self):
        t = make_traj([(0.0, 1.0), (0.0, 2.0)])
        assert turning_angle(t) == pytest.approx(90.0)

    def test_respects_start_heading(self):
        t = make_traj([(0.0, 1.0), (0.0, 2.0)], heading=math.pi / 2)
        assert turning_angle(t) == pytest.approx(0.0)

    def test_degenerate_raises(self):
        t = Trajectory(
            (Point2(0.01, 0.0), Point2(0.02, 0.0)), 0.5, IDENTITY_POSE, (0.0, 0.0)
        )
        with pytest.raises(DegenerateTrajectory):
            turning_angle(t)

    @given(angles)
    def test_rotation_shifts_angle(self, theta):
        t = make_traj([(1, 0.3), (2, 0.8)])
        base = turning_angle(t)
        rot = turning_angle(rotate_trajectory(t, theta))
        # both the bearing and the start heading rotate: angle is invariant
        assert rot == pytest.approx(base, abs=1e-9)


class TestPolygons:
    def test_ccw_enforced(self):
        with pytest.raises(ValueError):
            ConvexPolygon((Point2(0, 0), Point2(0, 1), Point2(1, 0)))

    def test_contains(self):
        sq = ConvexPolygon(
            (Point2(0, 0), Point2(2, 0), Point2(2, 2), Point2(0, 2))
        )
        assert sq.contains(Point2(1, 1))
        assert not sq.contains(Point2(3, 1))

    def test_point_in_region(self):
        cells = [
            ConvexPolygon((Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1))),
            ConvexPolygon((Point2(2, 0), Point2(3, 0), Point2(3, 1), Point2(2, 1))),
        ]
        assert point_in_region(Point2(2.5, 0.5), cells)
        assert not point_in_region(Point2(1.5, 0.5), cells)

    def test_footprint_dimensions(self):
        fp = footprint(Pose2(Point2(0, 0), 0.0), 4.6, 1.9)
        xs = [v.x for v in fp.vertices]
        ys = [v.y for v in fp.vertices]
        assert max(xs) - min(xs) == pytest.approx(4.6)
        assert max(ys) - min(ys) == pytest.approx(1.9)

    def test_disjoint_rects(self):
        a = footprint(Pose2(Point2(0, 0), 0.0), 4.0, 2.0)
        b = footprint(Pose2(Point2(10, 0), 0.0), 4.0, 2.0)
        assert not polygons_intersect(a, b)
        assert polygons_intersect(a, a)

    def test_touching_rects_intersect(self):
        a = footprint(Pose2(Point2(0, 0), 0.0), 4.0, 2.0)
        b = footprint(Pose2(Point2(4.0, 0), 0.0), 4.0, 2.0)
        assert polygons_intersect(a, b)

    @given(angles, st.floats(-3, 3), st.floats(-3, 3))
    def test_sat_matches_separation_heuristic(self, theta, dx, dy):
        # compare SAT against a dense interior point sample of b
        a = footprint(Pose2(Point2(0, 0), theta), 4.0, 2.0)
        b = footprint(Pose2(Point2(dx, dy), -theta), 4.0, 2.0)
        hit = polygons_intersect(a, b)
        # sample a grid of points of b; if any is inside a, SAT must agree
        pts = np.linspace(0, 1, 9)
        corners = b.array
        inside_any = False
        for u in pts:
            for v in pts:
                p = (
                    corners[0] * (1 - u) * (1 - v)
                    + corners[1] * u * (1 - v)
                    + corners[3] * (1 - u) * v
                    + corners[2] * u * v
                )
                if a.contains(Point2(float(p[0]), float(p[1]))):
                    inside_any = True
                    break
            if inside_any:
                break
        if inside_any:
            assert hit

    def test_oriented_rect_corners_matches_footprint(self):
        rng = np.random.default_rng(5)
        centers = rng.uniform(-40.0, 40.0, size=(3, 5, 2))
        heads = rng.uniform(-math.pi, math.pi, size=(3, 5))
        centers[0, 0], heads[0, 0] = (1.0, 2.0), 0.6
        heads[1, :3] = (0.0, math.pi / 2, math.pi)
        got = oriented_rect_corners(centers, heads, 4.6, 1.9)
        assert got.shape == (3, 5, 4, 2)
        for b in range(3):
            for t in range(5):
                pose = Pose2(Point2(*centers[b, t]), float(heads[b, t]))
                want = footprint(pose, 4.6, 1.9).array
                assert np.allclose(got[b, t], want, atol=1e-12)
