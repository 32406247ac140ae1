import dataclasses
import gc
import math
import sys
import tracemalloc
import types
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajsel import evaluator, harness
from trajsel.evaluator import (
    DEFAULT_EVAL_CONFIG,
    METRICS,
    EvaluatorConfig,
    LabelCacheMismatch,
    LabelSet,
    aggregate,
    expert_trajectory,
    label_vocabulary,
    load_labels,
    save_labels,
    subscores,
)
from trajsel.geom import (
    IDENTITY_POSE,
    ConvexPolygon,
    Point2,
    Pose2,
    Trajectory,
    footprint,
    polygons_intersect,
    rotate_trajectory,
)
from trajsel.generator import generate_scenario
from trajsel.planner import ForwardPass
from trajsel.scenario import (
    Agent,
    EgoHistory,
    GenConfig,
    Lane,
    NoSafeTrajectory,
    Scenario,
    TrafficLight,
    rotate_scenario,
)
from trajsel.vocab import TrajectoryVocabulary, VocabSpec, build_vocabulary

CFG = DEFAULT_EVAL_CONFIG


def straight_traj(speed, n=8, dt=0.5, y=0.0, heading=0.0):
    pts = tuple(Point2(speed * dt * (j + 1), y) for j in range(n))
    return Trajectory(pts, dt, IDENTITY_POSE, tuple(heading for _ in range(n)))


def straight_scenario(agents=(), lights=(), ego_speed=5.0, expert=None):
    """A flat 10.5 m wide road along +x with a single centerline lane."""
    xs = np.linspace(-25.0, 85.0, 23)
    lane = Lane(
        tuple(Point2(float(x), 0.0) for x in xs), tuple(0.0 for _ in xs)
    )
    cell = ConvexPolygon(
        (
            Point2(-25.0, -5.25),
            Point2(85.0, -5.25),
            Point2(85.0, 5.25),
            Point2(-25.0, 5.25),
        )
    )
    if expert is None:
        expert = straight_traj(ego_speed)
    return Scenario(
        seed=0,
        kind="straight",
        ego_speed=ego_speed,
        ego_history=EgoHistory(
            prev_position=Point2(-0.5 * ego_speed, 0.0),
            speed=ego_speed,
            accel=0.0,
        ),
        agents=tuple(agents),
        drivable=(cell,),
        lanes=(lane,),
        route=(Point2(0.0, 0.0), Point2(80.0, 0.0)),
        lights=tuple(lights),
        expert=expert,
    )


def as_vector(sub):
    """A subscore dict as an array in METRICS order."""
    return np.array([sub[m] for m in METRICS])


def max_reference_scores(s, vocab, cfg=CFG):
    """(subscores, progress, v2 aggregates) of every entry, with progress
    relative to the best penalty-clean entry's, as the expert search
    scores them."""
    mat, progress = evaluator._score_arrays(s, evaluator._vocabulary_rows(vocab, cfg))
    pens = [METRICS.index(m) for m in ("nc", "dac", "ddc", "tlc")]
    clean = np.all(mat[:, pens] == 1.0, axis=1)
    ref = progress[clean].max() if clean.any() else progress.max()
    ep = np.clip(progress / ref, 0.0, 1.0) if ref >= cfg.ep_min_ref_progress else 1.0
    mat[:, METRICS.index("ep")] = ep
    return mat, progress, evaluator._aggregate_matrix(mat, cfg, "v2")


metric_dicts = st.lists(
    st.floats(0.0, 1.0), min_size=len(METRICS), max_size=len(METRICS)
).map(lambda vals: dict(zip(METRICS, vals)))


class TestAggregate:
    def test_all_ones_is_one(self):
        ones = dict.fromkeys(METRICS, 1.0)
        assert aggregate(ones, version="v1") == 1.0
        assert aggregate(ones, version="v2") == 1.0

    def test_v1_weighted_average(self):
        # perfect penalties, average = (5 ep + 5 ttc + 2 c) / 12
        sub = dict.fromkeys(METRICS, 1.0)
        sub.update(ep=0.875, ttc=1.0, c=0.999)
        want = (5 * 0.875 + 5 * 1.0 + 2 * 0.999) / 12.0
        assert aggregate(sub, version="v1") == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.948, abs=5e-4)

    def test_v1_published_row_value(self):
        # the often-quoted row (97.7, 92.8, 79.2, 92.8, 100) aggregates to
        # 80.09, not to the 84.0 sometimes attached to it; pin the honest
        # value so the formula cannot drift toward the misquote
        sub = dict.fromkeys(METRICS, 1.0)
        sub.update(nc=0.977, dac=0.928, ep=0.792, ttc=0.928, c=1.0)
        want = 0.977 * 0.928 * (5 * 0.792 + 5 * 0.928 + 2 * 1.0) / 12.0
        got = aggregate(sub, version="v1")
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.80088, abs=5e-6)
        assert abs(got - 0.84) > 0.03

    def test_v2_weighted_average(self):
        sub = {
            "nc": 0.9,
            "dac": 1.0,
            "ddc": 1.0,
            "tlc": 0.8,
            "ep": 0.7,
            "ttc": 1.0,
            "lk": 1.0,
            "hc": 0.5,
            "ec": 1.0,
            "c": 0.0,  # not part of v2
        }
        want = 0.9 * 0.8 * (5 * 0.7 + 5 * 1.0 + 2 * 1.0 + 0.5 + 1.0) / 14.0
        assert aggregate(sub, version="v2") == pytest.approx(want, abs=1e-15)

    def test_zero_penalty_dominates(self):
        for version, pens in (("v1", ("nc", "dac")), ("v2", ("nc", "dac", "ddc", "tlc"))):
            for p in pens:
                sub = dict.fromkeys(METRICS, 1.0)
                sub[p] = 0.0
                assert aggregate(sub, version=version) == 0.0

    def test_integer_versions_match_named_ones(self):
        sub = dict.fromkeys(METRICS, 1.0)
        sub["ddc"] = 0.0  # a v2-only penalty: v1 scores 1, v2 scores 0
        assert aggregate(sub, version=1) == aggregate(sub, version="v1") == 1.0
        assert aggregate(sub, version=2) == aggregate(sub, version="v2") == 0.0

    @pytest.mark.parametrize("version", ["v3", 3, "2", None])
    def test_unknown_version_raises(self, version):
        sub = dict.fromkeys(METRICS, 1.0)
        with pytest.raises(ValueError, match="scoring version"):
            aggregate(sub, version=version)

    def test_v1_ignores_v2_only_metrics(self):
        a = dict.fromkeys(METRICS, 0.9)
        b = dict(a, ddc=0.1, tlc=0.2, lk=0.3, hc=0.4, ec=0.5)
        assert aggregate(a, version="v1") == aggregate(b, version="v1")

    @given(metric_dicts)
    def test_bounded(self, sub):
        for version in ("v1", "v2"):
            v = aggregate(sub, version=version)
            assert 0.0 <= v <= 1.0

    @given(st.lists(st.floats(0.0, 1.0), min_size=len(METRICS), max_size=len(METRICS)))
    def test_dict_and_matrix_agree_bit_for_bit(self, vals):
        row = np.array(vals)
        for version in ("v1", "v2"):
            one = aggregate(dict(zip(METRICS, row)), version=version)
            rows = evaluator._aggregate_matrix(row[None], CFG, version)
            assert np.float64(one).tobytes() == rows[0].tobytes()

    @given(metric_dicts, st.sampled_from(METRICS), st.floats(0.0, 1.0))
    def test_monotone_in_every_metric(self, sub, name, bump):
        higher = dict(sub)
        higher[name] = min(1.0, higher[name] + bump)
        for version in ("v1", "v2"):
            assert aggregate(higher, version=version) >= aggregate(
                sub, version=version
            ) - 1e-12


class TestSubscoreOracles:
    def test_clear_road_scores_all_ones(self):
        s = straight_scenario()
        sub = subscores(s, s.expert)
        assert sub == dict.fromkeys(METRICS, 1.0)
        assert aggregate(sub, version="v1") == 1.0
        assert aggregate(sub, version="v2") == 1.0

    def test_keys_are_metrics_in_order(self):
        s = straight_scenario()
        assert tuple(subscores(s, straight_traj(2.5))) == METRICS

    def test_subscores_need_an_expert(self):
        s = dataclasses.replace(straight_scenario(), expert=None)
        with pytest.raises(ValueError, match="no expert"):
            subscores(s, straight_traj(5.0))

    def test_labels_need_an_expert(self, desk_vocab):
        s = dataclasses.replace(straight_scenario(), expert=None)
        with pytest.raises(ValueError, match="no expert"):
            label_vocabulary(s, desk_vocab)

    def test_collision_with_parked_agent(self):
        parked = Agent(Pose2(Point2(12.0, 0.0), 0.0), speed=0.0)
        s = straight_scenario(agents=(parked,))
        assert subscores(s, straight_traj(5.0))["nc"] == 0.0
        # too short to reach the parked car, and too slow to close the
        # gap within either lookahead
        slow = straight_traj(1.0)
        assert subscores(s, slow)["nc"] == 1.0
        assert subscores(s, slow)["ttc"] == 1.0

    def test_ttc_flags_imminent_collision(self):
        parked = Agent(Pose2(Point2(24.0, 0.0), 0.0), speed=0.0)
        s = straight_scenario(agents=(parked,), ego_speed=8.0)
        fast = straight_traj(8.0, n=4)
        assert subscores(s, fast)["nc"] == 1.0  # stops 3.4 m short of contact
        assert subscores(s, fast)["ttc"] == 0.0  # half-second lookahead overlaps

    def test_dac_catches_offroad_corner(self):
        s = straight_scenario()
        assert subscores(s, straight_traj(5.0, y=6.0))["dac"] == 0.0
        assert subscores(s, straight_traj(5.0, y=3.0))["dac"] == 1.0

    def test_lane_keeping_offset_threshold(self):
        s = straight_scenario()
        assert subscores(s, straight_traj(5.0, y=1.0))["lk"] == 0.0
        assert subscores(s, straight_traj(5.0, y=0.4))["lk"] == 1.0

    def test_direction_compliance_reversing(self):
        s = straight_scenario()
        back = Trajectory(
            tuple(Point2(-(j + 1.0), 0.0) for j in range(4)),
            0.5,
            IDENTITY_POSE,
            (math.pi,) * 4,
        )
        assert subscores(s, back)["ddc"] == 0.0
        assert subscores(s, s.expert)["ddc"] == 1.0

    def test_red_light_crossing(self):
        line = (Point2(11.3, -5.0), Point2(11.3, 5.0))
        red = straight_scenario(lights=(TrafficLight(line, "red"),))
        green = straight_scenario(lights=(TrafficLight(line, "green"),))
        crossing = straight_traj(5.0)
        stopping = straight_traj(2.0)
        assert subscores(red, crossing)["tlc"] == 0.0
        assert subscores(red, stopping)["tlc"] == 1.0
        assert subscores(green, crossing)["tlc"] == 1.0

    def test_touching_stop_line_is_not_crossing(self):
        line = (Point2(10.0, -5.0), Point2(10.0, 5.0))
        red = straight_scenario(lights=(TrafficLight(line, "red"),))
        touch = straight_traj(2.5, n=8)  # final waypoint exactly on the line
        assert touch.final_point().x == 10.0
        assert subscores(red, touch)["tlc"] == 1.0

    def test_ep_is_progress_ratio_to_expert(self):
        s = straight_scenario(ego_speed=5.0)  # expert reaches x = 20
        assert subscores(s, straight_traj(2.5))["ep"] == pytest.approx(0.5, abs=1e-12)
        assert subscores(s, straight_traj(6.0))["ep"] == 1.0  # clipped at the ref

    def test_history_comfort_sees_start_jerk(self):
        # a 2.5 m/s candidate after arriving at 5 m/s brakes at 5 m/s^2:
        # invisible to the intrinsic comfort check, caught by history
        s = straight_scenario(ego_speed=5.0)
        t = straight_traj(2.5)
        assert subscores(s, t)["c"] == 1.0
        assert subscores(s, t)["hc"] == 0.0
        assert subscores(s, straight_traj(5.0))["hc"] == 1.0

    def test_comfort_flags_hard_acceleration(self):
        s = straight_scenario(ego_speed=2.0)
        xs = (1.0, 2.0, 3.0, 4.0, 10.5)  # last step jumps 2 -> 13 m/s
        t = Trajectory(tuple(Point2(x, 0.0) for x in xs), 0.5, IDENTITY_POSE, (0.0,) * 5)
        assert subscores(s, t)["c"] == 0.0

    def test_extended_comfort_window_change(self):
        s = straight_scenario(ego_speed=2.0)
        assert subscores(s, s.expert)["ec"] == 1.0
        xs = (1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 11.0, 14.0)
        two_phase = Trajectory(
            tuple(Point2(x, 0.0) for x in xs), 0.5, IDENTITY_POSE, (0.0,) * 8
        )
        # windows have mean accel 0, 0, 4, 0 m/s^2; the 4 exceeds the 2 cap
        assert subscores(s, two_phase)["ec"] == 0.0

    def test_labels_match_single_scoring(self, desk_scenarios, desk_vocab, desk_labels):
        # Every entry's row is the one a rule pass over that entry alone
        # gives, bit for bit.
        s, labels = desk_scenarios[0], desk_labels[0]
        for i in range(len(desk_vocab)):
            sub = as_vector(subscores(s, desk_vocab.entry(i)))
            assert np.array_equal(sub, labels.subscores[i]), i

    def test_paper_grid_labels_match_single_scoring(self, desk_scenarios):
        # The paper grid shares sample points and poses between entries in
        # other patterns than the desk grid.
        vocab = build_vocabulary(VocabSpec())
        s = rotate_scenario(desk_scenarios[1], -0.7)
        labels = label_vocabulary(s, vocab)
        for i in [*range(0, len(vocab), 37), len(vocab) - 1]:
            sub = as_vector(subscores(s, vocab.entry(i)))
            assert np.array_equal(sub, labels.subscores[i]), i

    def test_history_comfort_implies_comfort(self, desk_labels):
        for labels in desk_labels:
            assert np.all(labels.metric("hc") <= labels.metric("c"))

    def test_penalties_are_binary(self, desk_labels):
        for labels in desk_labels:
            for m in ("nc", "dac", "ddc", "tlc", "lk", "hc", "ec", "c", "ttc"):
                vals = labels.metric(m)
                assert np.all((vals == 0.0) | (vals == 1.0))

    def test_aggregates_match_matrix(self, desk_labels):
        for labels in desk_labels:
            for i in (0, len(labels) // 2, len(labels) - 1):
                row = dict(zip(METRICS, labels.subscores[i]))
                assert labels.pdms[i] == pytest.approx(
                    aggregate(row, version="v1"), abs=1e-12
                )
                assert labels.epdms[i] == pytest.approx(
                    aggregate(row, version="v2"), abs=1e-12
                )


class TestCollisionSweepOracle:
    """Replays the quarter-second collision rule through the polygon SAT
    helpers, an independent code path from the vectorized scorer."""

    def _dense(self, traj):
        pos = np.vstack([[0.0, 0.0], traj.xy])
        head = np.concatenate([[0.0], traj.heading_array])
        seg = np.diff(pos, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        mid = 0.5 * (pos[:-1] + pos[1:])
        mid_head = np.where(
            seg_len > 1e-9, np.arctan2(seg[:, 1], seg[:, 0]), head[:-1]
        )
        n = pos.shape[0]
        dense_p = np.empty((2 * n - 1, 2))
        dense_p[0::2] = pos
        dense_p[1::2] = mid
        dense_h = np.empty(2 * n - 1)
        dense_h[0::2] = head
        dense_h[1::2] = mid_head
        seg_v = seg / traj.dt
        dense_v = np.empty_like(dense_p)
        dense_v[0::2] = np.vstack([seg_v, seg_v[-1:]])
        dense_v[1::2] = seg_v
        times = 0.25 * np.arange(dense_p.shape[0])
        return dense_p, dense_h, dense_v, times

    def _brute(self, s, traj, cfg=CFG):
        dense_p, dense_h, dense_v, times = self._dense(traj)
        collide = ttc_hit = False
        for ag in s.agents:
            vel = ag.velocity()
            for k in range(dense_p.shape[0]):
                base = ag.pose.position.as_array() + times[k] * vel
                apoly = footprint(
                    Pose2(Point2(*base), ag.pose.heading), ag.length, ag.width
                )
                epoly = footprint(
                    Pose2(Point2(*dense_p[k]), dense_h[k]),
                    cfg.ego_length,
                    cfg.ego_width,
                )
                if polygons_intersect(epoly, apoly):
                    collide = True
                for tau in cfg.ttc_checks:
                    ef = footprint(
                        Pose2(Point2(*(dense_p[k] + tau * dense_v[k])), dense_h[k]),
                        cfg.ego_length,
                        cfg.ego_width,
                    )
                    af = footprint(
                        Pose2(Point2(*(base + tau * vel)), ag.pose.heading),
                        ag.length,
                        ag.width,
                    )
                    if polygons_intersect(ef, af):
                        ttc_hit = True
        return (0.0 if collide else 1.0, 0.0 if ttc_hit or collide else 1.0)

    def test_agreement_over_vocabulary_sample(self, desk_vocab, rng):
        agents = (
            Agent(Pose2(Point2(14.0, 0.5), 0.1), speed=1.5),
            Agent(Pose2(Point2(10.0, -8.0), math.pi / 2), speed=4.0),
            Agent(Pose2(Point2(30.0, 2.0), math.pi), speed=6.0),
        )
        s = straight_scenario(agents=agents)
        picks = rng.choice(len(desk_vocab), size=24, replace=False)
        mismatches = []
        saw_zero = saw_one = False
        for i in picks:
            t = desk_vocab.entry(int(i))
            sub = subscores(s, t)
            want_nc, want_ttc = self._brute(s, t)
            saw_zero |= want_nc == 0.0
            saw_one |= want_nc == 1.0
            if (sub["nc"], sub["ttc"]) != (want_nc, want_ttc):
                mismatches.append(int(i))
        assert not mismatches
        assert saw_zero and saw_one, "sweep should straddle the boundary"


class TestExpertSelection:
    def test_expert_maximizes_labels(self, desk_vocab):
        s = straight_scenario()
        idx, traj = expert_trajectory(s, desk_vocab)
        _, progress, epdms = max_reference_scores(s, desk_vocab)
        best = epdms.max()
        assert epdms[idx] == best
        tied = np.flatnonzero(epdms == best)
        assert progress[idx] == progress[tied].max()
        front = tied[progress[tied] == progress[idx]]
        assert idx == front.min()
        np.testing.assert_array_equal(traj.xy, desk_vocab.entry(idx).xy)

    def test_expert_stops_for_red_light(self, desk_vocab):
        line = (Point2(16.0, -5.0), Point2(16.0, 5.0))
        s = straight_scenario(lights=(TrafficLight(line, "red"),))
        idx, traj = expert_trajectory(s, desk_vocab)
        mat, _, _ = max_reference_scores(s, desk_vocab)
        assert mat[idx, METRICS.index("tlc")] == 1.0
        assert traj.final_point().x < 16.0

    def test_boxed_in_scenario_raises(self, desk_vocab):
        # the drivable cell is smaller than the ego footprint, so every
        # entry leaves it and all aggregates vanish
        cell = ConvexPolygon(
            (
                Point2(-2.0, -2.0),
                Point2(2.0, -2.0),
                Point2(2.0, 2.0),
                Point2(-2.0, 2.0),
            )
        )
        lane = Lane((Point2(-2.0, 0.0), Point2(2.0, 0.0)), (0.0, 0.0))
        s = Scenario(
            seed=1,
            kind="straight",
            ego_speed=3.0,
            ego_history=EgoHistory(Point2(-1.5, 0.0), 3.0, 0.0),
            agents=(),
            drivable=(cell,),
            lanes=(lane,),
            route=(Point2(0.0, 0.0), Point2(2.0, 0.0)),
            lights=(),
        )
        with pytest.raises(NoSafeTrajectory):
            expert_trajectory(s, desk_vocab)


def oracle_topk(gt, ranking, k):
    """Best ground truth among the K entries a single-stage pass ranks highest.

    Reads the curve `harness.evaluate` records for a pass whose coarse
    scores are `ranking`.
    """
    fwd = ForwardPass(None, {}, np.asarray(ranking, dtype=np.float64),
                      None, None, None, None, 0)
    return harness._best_in_top_k(np.asarray(gt, dtype=np.float64), fwd)[k - 1]


class TestOracleTopk:
    def test_small_example(self):
        gt = np.array([0.2, 0.9, 0.4])
        ranking = np.array([3.0, 1.0, 2.0])
        assert oracle_topk(gt, ranking, 1) == 0.2
        assert oracle_topk(gt, ranking, 2) == 0.4
        assert oracle_topk(gt, ranking, 3) == 0.9

    def test_ties_prefer_low_index(self):
        gt = np.array([0.1, 0.8, 0.3])
        assert oracle_topk(gt, np.zeros(3), 1) == 0.1

    def test_perfect_ranking_is_flat_in_k(self, rng):
        gt = rng.random(50)
        for k in (1, 10, 50):
            assert oracle_topk(gt, gt, k) == gt.max()

    @given(st.integers(1, 40), st.integers(0, 2**31 - 1))
    def test_monotone_in_k(self, n, seed):
        r = np.random.default_rng(seed)
        gt, ranking = r.random(n), r.random(n)
        vals = [oracle_topk(gt, ranking, k) for k in range(1, n + 1)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == gt.max()


class TestRotationEquivariance:
    def test_subscores_invariant_under_frame_rotation(self, desk_scenarios, rng):
        for s in desk_scenarios[:4]:
            for theta in rng.uniform(-math.pi / 6, math.pi / 6, size=2):
                rs = rotate_scenario(s, float(theta))
                t = s.expert
                rt = rotate_trajectory(t, -float(theta))
                a = as_vector(subscores(s, t))
                b = as_vector(subscores(rs, rt))
                np.testing.assert_allclose(b, a, atol=1e-9)

    def test_zero_rotation_is_identity(self, desk_scenarios):
        s = desk_scenarios[0]
        rs = rotate_scenario(s, 0.0)
        np.testing.assert_allclose(rs.expert.xy, s.expert.xy, atol=1e-15)
        a = as_vector(subscores(s, s.expert))
        b = as_vector(subscores(rs, rs.expert))
        np.testing.assert_allclose(b, a, atol=1e-12)

    def test_vocabulary_labels_rotate_with_entries(self, desk_scenarios, desk_vocab, rng):
        s = desk_scenarios[1]
        theta = 0.31
        rs = rotate_scenario(s, theta)
        picks = rng.choice(len(desk_vocab), size=6, replace=False)
        for i in picks:
            t = desk_vocab.entry(int(i))
            a = as_vector(subscores(s, t))
            b = as_vector(subscores(rs, rotate_trajectory(t, -theta)))
            np.testing.assert_allclose(b, a, atol=1e-9)


def _edit_sidecar(path, **edits):
    """Rewrite the sidecar at `path` with edits[k](array) in place of array k."""
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    np.savez_compressed(path, **{k: edits.get(k, lambda a: a)(a) for k, a in arrays.items()})


@pytest.fixture(scope="module")
def tiny_sidecar(tmp_path_factory):
    """A one-scene sidecar over a 24-entry grid: path, bytes, grid, labels."""
    vocab = build_vocabulary(VocabSpec(n_curvature=4, n_speed=3, n_accel=2))
    s = generate_scenario(0, GenConfig(vocab=vocab.spec))
    labels = [label_vocabulary(s, vocab)]
    path = tmp_path_factory.mktemp("sidecar") / "tiny.labels.npz"
    save_labels(path, labels, dataset_sha="d" * 64, vocabulary=vocab, cfg=CFG)
    return path, path.read_bytes(), vocab, labels


class TestLabelSidecar:
    def test_roundtrip(self, tmp_path, desk_labels, desk_vocab):
        path = tmp_path / "labels.npz"
        subset = desk_labels[:3]
        save_labels(path, subset, dataset_sha="d" * 64, vocabulary=desk_vocab, cfg=CFG)
        loaded = load_labels(
            path, dataset_sha="d" * 64, vocabulary=desk_vocab, cfg=CFG
        )
        assert len(loaded) == 3
        for a, b in zip(subset, loaded):
            np.testing.assert_array_equal(a.subscores, b.subscores)
            np.testing.assert_array_equal(a.progress, b.progress)
            np.testing.assert_array_equal(a.pdms, b.pdms)
            np.testing.assert_array_equal(a.epdms, b.epdms)
            np.testing.assert_array_equal(a.l2, b.l2)
            np.testing.assert_array_equal(a.nd, b.nd)

    def test_wrong_dataset_rejected(self, tmp_path, desk_labels, desk_vocab):
        path = tmp_path / "labels.npz"
        save_labels(path, desk_labels[:1], dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)
        with pytest.raises(LabelCacheMismatch, match="dataset_sha mismatch"):
            load_labels(path, dataset_sha="b" * 64, vocabulary=desk_vocab, cfg=CFG)

    def test_wrong_vocab_rejected(self, tmp_path, desk_labels, desk_vocab):
        path = tmp_path / "labels.npz"
        save_labels(path, desk_labels[:1], dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)
        other = build_vocabulary(VocabSpec(n_curvature=4, n_speed=3, n_accel=2))
        with pytest.raises(LabelCacheMismatch, match="vocab_digest mismatch"):
            load_labels(path, dataset_sha="a" * 64, vocabulary=other, cfg=CFG)

    def test_row_count_must_match_the_vocabulary(self, tmp_path, desk_labels, desk_vocab):
        # A row per grid cell, 512, where the vocabulary has 384 entries,
        # recorded under the vocabulary's own digest.
        path = tmp_path / "labels.npz"
        cells = [LabelSet(**{f.name: np.resize(getattr(ls, f.name),
                                               (512,) + getattr(ls, f.name).shape[1:])
                             for f in dataclasses.fields(ls)}) for ls in desk_labels[:2]]
        save_labels(path, cells, dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)
        with pytest.raises(LabelCacheMismatch) as err:
            load_labels(path, dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)
        assert str(path) in str(err.value) and "384 entries" in str(err.value)

    def test_wrong_config_rejected(self, tmp_path, desk_labels, desk_vocab):
        path = tmp_path / "labels.npz"
        save_labels(path, desk_labels[:1], dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)
        with pytest.raises(LabelCacheMismatch, match="config_digest mismatch"):
            load_labels(path, dataset_sha="a" * 64, vocabulary=desk_vocab,
                        cfg=EvaluatorConfig(max_jerk=1.0))

    def test_damaged_file_is_a_mismatch(self, tmp_path, desk_labels, desk_vocab):
        path = tmp_path / "labels.npz"
        save_labels(path, desk_labels[:2], dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)
        blob = path.read_bytes()
        cut = tmp_path / "cut.npz"
        for size in (0, 10, len(blob) // 2, len(blob) - 1):
            cut.write_bytes(blob[:size])
            with pytest.raises(LabelCacheMismatch, match="cut.npz"):
                load_labels(cut, dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)
        flipped = bytearray(blob)
        flipped[len(blob) // 3] ^= 0xFF
        cut.write_bytes(bytes(flipped))
        with pytest.raises(LabelCacheMismatch, match="cut.npz"):
            load_labels(cut, dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)

    def test_missing_array_is_a_mismatch(self, tmp_path, desk_labels, desk_vocab):
        path = tmp_path / "labels.npz"
        save_labels(path, desk_labels[:1], dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files if k != "nd"}
        np.savez_compressed(path, **arrays)
        with pytest.raises(LabelCacheMismatch, match="nd"):
            load_labels(path, dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)

    def test_array_one_entry_short_is_a_mismatch(self, tmp_path, desk_labels, desk_vocab):
        path = tmp_path / "labels.npz"
        save_labels(path, desk_labels[:1], dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)
        _edit_sidecar(path, pdms=lambda a: a[:, :-1])
        with pytest.raises(LabelCacheMismatch, match=r"labels\.npz: pdms of shape \(1, 383\)"):
            load_labels(path, dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)

    def test_array_missing_a_scene_is_a_mismatch(self, tmp_path, desk_labels, desk_vocab):
        path = tmp_path / "labels.npz"
        save_labels(path, desk_labels[:3], dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)
        _edit_sidecar(path, progress=lambda a: a[:2])
        with pytest.raises(LabelCacheMismatch, match=r"labels\.npz: progress of shape \(2, 384\)"):
            load_labels(path, dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)

    def test_subscores_without_a_metric_column_is_a_mismatch(self, tmp_path, desk_labels,
                                                              desk_vocab):
        path = tmp_path / "labels.npz"
        save_labels(path, desk_labels[:1], dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)
        _edit_sidecar(path, subscores=lambda a: a[..., :-1])
        with pytest.raises(LabelCacheMismatch, match=r"labels\.npz: subscores of shape"):
            load_labels(path, dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)

    def test_non_integer_format_version_is_a_mismatch(self, tmp_path, desk_labels, desk_vocab):
        path = tmp_path / "labels.npz"
        save_labels(path, desk_labels[:1], dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)
        _edit_sidecar(path, format_version=lambda a: np.array("one"))
        with pytest.raises(LabelCacheMismatch, match=r"labels\.npz: unsupported format version one"):
            load_labels(path, dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)

    def test_format_version_guard(self, tmp_path, desk_labels, desk_vocab, monkeypatch):
        path = tmp_path / "labels.npz"
        monkeypatch.setattr(evaluator, "LABELS_FORMAT_VERSION", 99)
        save_labels(path, desk_labels[:1], dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)
        monkeypatch.undo()
        with pytest.raises(LabelCacheMismatch, match="format version 99"):
            load_labels(path, dataset_sha="a" * 64, vocabulary=desk_vocab, cfg=CFG)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_bit_flip_gives_same_labels_or_names_file(self, tiny_sidecar, data):
        path, blob, vocab, labels = tiny_sidecar
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        bad = path.with_name("flipped.labels.npz")
        bad.write_bytes(bytes(flipped))
        try:
            loaded = load_labels(bad, dataset_sha="d" * 64, vocabulary=vocab, cfg=CFG)
        except LabelCacheMismatch as e:
            assert str(bad) in str(e)
            return
        assert len(loaded) == len(labels)
        for a, b in zip(labels, loaded):
            for f in dataclasses.fields(a):
                np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))

    def test_empty_save_rejected(self, tmp_path, desk_vocab):
        with pytest.raises(ValueError):
            save_labels(tmp_path / "x.npz", [], dataset_sha="a", vocabulary=desk_vocab, cfg=CFG)


class TestDistinctRows:
    """The per-vocabulary maps: distinct sample points and poses."""

    @staticmethod
    def _distinct_bytes(a):
        return len({row.tobytes() for row in a})

    @pytest.mark.parametrize("paper", [False, True], ids=["desk", "paper"])
    def test_maps_rebuild_the_arrays(self, desk_vocab, paper):
        vocab = build_vocabulary(VocabSpec()) if paper else desk_vocab
        rows = evaluator._vocabulary_rows(vocab, CFG)
        assert rows.pos[:, 1:].tobytes() == vocab.positions.tobytes()
        assert rows.head[:, 1:].tobytes() == vocab.headings.tobytes()
        assert not rows.pos[:, 0].any() and not rows.head[:, 0].any()
        points = rows.pos.reshape(-1, 2)
        dense_pos, dense_head = evaluator._densify(rows.pos, rows.head)
        poses = np.concatenate([dense_pos.reshape(-1, 2), dense_head.reshape(-1, 1)], axis=1)
        sizes = []
        for a, (first, inverse) in ((points, rows.point_map), (poses, rows.pose_map)):
            assert a[first][inverse].tobytes() == a.tobytes()
            sizes.append(first.size)
        tiles = rows.tiles
        assert np.stack([tiles.x, tiles.y], axis=1).tobytes() == \
            points[rows.point_map[0]].tobytes()
        # each tile's points share one tile square and lie within its radius
        size = np.diff(tiles.start)
        cell = np.floor(np.stack([tiles.x, tiles.y], axis=1) / evaluator._TILE_SIZE)
        assert size.min() >= 1 and tiles.start[-1] == tiles.x.size
        assert np.array_equal(cell, np.repeat(cell[tiles.start[:-1]], size, axis=0))
        assert len(np.unique(cell[tiles.start[:-1]], axis=0)) == size.size
        reach = np.hypot(tiles.x - np.repeat(tiles.cx, size), tiles.y - np.repeat(tiles.cy, size))
        assert np.all(reach <= np.repeat(tiles.radius, size))
        # every kept point and pose is distinct in its bytes
        assert [self._distinct_bytes(a) for a in (points, poses)] == sizes
        assert sizes == ([22263, 49311] if paper else [1969, 4145])

    def test_signed_zeros_never_merge(self):
        # Two rows that differ only in the sign of a zero y.
        pos = np.zeros((2, 3, 2))
        pos[:, 1:, 0] = (1.0, 2.0)
        pos[1, 1, 1] = -0.0
        head = np.zeros((2, 3))
        rows = evaluator._Rows(pos, head, 0.5, CFG)
        first, inverse = rows.point_map
        points = rows.pos.reshape(-1, 2)[first]
        assert first.size == 4 and len(np.unique(points, axis=0)) == 3
        assert points[inverse].tobytes() == rows.pos.reshape(-1, 2).tobytes()

    def test_scene_work_only_after_first_pass(self, desk_vocab, desk_scenarios, desk_labels,
                                               monkeypatch):
        # The densified samples and the footprint corners are built with a
        # vocabulary's rows; later rule passes under that config reuse them.
        label_vocabulary(desk_scenarios[0], desk_vocab)
        calls = []

        def counted(name):
            orig = getattr(evaluator, name)

            def call(*args):
                calls.append(name)
                return orig(*args)
            return call

        for name in ("_densify", "oriented_rect_corners"):
            monkeypatch.setattr(evaluator, name, counted(name))
        for k, (s, labels) in enumerate(zip(desk_scenarios, desk_labels)):
            got = label_vocabulary(s, desk_vocab)
            assert np.array_equal(got.subscores, labels.subscores)
            label_vocabulary(rotate_scenario(s, 0.37 + 0.53 * k), desk_vocab)
            expert_trajectory(s, desk_vocab)
        assert calls == []
        # a new config builds its own rows, once
        cfg = EvaluatorConfig(ego_length=5.0)
        for s in desk_scenarios[:3]:
            label_vocabulary(s, desk_vocab, cfg)
        assert calls == ["_densify", "oriented_rect_corners"]

    def test_rows_of_the_latest_config_only(self, desk_spec, desk_scenarios, desk_labels):
        # Labelling one vocabulary under a second config drops the first
        # config's rows; labels after each switch match a fresh cache bit
        # for bit, and an equal config that is another object shares rows.
        vocab = TrajectoryVocabulary(desk_spec)
        other = EvaluatorConfig(ego_length=5.0)
        first = weakref.ref(evaluator._vocabulary_rows(vocab, CFG))
        got = label_vocabulary(desk_scenarios[1], vocab, other)
        gc.collect()
        assert first() is None
        rows = evaluator._vocabulary_rows(vocab, other)
        assert rows.cfg == other
        assert evaluator._vocabulary_rows(vocab, dataclasses.replace(other)) is rows
        with mock.patch.object(evaluator, "_intrinsic_cache", weakref.WeakKeyDictionary()):
            want = label_vocabulary(desk_scenarios[1], vocab, other)
        back = label_vocabulary(desk_scenarios[0], vocab)
        for a, b in ((got, want), (back, desk_labels[0])):
            for f in dataclasses.fields(a):
                assert getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes(), f.name

    def test_concurrent_first_use(self, desk_spec, desk_scenarios, desk_labels, monkeypatch):
        # More labelling threads than cores meet a vocabulary no rule pass
        # has seen; its maps are built once and every label is unchanged.
        built = []

        class Counted(evaluator._Rows):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(evaluator, "_Rows", Counted)
        vocab = TrajectoryVocabulary(desk_spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as ex:
                futures = [ex.submit(label_vocabulary, s, vocab) for s in desk_scenarios]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(built) == 1
        for a, b in zip(got, desk_labels):
            for f in dataclasses.fields(a):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


# Reference kernels ----------------------------------------------------------
# The einsum, matmul and brute-force formulations that the component-wise
# kernels of trajsel.evaluator replaced. Labels must match them bit for bit.
# They read only the samples a `_Rows` holds (its distinct and densified
# samples, velocities and times) and its config, never its precomputed
# trig, corners, distinct points or slow-sample mask.


def _ref_axes(headings):
    c, s = np.cos(headings), np.sin(headings)
    out = np.empty(np.shape(headings) + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = s
    out[..., 1, 0] = -s
    out[..., 1, 1] = c
    return out


def _ref_rects_overlap(ce, ae, he, ca, aa, ha):
    d = ce - ca
    overlap = None
    for k in range(2):  # ego axes
        u = ae[..., k, :]
        dist = np.abs(np.einsum("btx,btx->bt", d, u))
        ra = ha[0] * np.abs(np.einsum("tx,btx->bt", aa[:, 0, :], u)) + ha[1] * np.abs(
            np.einsum("tx,btx->bt", aa[:, 1, :], u)
        )
        ok = dist <= he[k] + ra
        overlap = ok if overlap is None else (overlap & ok)
    for k in range(2):  # agent axes
        u = aa[:, k, :]
        dist = np.abs(np.einsum("btx,tx->bt", d, u))
        re = he[0] * np.abs(np.einsum("btx,tx->bt", ae[..., 0, :], u)) + he[1] * np.abs(
            np.einsum("btx,tx->bt", ae[..., 1, :], u)
        )
        overlap &= dist <= re + ha[k]
    return overlap


def _ref_collision_flags(s, rows):
    cfg, dense_pos, dense_head = rows.cfg, rows.dense_pos, rows.dense_head
    dense_vel, times = rows.dense_vel, rows.dense_t
    B, T, _ = dense_pos.shape
    ego_axes = _ref_axes(dense_head)
    he = np.array([0.5 * cfg.ego_length, 0.5 * cfg.ego_width])
    collide = np.zeros(B, dtype=bool)
    ttc_hit = np.zeros(B, dtype=bool)
    for ag in s.agents:
        ha = np.array([0.5 * ag.length, 0.5 * ag.width])
        aa = _ref_axes(np.full(T, ag.pose.heading))
        vel = ag.velocity()
        base = ag.pose.position.as_array()[None, :] + times[:, None] * vel[None, :]
        collide |= np.any(_ref_rects_overlap(dense_pos, ego_axes, he, base, aa, ha), axis=1)
        for tau in cfg.ttc_checks:
            ego_fut = dense_pos + tau * dense_vel
            ag_fut = base + tau * vel[None, :]
            ttc_hit |= np.any(_ref_rects_overlap(ego_fut, ego_axes, he, ag_fut, aa, ha), axis=1)
    return ~collide, ~(ttc_hit | collide)


def _ref_rotation_matrices(angles):
    """Stack of 2x2 CCW rotation matrices, shape angles.shape + (2, 2)."""
    c, s = np.cos(angles), np.sin(angles)
    out = np.empty(np.shape(angles) + (2, 2), dtype=np.float64)
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def _ref_corners(centers, headings, length, width):
    hl, hw = 0.5 * length, 0.5 * width
    local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
    rots = _ref_rotation_matrices(np.asarray(headings, dtype=np.float64))
    world = np.einsum("...ij,cj->...ci", rots, local)
    return np.asarray(centers, dtype=np.float64)[..., None, :] + world


def _ref_cells(s):
    """Per cell (A, b, bounds), from its vertices: inside(p) == all(A @ p >= b)."""
    out = []
    for cell in s.drivable:
        v = np.array([[p.x, p.y] for p in cell.vertices])
        e = np.roll(v, -1, axis=0) - v
        A = np.stack([-e[:, 1], e[:, 0]], axis=1)
        out.append((A, np.einsum("ij,ij->i", A, v), (*v.min(axis=0), *v.max(axis=0))))
    return out


def _ref_drivable_flags(s, rows):
    # every dense pose, with no deduplication
    cfg, dense_pos = rows.cfg, rows.dense_pos
    corners = _ref_corners(dense_pos, rows.dense_head, cfg.ego_length, cfg.ego_width)
    B, T = dense_pos.shape[:2]
    flat = corners.reshape(-1, 2)
    inside = np.zeros(flat.shape[0], dtype=bool)
    x, y = flat[:, 0], flat[:, 1]
    for A, b, (x0, y0, x1, y1) in _ref_cells(s):
        cand = np.flatnonzero(~inside & (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1))
        if cand.size:
            ok = np.all(flat[cand] @ A.T >= b[None, :], axis=1)
            inside[cand[ok]] = True
    return np.all(inside.reshape(B, T * 4), axis=1)


def _ref_route_progress(points, route_xy, cumlen):
    a = route_xy[:-1]
    d = np.diff(route_xy, axis=0)
    len2 = np.maximum(np.einsum("rx,rx->r", d, d), 1e-12)
    rel = points[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("brx,rx->br", rel, d) / len2, 0.0, 1.0)
    proj = a[None] + t[..., None] * d[None]
    dist2 = np.sum((points[:, None, :] - proj) ** 2, axis=-1)
    best = np.argmin(dist2, axis=1)
    rows = np.arange(points.shape[0])
    return cumlen[best] + t[rows, best] * np.sqrt(len2[best])


def _ref_segment_dist2(pts, starts, d, len2):
    """Squared point-segment distances, (points, segments), via einsum."""
    rel = pts[:, None, :] - starts[None]
    t = np.clip(np.einsum("psx,sx->ps", rel, d) / len2, 0.0, 1.0)
    diff = rel - t[..., None] * d[None]
    return np.einsum("psx,psx->ps", diff, diff)


def _lane_search(pts, starts, d, len2):
    """`_nearest_lane_segment` over `pts` grouped into tiles as a rule pass
    groups its points: (squared distance, segment index) in the order of pts."""
    tiles, order = evaluator._tile_points(pts[:, 0].copy(), pts[:, 1].copy())
    assert tiles.x.tobytes() == pts[order, 0].tobytes()
    assert tiles.y.tobytes() == pts[order, 1].tobytes()
    dist2, idx = evaluator._nearest_lane_segment(
        tiles, starts[:, 0].copy(), starts[:, 1].copy(), d[:, 0].copy(), d[:, 1].copy(), len2)
    out, out_idx = np.empty_like(dist2), np.empty_like(idx)
    out[order], out_idx[order] = dist2, idx
    return out, out_idx


def _assert_lowest_index_nearest(pts, starts, d, len2, got, got_idx):
    """got/got_idx are each point's least squared distance and the lowest
    segment index reaching it, bit for bit."""
    dist2 = _ref_segment_dist2(pts, starts, d, len2)
    want_idx = np.array([np.flatnonzero(row == row.min())[0] for row in dist2])
    assert np.array_equal(got_idx, want_idx)
    assert got.tobytes() == dist2[np.arange(len(pts)), want_idx].tobytes()


def _ref_lane_keep_and_direction(s, rows):
    # every sample point, with no deduplication
    cfg, pos, head = rows.cfg, rows.pos, rows.head
    w = np.diff(pos, axis=1) / rows.dt
    seg_speed = np.hypot(w[..., 0], w[..., 1])
    speeds = np.concatenate([seg_speed[:, :1], seg_speed], axis=1)
    starts, ends, dirs = s.lane_segments
    d = ends - starts
    len2 = np.maximum(np.einsum("sx,sx->s", d, d), 1e-12)
    B, S = head.shape
    pts = pos.reshape(-1, 2)
    n = pts.shape[0]
    best = np.full(n, np.inf)
    best_idx = np.zeros(n, dtype=np.intp)
    rows = np.arange(n)
    chunk = max(1, int(2_000_000 // max(n, 1)))  # over segments
    for k in range(0, starts.shape[0], chunk):
        dist2 = _ref_segment_dist2(pts, starts[k : k + chunk], d[k : k + chunk], len2[k : k + chunk])
        arg = np.argmin(dist2, axis=1)
        val = dist2[rows, arg]
        upd = val < best
        best[upd] = val[upd]
        best_idx[upd] = arg[upd] + k
    lk_ok = np.all((best <= cfg.lk_max_offset**2).reshape(B, S), axis=1)
    dev = np.abs(evaluator.normalize_angles(head.reshape(-1) - dirs[best_idx]))
    ddc = (dev <= cfg.ddc_max_dev) | (speeds.reshape(-1) < cfg.moving_eps)
    return lk_ok, np.all(ddc.reshape(B, S), axis=1)


def _ref_comfort_pass(pos, head, dt, cfg):
    w = (pos[:, 1:] - pos[:, :-1]) / dt
    speeds = np.hypot(w[..., 0], w[..., 1])
    acc = (w[:, 1:] - w[:, :-1]) / dt
    unit = np.where(
        (speeds[:, :-1] > 1e-9)[..., None],
        w[:, :-1] / np.maximum(speeds[:, :-1], 1e-12)[..., None],
        np.stack([np.cos(head[:, :-2]), np.sin(head[:, :-2])], axis=-1),
    )
    a_long = np.einsum("bsx,bsx->bs", acc, unit)
    a_lat = unit[..., 0] * acc[..., 1] - unit[..., 1] * acc[..., 0]
    ok = np.all(np.abs(a_long) <= cfg.max_long_accel, axis=1)
    ok &= np.all(np.abs(a_lat) <= cfg.max_lat_accel, axis=1)
    if acc.shape[1] >= 2:
        jerk = np.linalg.norm(acc[:, 1:] - acc[:, :-1], axis=-1) / dt
        ok &= np.all(jerk <= cfg.max_jerk, axis=1)
    yaw = np.abs(evaluator.normalize_angles(head[:, 1:] - head[:, :-1])) / dt
    ok &= np.all(yaw <= cfg.max_yaw_rate, axis=1)
    return ok


def _ref_history_comfort(s, rows):
    """The comfort pass over the whole (prev, start, samples...) path."""
    pos, head = rows.pos, rows.head
    B = pos.shape[0]
    prev = s.ego_history.prev_position.as_array()
    hpos = np.concatenate([np.broadcast_to(prev, (B, 1, 2)), pos], axis=1)
    v = pos[0, 0] - prev
    h0 = math.atan2(v[1], v[0]) if np.hypot(*v) > 1e-9 else head[0, 0]
    hhead = np.concatenate([np.full((B, 1), h0), head], axis=1)
    return _ref_comfort_pass(hpos, hhead, rows.dt, rows.cfg)


def _reference_labels(s, vocab, cfg=CFG):
    """label_vocabulary with every rewritten kernel swapped for its reference,
    and history comfort taken over the full history path."""
    score_arrays = evaluator._score_arrays

    def ref_score_arrays(s, rows):
        mat, progress = score_arrays(s, rows)
        mat[:, METRICS.index("hc")] = _ref_history_comfort(s, rows) & rows.comfort
        return mat, progress

    with mock.patch.multiple(
        evaluator,
        _intrinsic_cache=weakref.WeakKeyDictionary(),
        _collision_flags=_ref_collision_flags,
        _drivable_flags=_ref_drivable_flags,
        _lane_keep_and_direction=_ref_lane_keep_and_direction,
        _comfort_pass=_ref_comfort_pass,
        _score_arrays=ref_score_arrays,
        route_progress=_ref_route_progress,
    ):
        return label_vocabulary(s, vocab, cfg)


# Half-metre grid values make exact ties and zero-length segments common;
# arbitrary floats make the rounding of each formula matter.
half_metre = st.integers(-6, 6).map(lambda v: 0.5 * v)
coord = st.one_of(half_metre, st.floats(-3.0, 3.0))
plane_points = st.tuples(coord, coord)


@st.composite
def quads(draw):
    """A strictly convex CCW quadrilateral: a trapezoid with vertical sides
    on the half-metre grid, or four points on a circle, one per quadrant."""
    if draw(st.booleans()):
        pair = st.lists(half_metre, min_size=2, max_size=2, unique=True).map(sorted)
        (x0, x1), (ya, yd), (yb, yc) = draw(pair), draw(pair), draw(pair)
        v = ((x0, ya), (x1, yb), (x1, yc), (x0, yd))
    else:
        cx, cy, turn = draw(coord), draw(coord), draw(st.floats(-math.pi, math.pi))
        r = draw(st.floats(0.5, 4.0))
        angles = [draw(st.floats(k * math.pi / 2 + 0.2, (k + 1) * math.pi / 2 - 0.2))
                  for k in range(4)]
        v = tuple((cx + r * math.cos(a + turn), cy + r * math.sin(a + turn)) for a in angles)
    return ConvexPolygon(tuple(Point2(x, y) for x, y in v))


@st.composite
def agents_at_sample(draw, rows):
    """An agent placed against dense sample t of entry b of `rows`, at that
    sample's time or a time-to-collision lookahead later.

    Placements: touching the ego's box side by side, nose to tail or corner
    to corner (boxes of the ego's proportions then have centres exactly
    r_ego + r_agent apart), each scaled by a few ulps either way; anywhere
    within 1.2 (r_ego + r_agent) at any heading; up to 30 m away and heading
    fast toward or away from the ego; 60 m out. Agents are parked or move
    at up to 20 m/s.
    """
    cfg = rows.cfg
    B, T = rows.dense_head.shape
    b, t = draw(st.integers(0, B - 1)), draw(st.integers(0, T - 1))
    when = draw(st.sampled_from((0.0, *cfg.ttc_checks)))
    # The ego's centre and heading at that instant, as the kernels take them.
    cx = rows.dense_pos[b, t, 0] + when * rows.dense_vel[b, t, 0]
    cy = rows.dense_pos[b, t, 1] + when * rows.dense_vel[b, t, 1]
    ego_heading = float(rows.dense_head[b, t])
    he = np.array([0.5 * cfg.ego_length, 0.5 * cfg.ego_width])
    if draw(st.booleans()):
        ha = he * draw(st.sampled_from((1.0, 0.4, 2.5)) | st.floats(0.2, 3.0))
    else:
        ha = 0.5 * np.array([draw(st.floats(1.0, 12.0)), draw(st.floats(0.5, 3.0))])
    reach = math.hypot(*he) + math.hypot(*ha)
    sign = st.sampled_from((-1.0, 1.0))
    place = draw(st.sampled_from(("side", "nose", "corner", "any", "toward", "away", "far")))
    rel = draw(st.sampled_from((0.0, math.pi)))  # relative heading of aligned boxes
    speed = draw(st.just(0.0) | st.floats(0.0, 20.0))
    if place == "side":
        off = (draw(st.floats(-1.0, 1.0)) * (he[0] + ha[0]), draw(sign) * (he[1] + ha[1]))
    elif place == "nose":
        off = (draw(sign) * (he[0] + ha[0]), draw(st.floats(-1.0, 1.0)) * (he[1] + ha[1]))
    elif place == "corner":
        off = (draw(sign) * (he[0] + ha[0]), draw(sign) * (he[1] + ha[1]))
    else:
        radius = {"any": 1.2 * reach, "toward": 30.0, "away": 30.0, "far": 60.0}[place]
        if place != "far":
            radius *= draw(st.floats(0.0, 1.0))
        bearing = draw(st.floats(-math.pi, math.pi))
        off = (radius * math.cos(bearing), radius * math.sin(bearing))
        rel = draw(st.floats(-math.pi, math.pi)) - ego_heading
        if place in ("toward", "away"):
            rel = bearing - ego_heading + (math.pi if place == "toward" else 0.0)
            speed = draw(st.floats(10.0, 20.0))
    if place in ("side", "nose", "corner"):
        off = np.multiply(off, 1.0 + draw(st.integers(-4, 4)) * 2.0**-52)
    c, s = math.cos(ego_heading), math.sin(ego_heading)
    x = cx + c * off[0] - s * off[1]
    y = cy + s * off[0] + c * off[1]
    heading = ego_heading + rel
    # Back to where the agent starts, moving along its heading.
    lead = rows.dense_t[t] + when
    x -= lead * speed * math.cos(heading)
    y -= lead * speed * math.sin(heading)
    return Agent(Pose2(Point2(float(x), float(y)), heading), speed=speed,
                 length=float(2.0 * ha[0]), width=float(2.0 * ha[1]))


class TestReferenceKernels:
    """The component-wise kernels give the reference kernels' labels exactly."""

    @staticmethod
    def _assert_identical(got, want):
        for name in ("subscores", "progress", "pdms", "epdms"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_desk_scenarios_and_rotated_copies(self, desk_scenarios, desk_vocab, desk_labels):
        for k, (s, labels) in enumerate(zip(desk_scenarios, desk_labels)):
            self._assert_identical(labels, _reference_labels(s, desk_vocab))
            rs = rotate_scenario(s, 0.37 + 0.53 * k)
            self._assert_identical(
                label_vocabulary(rs, desk_vocab), _reference_labels(rs, desk_vocab)
            )

    def test_paper_grid_scene(self, desk_scenarios):
        vocab = build_vocabulary(VocabSpec())
        assert len(vocab) == 5688
        s = rotate_scenario(next(s for s in desk_scenarios if len(s.agents) == 2), 1.1)
        self._assert_identical(label_vocabulary(s, vocab), _reference_labels(s, vocab))

    @pytest.mark.parametrize("where", [(0.0, 2.0), (4.0, 0.0)], ids=["side", "nose"])
    def test_touching_agent(self, desk_vocab, where):
        # A fast agent touching the shared start footprint side by side or
        # nose to tail, then pulling away: contact is the boundary case of
        # the separating-axis test and counts as overlap, so every entry
        # collides.
        cfg = EvaluatorConfig(ego_length=4.0, ego_width=2.0)
        agent = Agent(Pose2(Point2(*where), 0.0), speed=20.0, length=4.0, width=2.0)
        s = straight_scenario(agents=(agent,))
        got = label_vocabulary(s, desk_vocab, cfg)
        self._assert_identical(got, _reference_labels(s, desk_vocab, cfg))
        assert not got.metric("nc").any()

    @settings(max_examples=200)
    @given(st.data())
    def test_collision_flags_match_reference(self, desk_vocab, data):
        # Only the samples an agent can reach are tested; skipping the rest
        # changes no flag, wherever and however many the agents are.
        rows = evaluator._vocabulary_rows(desk_vocab, CFG)
        agents = data.draw(st.lists(agents_at_sample(rows), min_size=1, max_size=4))
        s = straight_scenario(agents=agents)
        got, want = evaluator._collision_flags(s, rows), _ref_collision_flags(s, rows)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_collision_tests_few_samples(self, desk_scenarios, desk_vocab, monkeypatch):
        # The centre-distance bound leaves about a sixth of the agent x
        # dense-sample pairs for the separating-axis test.
        rows = evaluator._vocabulary_rows(desk_vocab, CFG)
        tested = []
        sat_reach = evaluator._sat_reach

        def counted(ec, *args):
            tested.append(ec.size)
            return sat_reach(ec, *args)

        monkeypatch.setattr(evaluator, "_sat_reach", counted)
        n_pairs = 0
        for s in desk_scenarios:
            for theta in (0.0, 0.37):
                evaluator._collision_flags(rotate_scenario(s, theta), rows)
                n_pairs += len(s.agents) * rows.dense_head.size
        assert n_pairs > 0
        assert sum(tested) < 0.25 * n_pairs

    def test_history_from_the_origin(self, desk_scenarios, desk_vocab):
        # A previous position at the start makes the first history segment
        # zero: its heading falls back to the start heading, and its
        # acceleration is the first sample's whole velocity.
        for s in desk_scenarios[:4]:
            s = dataclasses.replace(s, ego_history=dataclasses.replace(
                s.ego_history, prev_position=Point2(0.0, 0.0)))
            got = label_vocabulary(s, desk_vocab)
            self._assert_identical(got, _reference_labels(s, desk_vocab))
            assert not got.metric("hc").all()

    @settings(max_examples=150)
    @given(st.data())
    def test_drivable_flags_match_brute_force(self, data):
        cells = data.draw(st.lists(quads(), min_size=1, max_size=6))
        vertices = [tuple(v) for c in cells for v in c.array.tolist()]

        # Corners at the cells' vertices, on their exact x and y bounds, at
        # +-0.0, on the grid and anywhere near.
        def axis(i):
            return st.one_of(st.sampled_from(sorted({v[i] for v in vertices}) + [0.0, -0.0]),
                             half_metre, st.floats(-8.0, 8.0))

        corner = st.one_of(st.sampled_from(vertices), st.tuples(axis(0), axis(1)))
        pts = np.array(data.draw(st.lists(corner, min_size=1, max_size=60)))
        s = dataclasses.replace(straight_scenario(), drivable=tuple(cells))
        # Each pose's four corners are one point, so each flag is one corner's.
        x, y = np.repeat(pts[:, 0], 4), np.repeat(pts[:, 1], 4)
        order = np.argsort(x, kind="stable")
        n = len(pts)
        rows = types.SimpleNamespace(
            corner_x=x[order], corner_y=y[order], corner_pose=order // 4,
            pose_map=(np.arange(n), np.arange(n)), dense_head=np.zeros((n, 1)))
        want = np.zeros(n, dtype=bool)
        for A, b, (x0, y0, x1, y1) in _ref_cells(s):
            for i, (px, py) in enumerate(pts):
                if x0 <= px <= x1 and y0 <= py <= y1:
                    want[i] |= bool(np.all(A[:, 0] * px + A[:, 1] * py >= b))
        assert np.array_equal(evaluator._drivable_flags(s, rows), want)

    def test_cell_geometry_matches_per_cell_arrays(self, desk_scenarios):
        for s in (*desk_scenarios, rotate_scenario(desk_scenarios[1], -0.5)):
            A, b, bounds = s.drivable_geometry
            for c, (rA, rb, rbounds) in enumerate(_ref_cells(s)):
                assert A[c].tobytes() == rA.tobytes()
                assert b[c].tobytes() == rb.tobytes()
                assert bounds[c].tolist() == list(rbounds)

    def test_corners_match_rotation_product(self, rng):
        centers = rng.uniform(-30.0, 30.0, size=(64, 17, 2))
        heads = rng.uniform(-math.pi, math.pi, size=(64, 17))
        heads[0, :4] = (0.0, -0.0, math.pi / 2, math.pi)
        got = evaluator.oriented_rect_corners(centers, heads, 4.6, 1.9)
        assert np.array_equal(got, _ref_corners(centers, heads, 4.6, 1.9))

    def test_searches_on_random_polylines(self, rng):
        # Points beyond a bend are equally near two segments; each formula's
        # rounding then decides the winner, so both must be kept exactly.
        for _ in range(300):
            route = np.cumsum(rng.uniform(-3.0, 3.0, size=(rng.integers(2, 8), 2)), axis=0)
            seg = np.diff(route, axis=0)
            cumlen = np.concatenate([[0.0], np.cumsum(np.hypot(seg[:, 0], seg[:, 1]))])
            len2 = np.maximum(np.einsum("sx,sx->s", seg, seg), 1e-12)
            pts = rng.uniform(-10.0, 10.0, size=(40, 2))
            with mock.patch.object(evaluator, "_CHUNK_ELEMENTS", int(rng.integers(1, 64))):
                progress = evaluator.route_progress(pts, route, cumlen)
                dist2, idx = _lane_search(pts, route[:-1], seg, len2)
            assert np.array_equal(progress, _ref_route_progress(pts, route, cumlen))
            want = _ref_segment_dist2(pts, route[:-1], seg, len2)
            assert np.array_equal(idx, np.argmin(want, axis=1))
            assert np.array_equal(dist2, want.min(axis=1))

    @given(
        st.lists(st.tuples(plane_points, plane_points), min_size=1, max_size=10),
        st.lists(plane_points, min_size=1, max_size=40),
        st.integers(1, 64),
    )
    def test_nearest_segment_lowest_index(self, segs, pts, chunk):
        seg = np.array(segs, dtype=np.float64).reshape(-1, 4)
        # a repeated segment (exact ties) and a zero-length one
        seg = np.concatenate([seg, seg[:1], np.tile(seg[-1, :2], 2)[None]])
        starts, d = seg[:, :2], seg[:, 2:] - seg[:, :2]
        len2 = np.maximum(np.einsum("sx,sx->s", d, d), 1e-12)
        pts = np.array(pts, dtype=np.float64)
        with mock.patch.object(evaluator, "_CHUNK_ELEMENTS", chunk):
            got, got_idx = _lane_search(pts, starts, d, len2)
        _assert_lowest_index_nearest(pts, starts, d, len2, got, got_idx)

    @settings(max_examples=300)
    @given(st.data())
    def test_lane_search_matches_brute_force(self, data):
        # Coordinates on tile edges and corners, on the half-metre grid (exact
        # ties, zero-length segments) and anywhere out to 60 m (points far
        # from every lane, tiles of one point).
        edge = st.integers(-20, 20).map(lambda v: v * evaluator._TILE_SIZE)
        coord = st.one_of(edge, half_metre, st.floats(-60.0, 60.0))
        point = st.tuples(coord, coord)
        seg = np.array(data.draw(st.lists(st.tuples(point, point), min_size=1, max_size=12)),
                       dtype=np.float64).reshape(-1, 4)
        # A segment's mirror image across a tile edge is exactly as near to
        # every point on that edge, and is near other tiles than its source.
        k = data.draw(st.integers(-3, 3)) * evaluator._TILE_SIZE
        mirror = seg * (-1.0, 1.0, -1.0, 1.0) + (2.0 * k, 0.0, 2.0 * k, 0.0)
        seg = np.concatenate([seg, mirror, seg[:1], np.tile(seg[-1, :2], 2)[None]])
        seg = seg[data.draw(st.permutations(range(len(seg))))]
        starts, d = seg[:, :2], seg[:, 2:] - seg[:, :2]
        len2 = np.maximum(np.einsum("sx,sx->s", d, d), 1e-12)
        on_edge = st.tuples(st.just(k), coord)
        pts = np.array(data.draw(st.lists(st.one_of(point, on_edge), min_size=1, max_size=60)),
                       dtype=np.float64)
        with mock.patch.object(evaluator, "_CHUNK_ELEMENTS", data.draw(st.integers(1, 64))):
            got, got_idx = _lane_search(pts, starts, d, len2)
        _assert_lowest_index_nearest(pts, starts, d, len2, got, got_idx)

    def test_lane_search_tests_few_pairs(self, desk_scenarios, desk_vocab, monkeypatch):
        # The tiles' bounds leave about a tenth of the point x segment pairs.
        rows = evaluator._vocabulary_rows(desk_vocab, CFG)
        tested = []
        dist2 = evaluator._segment_dist2

        def counted(rx, *args):
            out = dist2(rx, *args)
            tested.append(out.size)
            return out

        monkeypatch.setattr(evaluator, "_segment_dist2", counted)
        for s in desk_scenarios:
            for theta in (0.0, 0.37):
                tested.clear()
                evaluator._lane_keep_and_direction(rotate_scenario(s, theta), rows)
                n_pairs = rows.tiles.x.size * s.lane_segments[0].shape[0]
                assert sum(tested) < 0.25 * n_pairs

    def test_paper_lane_search_memory(self, desk_scenarios):
        # Candidate pairs run in blocks, so one paper-grid lane search peaks
        # near the 1.6 MB that testing every pair in blocks takes; with its
        # pairs in one block it reads about 15 MB.
        rows = evaluator._vocabulary_rows(build_vocabulary(VocabSpec()), CFG)
        s = rotate_scenario(next(s for s in desk_scenarios if len(s.agents) == 2), 1.1)
        evaluator._lane_keep_and_direction(s, rows)
        tracemalloc.start()
        try:
            evaluator._lane_keep_and_direction(s, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000

    @given(
        st.lists(plane_points, min_size=2, max_size=8),
        st.lists(plane_points, min_size=1, max_size=40),
        st.integers(1, 64),
    )
    def test_route_progress_matches_reference(self, route, pts, chunk):
        route_xy = np.array(route, dtype=np.float64)
        seg = np.diff(route_xy, axis=0)
        cumlen = np.concatenate([[0.0], np.cumsum(np.hypot(seg[:, 0], seg[:, 1]))])
        pts = np.array(pts, dtype=np.float64)
        with mock.patch.object(evaluator, "_CHUNK_ELEMENTS", chunk):
            got = evaluator.route_progress(pts, route_xy, cumlen)
        assert np.array_equal(got, _ref_route_progress(pts, route_xy, cumlen))
