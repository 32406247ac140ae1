import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajsel.geom import Point2, Trajectory
from trajsel.geom import normalize_angles
from trajsel.vocab import (
    ACCEL_SHAPES,
    TrajectoryVocabulary,
    VocabSpec,
    _profile_arclength,
    arc_positions,
    build_vocabulary,
    curvature_levels,
    l2_to_entries,
    normalized_distance,
    speed_levels,
)

TINY = VocabSpec(n_curvature=4, n_speed=3, n_accel=2)
# 256 cells holding 190 distinct trajectories.
ODD_DISTINCT = VocabSpec(n_curvature=4, n_speed=16, n_accel=4)


@pytest.fixture(scope="module")
def tiny_vocab():
    return build_vocabulary(TINY)


class TestSpec:
    def test_default_size_is_8192(self):
        assert VocabSpec().size == 8192

    def test_grid_product(self, desk_spec):
        assert desk_spec.size == 16 * 8 * 4 == 512

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            VocabSpec(n_curvature=0)
        with pytest.raises(ValueError):
            VocabSpec(kappa_max=0.5)
        with pytest.raises(ValueError):
            VocabSpec(v_max=100.0)
        with pytest.raises(ValueError):
            VocabSpec(horizon=4.3)

    def test_waypoint_count(self):
        assert VocabSpec().n_waypoints == 8

    def test_digest_tracks_fields(self, desk_spec, desk_vocab):
        # the vocabulary digest covers the spec and the entries' bytes
        assert desk_vocab.digest != build_vocabulary(VocabSpec()).digest
        assert desk_vocab.digest != build_vocabulary(
            VocabSpec(n_curvature=16, n_speed=8, n_accel=4, v_max=14.0)).digest
        assert desk_vocab.digest == TrajectoryVocabulary(
            VocabSpec(n_curvature=16, n_speed=8, n_accel=4)
        ).digest


class TestBuild:
    def test_sizes(self, tiny_vocab, desk_vocab):
        # cells whose trajectory repeats an earlier cell's hold no entry
        assert len(tiny_vocab) == 24
        assert len(desk_vocab) == 384
        assert desk_vocab.positions.shape == (384, 8, 2)
        assert len(build_vocabulary(VocabSpec())) == 5688
        assert len(build_vocabulary(ODD_DISTINCT)) == 190

    @pytest.mark.parametrize("spec", [None, VocabSpec(), ODD_DISTINCT],
                             ids=["desk", "paper", "odd_distinct"])
    def test_no_two_entries_byte_equal(self, desk_spec, spec):
        vocab = build_vocabulary(spec or desk_spec)
        rows = np.concatenate([vocab.flat_waypoints, vocab.headings], axis=1)
        assert len({row.tobytes() for row in rows}) == len(vocab)

    @pytest.mark.parametrize("spec", [None, VocabSpec()], ids=["desk", "paper"])
    def test_entry_is_the_profile_of_its_cell(self, desk_spec, spec):
        spec = spec or desk_spec
        vocab = build_vocabulary(spec)
        times = spec.dt * np.arange(1, spec.n_waypoints + 1)
        for i in range(len(vocab)):
            ik, iv, ia = vocab.grid_index(i)
            ramp, stop_frac = ACCEL_SHAPES[ia]
            s = _profile_arclength(times, vocab.speeds[iv], ramp, stop_frac, spec.horizon)
            kappa = vocab.kappas[ik]
            assert np.array_equal(vocab.positions[i], arc_positions(kappa, s)), i
            assert np.array_equal(vocab.headings[i], normalize_angles(kappa * s)), i

    def test_entries_start_at_identity(self, tiny_vocab):
        for i in (0, 7, 23):
            e = tiny_vocab.entry(i)
            assert e.start_pose.position == Point2(0.0, 0.0)
            assert e.start_pose.heading == 0.0
            assert e.dt == TINY.dt

    def test_step_displacement_bound(self, desk_vocab):
        # the first step leaves the shared origin
        steps = np.diff(desk_vocab.positions, axis=1, prepend=0.0)
        dists = np.hypot(steps[..., 0], steps[..., 1])
        assert dists.max() <= 15.0 * 0.5 + 1e-9

    def test_curvature_bound(self, desk_vocab):
        # kappas holds the level array; every entry draws from it
        assert np.abs(desk_vocab.kappas).max() <= 0.2 + 1e-12
        assert desk_vocab.kappas.shape == (desk_vocab.spec.n_curvature,)

    def test_zero_curvature_is_collinear(self):
        # odd curvature counts contain the exact zero level
        vocab = build_vocabulary(VocabSpec(n_curvature=5, n_speed=2, n_accel=2))
        zeros = np.flatnonzero(curvature_levels(vocab.spec) == 0.0)
        assert zeros.size == 1
        ik = int(zeros[0])
        straight = [i for i in range(len(vocab)) if vocab.grid_index(i)[0] == ik]
        assert straight
        for i in straight:
            assert np.allclose(vocab.positions[i][:, 1], 0.0, atol=1e-12)
            xs = vocab.positions[i][:, 0]
            assert np.all(np.diff(xs) >= -1e-12)

    def test_mirror_pairs_reflect(self, desk_vocab):
        # same speed/accel with negated curvature mirrors across the x-axis
        kl = curvature_levels(desk_vocab.spec)
        cells = {desk_vocab.grid_index(i): i for i in range(len(desk_vocab))}
        for (ik, iv, ia), i in cells.items():
            jk = np.flatnonzero(kl == -kl[ik])
            assert jk.size == 1
            j = cells[int(jk[0]), iv, ia]
            a, b = desk_vocab.positions[i], desk_vocab.positions[j]
            assert np.allclose(a[:, 0], b[:, 0], atol=1e-12)
            assert np.allclose(a[:, 1], -b[:, 1], atol=1e-12)

    def test_set_closed_under_y_negation(self, tiny_vocab):
        flipped = tiny_vocab.positions * np.array([1.0, -1.0])
        for i in range(len(tiny_vocab)):
            d = np.linalg.norm(
                tiny_vocab.positions - flipped[i][None], axis=(1, 2)
            )
            assert d.min() < 1e-9

    def test_ordering_kappa_major(self, desk_vocab):
        # entries follow their cells in (curvature, speed, accel) order
        cells = [desk_vocab.grid_index(i) for i in range(len(desk_vocab))]
        assert cells == sorted(set(cells))
        assert cells[0] == (0, 0, 0) and cells[-1][0] == desk_vocab.spec.n_curvature - 1
        assert {ik for ik, _, _ in cells} == set(range(desk_vocab.spec.n_curvature))

    def test_build_deterministic(self):
        a = TrajectoryVocabulary(TINY)
        b = TrajectoryVocabulary(TINY)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.headings, b.headings)

    def test_one_vocabulary_per_spec(self):
        v = build_vocabulary(TINY)
        assert build_vocabulary(TINY) is v
        assert build_vocabulary(VocabSpec(n_curvature=4, n_speed=3, n_accel=2)) is v
        assert build_vocabulary(VocabSpec(n_curvature=5, n_speed=3, n_accel=2)) is not v

    def test_levels(self, desk_spec):
        kl = curvature_levels(desk_spec)
        assert kl.shape == (16,)
        assert kl.min() == -desk_spec.kappa_max
        assert kl.max() == desk_spec.kappa_max
        assert np.allclose(kl, -kl[::-1])
        sl = speed_levels(desk_spec)
        assert sl.shape == (8,)
        assert sl.min() > 0.0 and sl.max() <= desk_spec.v_max

    def test_entry_index_errors(self, tiny_vocab):
        with pytest.raises(IndexError):
            tiny_vocab.entry(24)
        with pytest.raises(IndexError):
            tiny_vocab.entry(-1)


class TestDistances:
    def test_identical_zero(self, tiny_vocab):
        pos = tiny_vocab.positions
        assert l2_to_entries(pos, pos[3])[3] == 0.0

    def test_translation_345(self, tiny_vocab):
        moved = tiny_vocab.positions[5] + np.array([3.0, 4.0])
        d = l2_to_entries(tiny_vocab.positions, moved)
        assert d[5] == pytest.approx(5.0, abs=1e-12)

    def test_symmetry(self, tiny_vocab):
        pos = tiny_vocab.positions
        assert l2_to_entries(pos, pos[9])[1] == pytest.approx(
            l2_to_entries(pos, pos[1])[9])

    def test_shape_mismatch(self, tiny_vocab):
        with pytest.raises(ValueError, match="waypoint grids differ"):
            l2_to_entries(tiny_vocab.positions, tiny_vocab.positions[0][:4])

    def test_l2_to_entries_matches_pairwise(self, tiny_vocab):
        target = tiny_vocab.positions[11] + 0.25
        d = l2_to_entries(tiny_vocab.positions, target)
        assert d.shape == (24,)
        for i in (0, 11, 23):
            want = math.sqrt(
                np.mean(
                    np.sum((tiny_vocab.positions[i] - target) ** 2, axis=1)
                )
            )
            assert d[i] == pytest.approx(want, abs=1e-12)

    def test_normalized_distance_anchors(self):
        assert normalized_distance(0.0) == 1.0
        assert normalized_distance(3.0) == pytest.approx(math.exp(-1.0))
        assert normalized_distance(6.0) == pytest.approx(math.exp(-4.0))

    @given(st.floats(0, 40), st.floats(0.01, 40))
    def test_normalized_distance_monotone(self, d, gap):
        assert normalized_distance(d) > normalized_distance(d + gap)

    def test_normalized_distance_range(self, rng):
        d = rng.uniform(0, 20, size=256)
        nd = normalized_distance(d)
        assert np.all(nd > 0) and np.all(nd <= 1)


def nearest(vocabulary, xy):
    return int(np.argmin(l2_to_entries(vocabulary.positions, xy)))


class TestNearestEntry:
    def test_exact_entry(self, desk_vocab):
        assert nearest(desk_vocab, desk_vocab.entry(7).xy) == 7

    def test_perturbed_centimeter_stays(self, desk_vocab):
        # 1 cm per-waypoint offsets stay well under the grid spacing
        e = desk_vocab.entry(7)
        rng = np.random.default_rng(7)
        for _ in range(20):
            ang = rng.uniform(0, 2 * math.pi, size=len(e))
            wps = tuple(
                Point2(p.x + 0.01 * math.cos(a), p.y + 0.01 * math.sin(a))
                for p, a in zip(e.waypoints, ang)
            )
            t = Trajectory(wps, e.dt, e.start_pose, e.headings)
            assert nearest(desk_vocab, t.xy) == 7

    def test_perturbation_margin_brute_force(self, desk_vocab):
        # entry 7 sits nearer than 2x1cm to no other entry: scan says the
        # closest competitor is several cm away, so the example is safe
        d = l2_to_entries(desk_vocab.positions, desk_vocab.positions[7])
        d[7] = np.inf
        assert d.min() > 0.02
