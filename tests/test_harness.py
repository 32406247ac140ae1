import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajsel import harness, planner
from trajsel.evaluator import METRICS, LabelSet, label_vocabulary
from trajsel.generator import generate_scenario
from trajsel.geom import IDENTITY_POSE, Point2, Trajectory
from trajsel.harness import (
    EmptyDataset,
    evaluate,
    fov_sweep,
    heading_histogram,
    kl_to_uniform,
    oracle_study,
    qualifying_entries,
    rotation_augmented_labels,
    split_eval,
    svg_bars,
    table_csv,
    table_text,
    turn_bucket,
)
from trajsel.planner import (
    COEFFS_V1,
    COEFFS_V2,
    DomainError,
    KOutOfRange,
    PlannerConfig,
    PlannerModel,
    coefficients_for,
    combine_score,
    infer,
    init_params,
)
from trajsel.scenario import FOV_1CAM, FOV_3CAM, FOV_5CAM, GenConfig, observe
from trajsel.vocab import VocabSpec, build_vocabulary

TINY = VocabSpec(n_curvature=4, n_speed=3, n_accel=2)


def metric_names(coeffs):
    """Every score name a coefficient set reads, imitation first."""
    return ("imi",) + tuple(m for m, _ in coeffs.penalties) + tuple(
        m for m, _ in coeffs.average
    )


TINY_PLANNER = PlannerConfig(
    hidden_dim=16,
    coarse_layers=1,
    refine_layers=1,
    attn_heads=2,
    ff_dim=32,
    top_k=8,
    batch_size=2,
    epochs=1,
    lr=2e-3,
    ema_mode="scratch",
)


@pytest.fixture(scope="module")
def tiny_vocab():
    return build_vocabulary(TINY)


@pytest.fixture(scope="module")
def tiny_scenarios():
    cfg = GenConfig(vocab=TINY)
    return [generate_scenario(seed, cfg) for seed in range(3)]


@pytest.fixture(scope="module")
def tiny_labels(tiny_scenarios, tiny_vocab):
    return [label_vocabulary(s, tiny_vocab) for s in tiny_scenarios]


@pytest.fixture(scope="module")
def tiny_model(tiny_vocab):
    student = init_params(TINY_PLANNER, tiny_vocab, seed=9)
    return PlannerModel(TINY_PLANNER, tiny_vocab, student, student.copy())


def ray_expert(angle_deg, step=1.5, n=8):
    """Straight 8-waypoint trajectory leaving the origin at a fixed bearing."""
    a = math.radians(angle_deg)
    return Trajectory(
        tuple(
            Point2(step * (j + 1) * math.cos(a), step * (j + 1) * math.sin(a))
            for j in range(n)
        ),
        0.5,
        IDENTITY_POSE,
        (a,) * n,
    )


class TestCoefficients:
    def test_lookup(self):
        assert coefficients_for(1) is COEFFS_V1
        assert coefficients_for(2) is COEFFS_V2

    @pytest.mark.parametrize("version", [0, 3, -1, "v1", "v2"])
    def test_unknown_version(self, version):
        with pytest.raises(DomainError):
            coefficients_for(version)

    def test_metric_names(self):
        assert metric_names(COEFFS_V1) == ("imi", "nc", "dac", "ep", "ttc", "c")
        assert metric_names(COEFFS_V2) == (
            "imi", "nc", "dac", "ddc", "tlc", "ep", "ttc", "lk", "hc",
        )

    def test_weights(self):
        assert COEFFS_V1.lambda_avg == 8.0 and COEFFS_V2.lambda_avg == 6.0
        assert sum(w for _, w in COEFFS_V1.average) == 12.0
        assert sum(w for _, w in COEFFS_V2.average) == 13.0


class TestCombineScore:
    def test_all_ones_v1(self):
        # every log term vanishes except the weighted average, 5+5+2
        scores = {m: 1.0 for m in metric_names(COEFFS_V1)}
        assert combine_score(scores, COEFFS_V1) == pytest.approx(
            8.0 * math.log(12.0), rel=1e-12
        )

    def test_all_ones_v2(self):
        scores = {m: 1.0 for m in metric_names(COEFFS_V2)}
        assert combine_score(scores, COEFFS_V2) == pytest.approx(
            6.0 * math.log(13.0), rel=1e-12
        )

    def test_hand_row_v2(self):
        scores = {
            "imi": 0.37, "nc": 1.0, "dac": 0.5, "ddc": 0.9, "tlc": 1.0,
            "ep": 0.62, "ttc": 0.88, "lk": 1.0, "hc": 0.75,
        }
        want = (
            0.02 * math.log(0.37)
            + 0.5 * math.log(1.0)
            + 0.5 * math.log(0.5)
            + 0.3 * math.log(0.9)
            + 0.1 * math.log(1.0)
            + 6.0 * math.log(5.0 * 0.62 + 5.0 * 0.88 + 2.0 * 1.0 + 1.0 * 0.75)
        )
        assert combine_score(scores, COEFFS_V2) == pytest.approx(want, rel=1e-12)

    def test_hand_row_v1(self):
        scores = {"imi": 0.2, "nc": 1.0, "dac": 1.0, "ep": 0.5, "ttc": 1.0, "c": 1.0}
        want = 0.05 * math.log(0.2) + 8.0 * math.log(5.0 * 0.5 + 5.0 + 2.0)
        assert combine_score(scores, COEFFS_V1) == pytest.approx(want, rel=1e-12)

    def test_vector_matches_scalar(self, rng):
        n = 6
        cols = {m: rng.uniform(0.05, 1.0, n) for m in metric_names(COEFFS_V2)}
        vec = combine_score(cols, COEFFS_V2)
        assert vec.shape == (n,)
        for i in range(n):
            row = {m: float(cols[m][i]) for m in cols}
            assert combine_score(row, COEFFS_V2) == pytest.approx(
                float(vec[i]), rel=1e-12
            )

    def test_scalar_returns_float(self):
        out = combine_score({m: 0.5 for m in metric_names(COEFFS_V1)}, COEFFS_V1)
        assert isinstance(out, float)

    @given(
        base=st.lists(
            st.floats(0.05, 0.95), min_size=9, max_size=9
        ),
        which=st.integers(0, 8),
    )
    def test_strictly_monotone_in_each_metric(self, base, which):
        names = metric_names(COEFFS_V2)
        lo = dict(zip(names, base))
        hi = dict(lo)
        hi[names[which]] = lo[names[which]] + 0.04
        assert combine_score(hi, COEFFS_V2) > combine_score(lo, COEFFS_V2)

    def test_zero_clamps_to_floor(self):
        scores = {m: 1.0 for m in metric_names(COEFFS_V2)}
        zeroed = dict(scores, nc=0.0)
        floored = dict(scores, nc=1e-7)
        got = combine_score(zeroed, COEFFS_V2)
        assert math.isfinite(got)
        assert got == combine_score(floored, COEFFS_V2)
        # anything below the floor is indistinguishable from it
        assert got == combine_score(dict(scores, nc=1e-9), COEFFS_V2)

    def test_rescaling_one_penalty_keeps_the_argmax(self, rng):
        n = 16
        cols = {m: rng.uniform(0.1, 1.0, n) for m in metric_names(COEFFS_V2)}
        before = combine_score(cols, COEFFS_V2)
        halved = dict(cols, nc=cols["nc"] * 0.5)
        after = combine_score(halved, COEFFS_V2)
        np.testing.assert_allclose(before - after, 0.5 * math.log(2.0), rtol=1e-12)
        assert np.argmax(before) == np.argmax(after)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_bad_scores_raise(self, bad):
        scores = {m: 1.0 for m in metric_names(COEFFS_V1)}
        scores["ttc"] = bad
        with pytest.raises(DomainError):
            combine_score(scores, COEFFS_V1)

    def test_bad_array_element_raises(self):
        scores = {m: np.ones(3) for m in metric_names(COEFFS_V1)}
        scores["ep"] = np.array([0.5, -0.5, 0.5])
        with pytest.raises(DomainError):
            combine_score(scores, COEFFS_V1)

    def test_missing_metric_raises(self):
        scores = {m: 1.0 for m in metric_names(COEFFS_V1)}
        del scores["c"]
        with pytest.raises(KeyError):
            combine_score(scores, COEFFS_V1)


class TestGtVersionSpelling:
    def test_int_and_string_agree(self, tiny_labels):
        lab = tiny_labels[0]
        np.testing.assert_array_equal(lab.gt(1), lab.gt("v1"))
        np.testing.assert_array_equal(lab.gt(2), lab.gt("v2"))
        assert lab.gt(1) is lab.pdms and lab.gt(2) is lab.epdms

    def test_unknown_spelling_raises(self, tiny_labels):
        with pytest.raises(ValueError):
            tiny_labels[0].gt(3)
        with pytest.raises(ValueError):
            tiny_labels[0].gt("v3")


class TestEvaluate:
    def test_rows_match_labels(self, tiny_model, tiny_scenarios, tiny_labels):
        rep = evaluate(tiny_model, tiny_scenarios, tiny_labels)
        assert rep.n_scenarios == len(tiny_scenarios) == len(rep.rows)
        for s, lab, row in zip(tiny_scenarios, tiny_labels, rep.rows):
            sel = infer(tiny_model, s).selected
            assert row["selected"] == sel
            assert row["aggregate"] == lab.gt(2)[sel]
            for j, name in enumerate(METRICS):
                assert row["subscores"][name] == lab.subscores[sel, j]

    def test_means_are_percent_of_rows(self, tiny_model, tiny_scenarios, tiny_labels):
        rep = evaluate(tiny_model, tiny_scenarios, tiny_labels)
        for name in METRICS:
            want = 100.0 * np.mean([r["subscores"][name] for r in rep.rows])
            assert rep.subscore_means[name] == pytest.approx(want, abs=1e-12)
        want = 100.0 * np.mean([r["aggregate"] for r in rep.rows])
        assert rep.aggregate_mean == pytest.approx(want, abs=1e-12)

    def test_rerun_identical(self, tiny_model, tiny_scenarios, tiny_labels):
        a = evaluate(tiny_model, tiny_scenarios, tiny_labels)
        b = evaluate(tiny_model, tiny_scenarios, tiny_labels)
        np.testing.assert_equal(a.rows, b.rows)
        assert a.aggregate_mean == b.aggregate_mean

    def test_version_one_scores_with_pdms(
        self, tiny_model, tiny_scenarios, tiny_labels
    ):
        v1 = replace(tiny_model, cfg=replace(tiny_model.cfg, score_version=1))
        rep = evaluate(v1, tiny_scenarios, tiny_labels)
        assert rep.version == 1
        for s, lab, row in zip(tiny_scenarios, tiny_labels, rep.rows):
            assert row["aggregate"] == lab.gt(1)[infer(v1, s).selected]

    def test_empty_raises(self, tiny_model):
        with pytest.raises(EmptyDataset):
            evaluate(tiny_model, [], [])

    def test_short_labels_raise(self, tiny_model, tiny_scenarios, tiny_labels):
        with pytest.raises(ValueError):
            evaluate(tiny_model, tiny_scenarios, tiny_labels[:-1])

    def test_metadata_passthrough(self, tiny_model, tiny_scenarios, tiny_labels):
        model = replace(tiny_model, config_hash="abcdef0123456789")
        rep = evaluate(model, tiny_scenarios, tiny_labels)
        assert rep.config_hash == "abcdef0123456789"
        assert "abcdef012345" in rep.to_text()

    def test_to_text_layout(self, tiny_model, tiny_scenarios, tiny_labels):
        rep = evaluate(tiny_model, tiny_scenarios, tiny_labels)
        text = rep.to_text()
        assert text.startswith("scenarios: 3   scoring: v2")
        for name in METRICS:
            assert f"\n  {name}" in text
        assert "aggregate" in text

    def test_to_csv_parses(self, tiny_model, tiny_scenarios, tiny_labels):
        rep = evaluate(tiny_model, tiny_scenarios, tiny_labels)
        rows = list(csv.reader(io.StringIO(rep.to_csv())))
        assert rows[0] == ["row"] + list(METRICS) + ["aggregate"]
        assert rows[1][0] == "mean"
        assert rows[1][-1] == f"{rep.aggregate_mean:.4f}"
        assert len(rows) == 2 + rep.n_scenarios
        for i, row in enumerate(rows[2:]):
            assert row[0] == str(i)
            assert row[-1] == f"{rep.rows[i]['aggregate'] * 100.0:.2f}"


def ranked_curve(model, s, lab, gt):
    """The best-in-top-K curve `evaluate` records for `s` when its ground truth is `gt`."""
    return evaluate(model, [s], [replace(lab, epdms=gt)]).rows[0]["best_in_top_k"]


def ranked_first(model, s, lab, entries) -> bool:
    """Whether the model's ranking of `s` starts with `entries`, in that order.

    Entry entries[j] gets ground truth j + 1 and every other entry 0, so the
    curve reads 1, 2, ... exactly when the j-th ranked entry is entries[j].
    """
    gt = np.zeros(len(model.vocabulary))
    gt[entries] = np.arange(1, len(entries) + 1)
    return np.array_equal(ranked_curve(model, s, lab, gt)[:len(entries)], gt[entries])


class TestModelRanking:
    def test_topk_sit_on_top_in_refine_order(self, tiny_model, tiny_scenarios,
                                             tiny_labels):
        s = tiny_scenarios[0]
        res = infer(tiny_model, s)
        want = res.topk[np.argsort(-res.refine_combined, kind="stable")]
        assert ranked_first(tiny_model, s, tiny_labels[0], want)

    def test_refined_strictly_above_coarse(self, tiny_model, tiny_scenarios,
                                           tiny_labels):
        s = tiny_scenarios[1]
        res = infer(tiny_model, s)
        gt = np.ones(len(tiny_model.vocabulary))
        gt[res.topk] = 0.0
        curve = ranked_curve(tiny_model, s, tiny_labels[1], gt)
        k = len(res.topk)
        assert curve[k - 1] == 0.0 and curve[k] == 1.0

    def test_single_stage_ranking_is_coarse(self, tiny_vocab, tiny_scenarios,
                                            tiny_labels):
        cfg = replace(TINY_PLANNER, refine_layers=0)
        student = init_params(cfg, tiny_vocab, seed=9)
        model = PlannerModel(cfg, tiny_vocab, student, student.copy())
        s = tiny_scenarios[0]
        res = infer(model, s)
        assert res.topk is None
        want = np.argsort(-res.coarse_combined, kind="stable")
        assert ranked_first(model, s, tiny_labels[0], want)

    def test_refine_tie_ranks_the_selected_entry_first(self):
        # Both refined entries score 1.0; forward's argmax keeps the first of
        # them in top-K order, entry 5, and the curve must start at its gt.
        gt = np.arange(8) / 10.0
        coarse = np.zeros(8)
        coarse[[5, 2]] = 2.0, 1.0
        topk, refine = np.array([5, 2]), np.array([1.0, 1.0])
        res = planner.ForwardPass(None, {}, coarse, topk, None, None, refine,
                                  int(topk[np.argmax(refine)]))
        curve = harness._best_in_top_k(gt, res)
        assert curve[0] == gt[res.selected] == 0.5

    def test_curve_monotone_up_to_best(self, tiny_model, tiny_scenarios, tiny_labels):
        rep = evaluate(tiny_model, tiny_scenarios, tiny_labels)
        for lab, row in zip(tiny_labels, rep.rows):
            curve = row["best_in_top_k"]
            assert curve.shape == (len(tiny_model.vocabulary),)
            assert np.all(np.diff(curve) >= 0.0)
            assert curve[0] == row["aggregate"]
            assert curve[-1] == lab.gt(2).max()


class TestOracleStudy:
    def test_monotone_in_k(self, tiny_model, tiny_scenarios, tiny_labels):
        ks = (1, 2, 4, 8, 16, 24)
        study = oracle_study(evaluate(tiny_model, tiny_scenarios, tiny_labels), ks)
        vals = [study[k] for k in ks]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_k1_equals_plain_evaluation(self, tiny_model, tiny_scenarios, tiny_labels):
        rep = evaluate(tiny_model, tiny_scenarios, tiny_labels)
        study = oracle_study(rep, (1,))
        assert study[1] == pytest.approx(rep.aggregate_mean, abs=1e-12)

    def test_full_k_is_mean_best(self, tiny_model, tiny_scenarios, tiny_labels):
        n = len(tiny_model.vocabulary)
        study = oracle_study(evaluate(tiny_model, tiny_scenarios, tiny_labels), (n,))
        want = 100.0 * np.mean([lab.gt(2).max() for lab in tiny_labels])
        assert study[n] == pytest.approx(want, abs=1e-12)

    def test_oversized_k_clipped(self, tiny_model, tiny_scenarios, tiny_labels):
        n = len(tiny_model.vocabulary)
        study = oracle_study(evaluate(tiny_model, tiny_scenarios, tiny_labels),
                             (n, 10 * n))
        assert study[10 * n] == study[n]

    def test_k_below_one_raises(self, tiny_model, tiny_scenarios, tiny_labels):
        rep = evaluate(tiny_model, tiny_scenarios, tiny_labels)
        with pytest.raises(KOutOfRange):
            oracle_study(rep, (1, 0))

    def test_empty_raises(self, tiny_model):
        with pytest.raises(EmptyDataset):
            oracle_study(evaluate(tiny_model, [], []), (1,))

    def test_version_follows_the_report(self, tiny_model, tiny_scenarios,
                                        tiny_labels):
        n = len(tiny_model.vocabulary)
        v1 = replace(tiny_model, cfg=replace(tiny_model.cfg, score_version=1))
        study = oracle_study(evaluate(v1, tiny_scenarios, tiny_labels), (n,))
        want = 100.0 * np.mean([lab.gt(1).max() for lab in tiny_labels])
        assert study[n] == pytest.approx(want, abs=1e-12)


class TestTurnBuckets:
    def test_cardinal_directions(self, tiny_scenarios):
        s = tiny_scenarios[0]
        assert turn_bucket(replace(s, expert=ray_expert(39.0))) == "left"
        assert turn_bucket(replace(s, expert=ray_expert(-39.0))) == "right"
        assert turn_bucket(replace(s, expert=ray_expert(2.0))) == "forward"

    def test_threshold(self, tiny_scenarios):
        s = tiny_scenarios[0]
        assert turn_bucket(replace(s, expert=ray_expert(29.0))) == "forward"
        assert turn_bucket(replace(s, expert=ray_expert(31.0))) == "left"
        assert turn_bucket(replace(s, expert=ray_expert(-31.0))) == "right"
        assert turn_bucket(replace(s, expert=ray_expert(45.0))) == "left"

    def test_degenerate_expert_counts_as_forward(self, tiny_scenarios):
        # total displacement 0.08 m, below the 0.1 m turning-angle minimum
        crawl = Trajectory(
            tuple(Point2(0.01 * (j + 1), 0.0) for j in range(8)), 0.5, IDENTITY_POSE, (0.0,) * 8
        )
        assert turn_bucket(replace(tiny_scenarios[0], expert=crawl)) == "forward"


@pytest.fixture(scope="module")
def pool(tiny_scenarios):
    s = tiny_scenarios[0]
    crawl = Trajectory(tuple(Point2(0.01 * (j + 1), 0.0) for j in range(8)), 0.5,
                       IDENTITY_POSE, (0.0,) * 8)
    variants = [
        replace(s, expert=ray_expert(39.0)),
        replace(s, expert=ray_expert(-39.0)),
        replace(s, expert=ray_expert(2.0)),
        replace(s, expert=crawl),
    ]
    return list(tiny_scenarios) + variants


@pytest.fixture(scope="module")
def pool_labels(pool, tiny_vocab):
    return [label_vocabulary(s, tiny_vocab) for s in pool]


class TestSplitEval:
    def test_partition_counts(self, tiny_model, pool, pool_labels):
        out = split_eval(evaluate(tiny_model, pool, pool_labels))
        want = {"left": 0, "forward": 0, "right": 0}
        for s in pool:
            want[turn_bucket(s)] += 1
        for name in ("left", "forward", "right"):
            got = 0 if out[name] is None else out[name].n_scenarios
            assert got == want[name]
        assert sum(want.values()) == len(pool)

    def test_weighted_bucket_means_recover_global_mean(self, tiny_model, pool,
                                                       pool_labels):
        rep = evaluate(tiny_model, pool, pool_labels)
        out = split_eval(rep)
        total = sum(
            r.n_scenarios * r.aggregate_mean for r in out.values() if r is not None
        )
        assert total / len(pool) == pytest.approx(rep.aggregate_mean, abs=1e-9)

    def test_empty_bucket_is_none(self, tiny_model, tiny_scenarios, tiny_vocab):
        only_left = [replace(tiny_scenarios[0], expert=ray_expert(40.0))]
        out = split_eval(evaluate(tiny_model, only_left,
                                  [label_vocabulary(only_left[0], tiny_vocab)]))
        assert out["left"] is not None and out["left"].n_scenarios == 1
        assert out["right"] is None

    def test_precomputed_labels_route_to_buckets(self, tiny_model, pool,
                                                 pool_labels):
        out = split_eval(evaluate(tiny_model, pool, pool_labels))
        for name in ("left", "forward", "right"):
            pairs = [(s, lab) for s, lab in zip(pool, pool_labels)
                     if turn_bucket(s) == name]
            rows = [] if out[name] is None else out[name].rows
            assert len(rows) == len(pairs)
            for (s, lab), row in zip(pairs, rows):
                sel = infer(tiny_model, s).selected
                assert row["selected"] == sel

    def test_bucket_report_equals_evaluating_the_bucket(self, tiny_model, pool,
                                                        pool_labels):
        model = replace(tiny_model, config_hash="abc")
        out = split_eval(evaluate(model, pool, pool_labels))
        for name in ("left", "forward", "right"):
            pairs = [(s, lab) for s, lab in zip(pool, pool_labels)
                     if turn_bucket(s) == name]
            want = evaluate(model, [s for s, _ in pairs], [lab for _, lab in pairs])
            got = out[name]
            assert got.n_scenarios == want.n_scenarios
            assert got.subscore_means == want.subscore_means
            assert got.aggregate_mean == want.aggregate_mean
            assert got.config_hash == want.config_hash
            np.testing.assert_equal(got.rows, want.rows)


class TestOnePass:
    @pytest.fixture
    def infer_calls(self, monkeypatch):
        calls = []
        real = planner.infer

        def counting(model, s, **kw):
            calls.append(s)
            return real(model, s, **kw)

        monkeypatch.setattr(planner, "infer", counting)
        return calls

    def test_evaluate_infers_each_scene_once(self, tiny_model, pool, pool_labels,
                                             infer_calls):
        evaluate(tiny_model, pool, pool_labels)
        assert infer_calls == pool

    def test_studies_read_the_report(self, tiny_model, pool, pool_labels,
                                     infer_calls):
        rep = evaluate(tiny_model, pool, pool_labels)
        infer_calls.clear()
        oracle_study(rep, (1, 4, 24))
        split_eval(rep)
        assert infer_calls == []


class TestQualifyingEntries:
    @staticmethod
    def hand_labels(gt):
        gt = np.asarray(gt, dtype=np.float64)
        blank = np.zeros((len(gt), len(METRICS)))
        return LabelSet(
            subscores=blank, progress=np.zeros(len(gt)), pdms=gt * 0.5, epdms=gt,
            l2=np.zeros(len(gt)), nd=np.ones(len(gt)),
        )

    def test_floor_and_topn_union(self):
        lab = self.hand_labels([1.0, 0.995, 0.0, 0.75, 0.643])
        np.testing.assert_array_equal(qualifying_entries(lab), [0, 1, 3])

    def test_topn_alone_when_all_below_floor(self):
        lab = self.hand_labels([0.1, 0.5, 0.3, 0.2, 0.05])
        np.testing.assert_array_equal(qualifying_entries(lab), [1, 2, 3])

    def test_floor_alone(self):
        # four entries clear the floor, one more than the top 3
        lab = self.hand_labels([1.0, 0.995, 0.992, 0.9991, 0.2])
        np.testing.assert_array_equal(qualifying_entries(lab), [0, 1, 2, 3])

    def test_topn_larger_than_vocab(self):
        lab = self.hand_labels([0.1, 0.2])
        np.testing.assert_array_equal(qualifying_entries(lab), [0, 1])

    def test_version_routes_to_pdms(self):
        lab = self.hand_labels([0.1, 0.5, 0.3])
        # pdms is the halved copy, ordering unchanged
        np.testing.assert_array_equal(
            qualifying_entries(lab, version=1), qualifying_entries(lab, version=2)
        )


class TestHeadingHistogram:
    def test_counts_and_normalization(self, tiny_labels, tiny_vocab):
        hist = heading_histogram(tiny_labels, tiny_vocab, bins=8)
        assert hist["counts"].shape == (8,) and hist["edges"].shape == (9,)
        assert np.all(np.diff(hist["edges"]) > 0)
        want_total = sum(len(qualifying_entries(lab)) for lab in tiny_labels)
        assert hist["counts"].sum() == want_total
        assert hist["frequencies"].max() == pytest.approx(1.0)
        np.testing.assert_allclose(
            hist["frequencies"], hist["counts"] / hist["counts"].max()
        )

    def test_bins_cover_all_final_headings(self, tiny_labels, tiny_vocab):
        finals = tiny_vocab.headings[:, -1]
        hist = heading_histogram(tiny_labels, tiny_vocab, bins=6)
        assert hist["edges"][0] == pytest.approx(float(finals.min()))
        assert hist["edges"][-1] == pytest.approx(float(finals.max()))

    def test_empty_raises(self, tiny_vocab):
        with pytest.raises(EmptyDataset):
            heading_histogram([], tiny_vocab, bins=8)


class TestKlToUniform:
    def test_uniform_is_zero(self):
        assert kl_to_uniform(np.array([5, 5, 5, 5])) == 0.0

    def test_point_mass_is_log_bins(self):
        assert kl_to_uniform(np.array([7, 0, 0])) == pytest.approx(math.log(3.0))

    def test_scale_invariant(self):
        c = np.array([3.0, 1.0, 2.0, 6.0])
        assert kl_to_uniform(c) == pytest.approx(kl_to_uniform(3 * c), rel=1e-12)

    def test_flatter_is_smaller(self):
        assert kl_to_uniform(np.array([3, 1, 0, 0])) > kl_to_uniform(
            np.array([2, 1, 1, 0])
        )

    def test_hand_value(self):
        # p = (0.75, 0.25) over 2 bins
        want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert kl_to_uniform(np.array([3, 1])) == pytest.approx(want, rel=1e-12)

    def test_empty_histogram_raises(self):
        with pytest.raises(EmptyDataset):
            kl_to_uniform(np.zeros(4))

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=12).filter(sum))
    def test_nonnegative(self, counts):
        assert kl_to_uniform(np.array(counts)) >= -1e-12


def augment(scenarios, vocab, labels, **kw):
    return rotation_augmented_labels(scenarios, vocab, labels, TINY_PLANNER.theta, **kw)


class TestRotationAugmentedLabels:
    def test_count_and_order(self, tiny_scenarios, tiny_vocab, tiny_labels):
        out = augment(tiny_scenarios, tiny_vocab, tiny_labels, seed=3, copies=1)
        assert len(out) == 2 * len(tiny_scenarios)
        # even slots are the unrotated originals
        for lab, orig in zip(out[::2], tiny_labels):
            np.testing.assert_array_equal(lab.gt(2), orig.gt(2))

    def test_copies(self, tiny_scenarios, tiny_vocab, tiny_labels):
        out = augment(tiny_scenarios, tiny_vocab, tiny_labels, seed=3, copies=2)
        assert len(out) == 3 * len(tiny_scenarios)

    def test_deterministic_per_seed(self, tiny_scenarios, tiny_vocab, tiny_labels):
        a = augment(tiny_scenarios, tiny_vocab, tiny_labels, seed=5)
        b = augment(tiny_scenarios, tiny_vocab, tiny_labels, seed=5)
        for la, lb in zip(a, b):
            np.testing.assert_array_equal(la.subscores, lb.subscores)

    def test_supplied_originals_are_reused(self, tiny_scenarios, tiny_vocab, tiny_labels):
        out = augment(tiny_scenarios, tiny_vocab, tiny_labels, seed=5, copies=2)
        assert len(out) == 3 * len(tiny_labels)
        for lab, orig in zip(out[::3], tiny_labels):
            assert lab is orig

    def test_seed_changes_rotations(self, tiny_scenarios, tiny_vocab, tiny_labels):
        a = augment(tiny_scenarios, tiny_vocab, tiny_labels, seed=5)
        b = augment(tiny_scenarios, tiny_vocab, tiny_labels, seed=6)
        assert any(
            not np.array_equal(la.subscores, lb.subscores)
            for la, lb in zip(a[1::2], b[1::2])
        )


class TestFovSweep:
    def test_default_rows(self, tiny_scenarios):
        rows = fov_sweep(tiny_scenarios)
        assert [r["cameras"] for r in rows] == [1, 3, 5]
        assert [r["fov_halfangle"] for r in rows] == [FOV_1CAM, FOV_3CAM, FOV_5CAM]
        assert all(r["score"] is None for r in rows)
        tokens = [r["mean_tokens"] for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(tokens, tokens[1:]))

    def test_mean_tokens_match_observe(self, tiny_scenarios):
        rows = fov_sweep(tiny_scenarios)
        want = np.mean([len(observe(s, FOV_3CAM)) for s in tiny_scenarios])
        assert rows[1]["mean_tokens"] == pytest.approx(want, abs=1e-12)

    def test_scores_with_model(self, tiny_model, tiny_scenarios, tiny_labels):
        rows = fov_sweep(tiny_scenarios, model=tiny_model, labels=tiny_labels)
        for row in rows:
            assert row["score"] is not None and 0.0 <= row["score"] <= 100.0
        # recompute one row from scratch: masked inference against stored labels
        masked = replace(tiny_model, cfg=replace(tiny_model.cfg, fov=FOV_1CAM))
        agg = []
        for s, lab in zip(tiny_scenarios, tiny_labels):
            res = infer(masked, s)
            agg.append(lab.gt(2)[res.selected])
        assert rows[0]["score"] == pytest.approx(100.0 * np.mean(agg), abs=1e-12)

    def test_model_without_labels_raises(self, tiny_model, tiny_scenarios):
        with pytest.raises(ValueError):
            fov_sweep(tiny_scenarios, model=tiny_model)

    def test_empty_raises(self):
        with pytest.raises(EmptyDataset):
            fov_sweep([])


class TestTables:
    HEADERS = ["k", "score", "note"]
    ROWS = [[1, 22.5, "sel"], [16, 85.0, ""], [256, 88.1, "cap"]]

    def test_text_layout(self):
        text = table_text(self.HEADERS, self.ROWS)
        lines = text.split("\n")
        assert len(lines) == 2 + len(self.ROWS)
        assert set(lines[1]) <= {"-", " "}
        for row in self.ROWS:
            for cell in row:
                assert str(cell) in text
        assert not any(line.endswith(" ") for line in lines)

    def test_csv_roundtrip(self):
        out = table_csv(self.HEADERS, self.ROWS)
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == self.HEADERS
        assert rows[1:] == [[str(c) for c in row] for row in self.ROWS]

    def test_svg_fragment(self):
        svg = svg_bars([1.0, 2.0, 0.5], labels=["a", "b", "c"], title="spread")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") == 4  # background plus one bar per value
        for token in ("spread", ">a<", ">b<", ">c<"):
            assert token in svg

    def test_svg_no_labels(self):
        svg = svg_bars([3.0, 1.0])
        assert svg.count("<rect") == 3 and "<text" not in svg
