import math
import struct
import tracemalloc
import weakref
from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajsel import evaluator, planner
from trajsel.config import desk_config
from trajsel.diffcore import (
    CheckpointError,
    NonFiniteDetected,
    Tape,
    Var,
    ema_update,
    save_checkpoint,
)
from trajsel.evaluator import LabelSet, label_vocabulary
from trajsel.generator import generate_scenario
from trajsel.planner import (
    HEAD_METRICS,
    KOutOfRange,
    PlannerConfig,
    PlannerModel,
    ema_momentum,
    forward,
    imitation_targets,
    infer,
    init_params,
    loss_coarse,
    loss_refine,
    loss_soft,
    make_soft_labels,
    shift_toward,
    topk_filter,
    train,
)
from trajsel.scenario import TOKEN_KINDS, GenConfig, observe, rotate_scenario
from trajsel.vocab import VocabSpec, build_vocabulary, l2_to_entries

from test_diffcore import _chain_attention, _chain_cross_attention

TINY = VocabSpec(n_curvature=4, n_speed=3, n_accel=2)

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


@pytest.fixture(scope="module")
def tiny_ckpt(tiny_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    tiny_model.save(path)
    return path, path.read_bytes()


class TestPlannerConfig:
    def test_defaults(self):
        cfg = PlannerConfig()
        assert cfg.hidden_dim == 256
        assert cfg.coarse_layers == 3 and cfg.refine_layers == 3
        assert cfg.top_k == 256
        assert cfg.theta == pytest.approx(math.pi / 6.0)
        assert cfg.delta == 0.15
        assert cfg.imi_temperature == 1.0
        assert cfg.lr == 7.5e-5
        assert cfg.epochs == 6
        assert cfg.ema_mode == "pretrained"
        assert cfg.augment and cfg.soft_labels

    def test_validation(self):
        with pytest.raises(ValueError):
            PlannerConfig(refine_layers=-1)
        with pytest.raises(ValueError):
            PlannerConfig(delta=1.5)
        with pytest.raises(KOutOfRange):
            PlannerConfig(top_k=0)
        with pytest.raises(ValueError):
            PlannerConfig(imi_temperature=0.0)
        with pytest.raises(ValueError):
            PlannerConfig(ema_mode="frozen")
        with pytest.raises(ValueError):
            PlannerConfig(hidden_dim=10, attn_heads=4)
        for heads in (0, -4):
            with pytest.raises(ValueError, match="attn_heads"):
                PlannerConfig(attn_heads=heads)

    @pytest.mark.parametrize("changes, why", [
        ({"hidden_dim": 0}, "hidden_dim must be >= 1"),
        ({"ff_dim": 0}, "ff_dim must be >= 1"),
        ({"epochs": 0}, "epochs must be >= 1"),
        ({"batch_size": -1}, "batch_size must be >= 1"),
        ({"coarse_layers": 0}, "coarse_layers must be >= 1"),
        ({"lr": 0.0}, "lr must be positive and finite"),
        ({"lr": math.inf}, "lr must be positive and finite"),
        ({"feat_scale": -0.05}, "feat_scale must be positive and finite"),
        ({"feat_scale": math.nan}, "feat_scale must be positive and finite"),
        ({"theta": -0.1}, r"theta must lie in \[0, pi\]"),
        ({"theta": 3.2}, r"theta must lie in \[0, pi\]"),
    ])
    def test_refuses_what_cannot_train(self, changes, why):
        with pytest.raises(ValueError, match=why):
            PlannerConfig(**changes)

    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_rotation_range_edges_are_legal(self, theta):
        PlannerConfig(theta=theta)

    def test_dict_roundtrip(self):
        cfg = PlannerConfig(hidden_dim=64, attn_heads=2, refine_layers=0)
        assert PlannerConfig(**asdict(cfg)) == cfg

    def test_architecture_names_are_no_fields(self):
        # Read-only names that describe the one architecture: no config,
        # INI or checkpoint key.
        names = {"coarse_self_attn", "refine_self_attn", "single_stage"}
        assert not names & set(asdict(PlannerConfig()))
        with pytest.raises(TypeError):
            PlannerConfig(single_stage=True)


class TestEmaSchedule:
    def test_pretrained_waypoints(self):
        m = partial(ema_momentum, "pretrained")
        assert m(0.0) == 0.992
        assert m(1.5) == pytest.approx(0.994, abs=1e-15)
        assert m(3.0) == pytest.approx(0.996, abs=1e-15)
        assert m(3.0 + 1e-9) == 0.998
        assert m(100.0) == 0.998

    def test_scratch_waypoints(self):
        m = partial(ema_momentum, "scratch")
        assert m(0.0) == 0.0
        assert m(2.999) == 0.0
        assert m(3.0) == 0.992
        assert m(4.5) == pytest.approx(0.994, abs=1e-15)
        assert m(6.0) == pytest.approx(0.996, abs=1e-15)
        assert m(6.0 + 1e-9) == 0.998

    @given(
        st.sampled_from(["pretrained", "scratch"]),
        st.floats(0.0, 20.0),
        st.floats(0.0, 20.0),
    )
    def test_bounded_and_nondecreasing(self, mode, a, b):
        m = partial(ema_momentum, mode)
        lo, hi = sorted((a, b))
        assert 0.0 <= m(lo) <= m(hi) <= 1.0


class TestImitationTargets:
    def test_two_entry_example(self):
        t = imitation_targets(np.array([0.0, 1.0]), temperature=1.0)
        assert t[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)
        assert t[1] == pytest.approx(math.exp(-1.0) / (1.0 + math.exp(-1.0)), abs=1e-12)

    def test_equal_distances_are_uniform(self):
        t = imitation_targets(np.full(6, 2.5), temperature=1.0)
        np.testing.assert_allclose(t, 1.0 / 6.0, atol=1e-15)

    def test_high_temperature_flattens(self):
        d = np.array([0.0, 1.0, 2.0])
        t = imitation_targets(d, temperature=1e9)
        np.testing.assert_allclose(t, 1.0 / 3.0, atol=1e-6)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            imitation_targets(np.ones(3), temperature=0.0)

    @given(st.integers(1, 30), st.integers(0, 2**31 - 1))
    def test_distribution_and_order(self, n, seed):
        d = np.random.default_rng(seed).uniform(0.0, 40.0, size=n)
        t = imitation_targets(d, temperature=1.0)
        assert t.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(t >= 0.0)
        order = np.argsort(d)
        assert np.all(np.diff(t[order]) <= 1e-15)


class TestTopkFilter:
    def test_matches_brute_force(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            scores = rng.choice([0.1, 0.5, 0.9], size=n)  # force ties
            k = int(rng.integers(1, n + 1))
            want = sorted(range(n), key=lambda i: (-scores[i], i))[:k]
            np.testing.assert_array_equal(topk_filter(scores, k), want)

    def test_large_draw(self, rng):
        scores = rng.random(10_000)
        idx = topk_filter(scores, 256)
        cut = np.sort(scores)[-256]
        assert len(set(idx.tolist())) == 256
        assert scores[idx].min() >= cut

    def test_k_bounds(self):
        with pytest.raises(KOutOfRange):
            topk_filter(np.ones(4), 0)
        with pytest.raises(KOutOfRange):
            topk_filter(np.ones(4), 5)


class TestForward:
    def test_shapes_and_ranges(self, tiny_model, tiny_scenarios, tiny_vocab):
        tape = Tape()
        bound = tiny_model.student.bind(tape)
        fwd = forward(tape, bound, TINY_PLANNER, tiny_vocab, tiny_scenarios[0])
        n = len(tiny_vocab)
        assert fwd.coarse_combined.shape == (n,)
        assert fwd.topk.shape == (TINY_PLANNER.top_k,)
        assert fwd.refine_combined.shape == (TINY_PLANNER.top_k,)
        for m in ("imi",) + HEAD_METRICS:
            assert fwd.coarse_table[m].shape == (n,)
            assert np.all((fwd.coarse_table[m] > 0) & (fwd.coarse_table[m] < 1))
            assert fwd.refine_table[m].shape == (TINY_PLANNER.top_k,)
            assert np.all((fwd.refine_table[m] > 0) & (fwd.refine_table[m] < 1))
        assert len(fwd.refine_logits) == TINY_PLANNER.refine_layers
        assert fwd.selected == fwd.topk[int(np.argmax(fwd.refine_combined))]

    def test_observation_rows_follow_token_order(self, tiny_model, desk_scenarios):
        # Row i must be token i's kind MLP, with no reordering in between.
        kinds = set(range(len(TOKEN_KINDS)))
        tokens = next(t for t in (observe(s, TINY_PLANNER.fov) for s in desk_scenarios)
                      if set(t.kinds.tolist()) == kinds)
        p = tiny_model.student
        tape = Tape(record=False)
        out = planner.encode_observation(tape, p.bind(tape), tokens, TINY_PLANNER).value
        assert out.shape == (len(tokens), TINY_PLANNER.hidden_dim)
        for i, (k, f) in enumerate(zip(tokens.kinds, tokens.features)):
            pre = f"tok.{TOKEN_KINDS[k]}."
            x = f[None, :] * TINY_PLANNER.feat_scale
            h = np.maximum(x @ p[pre + "w1"] + p[pre + "b1"], 0.0)
            np.testing.assert_allclose(out[i], (h @ p[pre + "w2"] + p[pre + "b2"])[0],
                                       rtol=1e-12, atol=1e-15)

    def test_infer_selects_from_topk(self, tiny_model, tiny_scenarios):
        for s in tiny_scenarios:
            res = infer(tiny_model, s)
            assert res.selected in res.topk
            assert res.selected == res.topk[int(np.argmax(res.refine_combined))]
            assert type(res.selected) is int

    def test_single_stage_argmaxes_coarse(self, tiny_vocab, tiny_scenarios):
        cfg = replace(TINY_PLANNER, refine_layers=0)
        student = init_params(cfg, tiny_vocab, seed=9)
        model = PlannerModel(cfg, tiny_vocab, student, student.copy())
        res = infer(model, tiny_scenarios[0])
        assert res.topk is None and res.refine_combined is None
        assert res.refine_table is None
        assert res.selected == int(np.argmax(res.coarse_combined))

    def test_single_stage_holds_no_refine_parameters(self, tiny_vocab):
        names = init_params(replace(TINY_PLANNER, refine_layers=0), tiny_vocab, seed=0).names()
        full = init_params(TINY_PLANNER, tiny_vocab, seed=0).names()
        assert names == [n for n in full if not n.startswith("refine")]

    def test_infer_keeps_no_logits(self, tiny_model, tiny_scenarios):
        res = infer(tiny_model, tiny_scenarios[0])
        assert res.coarse_logits is None and res.refine_logits is None
        assert res.coarse_table["imi"].shape == (len(tiny_model.vocabulary),)

    def test_teacher_equals_student_at_init(self, tiny_model, tiny_scenarios):
        a = infer(tiny_model, tiny_scenarios[1], use_teacher=True)
        b = infer(tiny_model, tiny_scenarios[1], use_teacher=False)
        assert a.selected == b.selected
        np.testing.assert_array_equal(a.coarse_combined, b.coarse_combined)

    def test_deterministic(self, tiny_model, tiny_scenarios):
        a = infer(tiny_model, tiny_scenarios[2])
        b = infer(tiny_model, tiny_scenarios[2])
        assert a.selected == b.selected
        np.testing.assert_array_equal(a.refine_combined, b.refine_combined)

    def test_save_load_roundtrip(self, tmp_path, tiny_model, tiny_scenarios, tiny_vocab):
        path = tmp_path / "model.ckpt"
        tiny_model.save(path, step=7)
        loaded = PlannerModel.load(path, tiny_vocab)
        assert loaded.cfg == tiny_model.cfg
        for n in tiny_model.student.names():
            np.testing.assert_array_equal(loaded.student[n], tiny_model.student[n])
            np.testing.assert_array_equal(loaded.teacher[n], tiny_model.teacher[n])
        a = infer(tiny_model, tiny_scenarios[0])
        b = infer(loaded, tiny_scenarios[0])
        assert a.selected == b.selected
        np.testing.assert_array_equal(a.coarse_combined, b.coarse_combined)

    @pytest.mark.parametrize("change, names", [
        ({"coarse_layers": TINY_PLANNER.coarse_layers + 1},
         "coarse.out.lng of shape (1, 16) where its planner_config implies parameter "
         "coarse1.cross.lng"),
        ({"refine_layers": TINY_PLANNER.refine_layers + 1},
         "holds no parameter where its planner_config implies parameter refine1.self.lng"),
        ({"ff_dim": 2 * TINY_PLANNER.ff_dim}, "coarse0.ff.w1 of shape (16, 32)"),
        ({"refine_layers": 0}, "refine0.self.lng of shape (1, 16) where its planner_config "
                               "implies no parameter"),
    ], ids=["coarse-layers", "refine-layers", "ff-dim", "no-refine-layers"])
    def test_load_refuses_parameters_the_config_does_not_imply(
            self, tmp_path, tiny_model, change, names):
        path = tmp_path / "model.ckpt"
        cfg = replace(tiny_model.cfg, **change)
        save_checkpoint(path, tiny_model.student, tiny_model.teacher, step=0, config_hash="",
                        extra={"vocab_digest": tiny_model.vocabulary.digest,
                               "planner_config": asdict(cfg)})
        with pytest.raises(CheckpointError) as err:
            PlannerModel.load(path, tiny_model.vocabulary)
        assert str(path) in str(err.value) and names in str(err.value)

    def test_load_draws_no_random_numbers(self, tmp_path, tiny_model, monkeypatch):
        path = tmp_path / "model.ckpt"
        tiny_model.save(path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        assert PlannerModel.load(path, tiny_model.vocabulary).cfg == tiny_model.cfg

    def test_load_refuses_another_vocabulary(self, tmp_path, tiny_model):
        path = tmp_path / "model.ckpt"
        tiny_model.save(path)
        other = build_vocabulary(replace(TINY, n_accel=1))
        with pytest.raises(CheckpointError, match="model.ckpt"):
            PlannerModel.load(path, other)

    def test_load_refuses_another_digest_of_the_same_spec(self, tmp_path, tiny_model):
        # the entries a spec builds changed since the checkpoint was saved
        path = tmp_path / "model.ckpt"
        vocabulary = tiny_model.vocabulary
        save_checkpoint(path, tiny_model.student, tiny_model.teacher, step=0, config_hash="",
                        extra={"planner_config": asdict(tiny_model.cfg),
                               "vocab_spec": asdict(vocabulary.spec),
                               "vocab_digest": "0" * 64})
        with pytest.raises(CheckpointError) as err:
            PlannerModel.load(path, vocabulary)
        assert str(path) in str(err.value)
        assert "000000000000.." in str(err.value) and vocabulary.digest[:12] in str(err.value)

    @pytest.mark.parametrize("planner_config, names", [
        (None, "no planner_config"),
        ({**asdict(TINY_PLANNER), "bogus": 1}, "unknown planner_config key bogus"),
        ({k: v for k, v in asdict(TINY_PLANNER).items() if k != "augment"},
         "missing planner_config key augment"),
        ({**asdict(TINY_PLANNER), "top_k": 0}, "top_k 0"),
        ({**asdict(TINY_PLANNER), "coarse_self_attn": False, "refine_self_attn": True,
          "single_stage": False},
         "unknown planner_config key coarse_self_attn, refine_self_attn, single_stage"),
    ], ids=["missing", "unknown-key", "missing-key", "invalid-value", "removed-keys"])
    def test_load_refuses_bad_planner_config(self, tmp_path, tiny_model,
                                             planner_config, names):
        path = tmp_path / "model.ckpt"
        extra = {"vocab_digest": tiny_model.vocabulary.digest}
        if planner_config is not None:
            extra["planner_config"] = planner_config
        save_checkpoint(path, tiny_model.student, tiny_model.teacher, step=0, config_hash="",
                        extra=extra)
        with pytest.raises(CheckpointError) as err:
            PlannerModel.load(path, tiny_model.vocabulary)
        assert str(path) in str(err.value) and names in str(err.value)


@pytest.fixture(scope="module")
def desk_scenes():
    """The desk vocabulary and two scenes, as generated and then rotated."""
    app = desk_config()
    scenes = [generate_scenario(seed, app.generator) for seed in (21, 22)]
    return build_vocabulary(app.generator.vocab), scenes + [
        rotate_scenario(s, 0.37) for s in scenes]


def _desk_model(vocabulary, **changes):
    cfg = replace(desk_config().planner, **changes)
    student = init_params(cfg, vocabulary, seed=4)
    return PlannerModel(cfg, vocabulary, student, student.copy())


def _assert_same_pass(res, fwd):
    """`infer`'s result holds the bytes of forward pass `fwd`."""
    assert res.coarse_combined.tobytes() == fwd.coarse_combined.tobytes()
    assert res.selected == fwd.selected
    tables = [(res.coarse_table, fwd.coarse_table)]
    if fwd.topk is None:
        assert res.topk is None and res.refine_combined is None
        assert res.refine_table is None
    else:
        assert res.topk.tobytes() == fwd.topk.tobytes()
        assert res.refine_combined.tobytes() == fwd.refine_combined.tobytes()
        tables.append((res.refine_table, fwd.refine_table))
    for got, want in tables:
        assert got.keys() == want.keys()
        for m in want:
            assert got[m].tobytes() == want[m].tobytes(), m


class TestInferRecordsNoTape:
    @pytest.mark.parametrize("changes", [{}, {"refine_layers": 0}])
    def test_bit_identical_to_recording_forward(self, desk_scenes, changes):
        vocabulary, scenes = desk_scenes
        model = _desk_model(vocabulary, **changes)
        for s in scenes:
            res = infer(model, s)
            tape = Tape()
            _assert_same_pass(res, forward(tape, model.teacher.bind(tape), model.cfg,
                                           vocabulary, s))

    @pytest.mark.parametrize("changes", [{}, {"refine_layers": 0}],
                             ids=["desk", "desk_single_stage"])
    def test_coarse_stage_rows(self, desk_scenes, monkeypatch, changes):
        # inference and a recording forward decode every entry once
        vocabulary, scenes = desk_scenes
        model = _desk_model(vocabulary, **changes)
        seen = []
        coarse_stage = planner.coarse_stage

        def counted(tape, bound, E, F, cfg, Fn):
            seen.append(F.value.shape[0])
            return coarse_stage(tape, bound, E, F, cfg, Fn)

        monkeypatch.setattr(planner, "coarse_stage", counted)
        infer(model, scenes[0])
        tape = Tape()
        forward(tape, model.student.bind(tape), model.cfg, vocabulary, scenes[0])
        assert seen == [len(vocabulary)] * 2 == [384] * 2

    def test_peak_memory_below_half_of_recording_forward(self, desk_scenes):
        vocabulary, scenes = desk_scenes
        model = _desk_model(vocabulary)
        infer(model, scenes[0])  # warm-up, so one-time allocations are not counted

        def traced_peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def recording():
            tape = Tape()
            forward(tape, model.teacher.bind(tape), model.cfg, vocabulary, scenes[0])

        unrecorded = traced_peak(lambda: infer(model, scenes[0]))
        recorded = traced_peak(recording)
        assert unrecorded < 0.5 * recorded, (unrecorded, recorded)


class TestBlockedCoarsePass:
    """With BLOCK_ROWS at 100, the desk grid's 384 entries decode in 3 blocks."""

    @pytest.fixture()
    def coarse_rows(self, monkeypatch):
        """Rows of the first operand of every Tape op run inside `coarse_stage`,
        but for `gather_rows`, which cuts the blocks from the grid."""
        monkeypatch.setattr(planner, "BLOCK_ROWS", 100)
        rows, inside = [], []
        stage = planner.coarse_stage

        def spied_stage(*args):
            inside.append(True)
            try:
                return stage(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(planner, "coarse_stage", spied_stage)
        for name, op in vars(Tape).items():
            if callable(op) and not name.startswith("_") and name not in (
                    "var", "backward", "gather_rows"):
                def spied(tape, *args, _op=op, **kwargs):
                    if inside and isinstance(args[0], Var):
                        rows.append(args[0].value.shape[0])
                    return _op(tape, *args, **kwargs)

                monkeypatch.setattr(Tape, name, spied)
        return rows

    def test_blocks_give_recording_forward_bits(self, desk_scenes, coarse_rows):
        vocabulary, scenes = desk_scenes
        model = _desk_model(vocabulary)
        for s in scenes:
            coarse_rows.clear()
            res = infer(model, s)
            assert max(coarse_rows) < 2 * planner.BLOCK_ROWS <= len(vocabulary)
            tape = Tape()
            _assert_same_pass(res, forward(tape, model.teacher.bind(tape), model.cfg,
                                           vocabulary, s))


def _fresh_forward(model, s, use_teacher=True):
    """A non-recording forward that encodes the entries itself."""
    store = model.teacher if use_teacher else model.student
    tape = Tape(record=False)
    return forward(tape, store.bind(tape), model.cfg, model.vocabulary, s)


@pytest.fixture()
def encodes(monkeypatch):
    """Counts the calls of `planner.encode_trajectories`."""
    calls = []
    encode = planner.encode_trajectories

    def counted(*args):
        calls.append(args)
        return encode(*args)

    monkeypatch.setattr(planner, "encode_trajectories", counted)
    return calls


class TestLoadedModelReusesEncoding:
    @pytest.fixture()
    def loaded(self, tmp_path, desk_scenes):
        # Distinct teacher weights, so use_teacher picks what it scores with.
        def load(**changes):
            vocabulary, _ = desk_scenes
            model = _desk_model(vocabulary, **changes)
            model.teacher = init_params(model.cfg, vocabulary, seed=5)
            path = tmp_path / "model.ckpt"
            model.save(path)
            return PlannerModel.load(path, vocabulary)

        return load

    @pytest.mark.parametrize("changes", [{}, {"refine_layers": 0}])
    def test_every_call_gives_a_fresh_forwards_bytes(self, desk_scenes, loaded, encodes,
                                                     changes):
        _, scenes = desk_scenes
        model = loaded(**changes)
        for _ in range(2):
            for use_teacher in (True, False):
                for s in scenes:
                    _assert_same_pass(infer(model, s, use_teacher=use_teacher),
                                      _fresh_forward(model, s, use_teacher))
        # once per store by infer, then once per _fresh_forward
        assert len(encodes) == 2 + 2 * 2 * len(scenes)

    def test_loaded_weights_are_read_only(self, loaded):
        model = loaded()
        for store in (model.student, model.teacher):
            assert store.frozen
            with pytest.raises(ValueError, match="read-only"):
                store["traj.w1"][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ema_update(model.teacher, model.student.copy(), 0.5)
        assert not model.teacher.copy().frozen

    def test_writable_model_encodes_every_call(self, desk_scenes, encodes):
        vocabulary, scenes = desk_scenes
        model = _desk_model(vocabulary)
        before = infer(model, scenes[0])
        ema_update(model.teacher, init_params(model.cfg, vocabulary, seed=5), 0.5)
        after = infer(model, scenes[0])
        assert len(encodes) == 2
        assert after.coarse_combined.tobytes() != before.coarse_combined.tobytes()
        _assert_same_pass(after, _fresh_forward(model, scenes[0]))

    def test_replaced_config_encodes_anew(self, desk_scenes, loaded):
        _, scenes = desk_scenes
        model = loaded()
        infer(model, scenes[0])
        scaled = replace(model, cfg=replace(model.cfg, feat_scale=0.08))
        res = infer(scaled, scenes[0])
        _assert_same_pass(res, _fresh_forward(scaled, scenes[0]))
        assert res.coarse_combined.tobytes() != infer(model, scenes[0]).coarse_combined.tobytes()


class TestCheckpointLoad:
    def test_peak_below_twice_parameter_bytes(self, tmp_path, desk_scenes):
        # Each blob is read once, into the array the store keeps, and a
        # loaded store holds no gradient buffers.
        vocabulary, _ = desk_scenes
        model = _desk_model(vocabulary)
        path = tmp_path / "desk.ckpt"
        model.save(path)
        param_bytes = sum(store[n].nbytes for store in (model.student, model.teacher)
                          for n in store.names())
        tracemalloc.start()
        try:
            loaded = PlannerModel.load(path, vocabulary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * param_bytes, (peak, param_bytes)
        for n in model.student.names():
            assert loaded.student[n].tobytes() == model.student[n].tobytes()
            assert loaded.teacher[n].tobytes() == model.teacher[n].tobytes()

    @settings(max_examples=200)
    @given(data=st.data())
    def test_header_bit_flip_loads_or_names_file(self, tiny_ckpt, tiny_vocab, data):
        # Any bit of the preamble or the JSON header; the blobs after them
        # are raw floats that any bit pattern fills.
        path, blob = tiny_ckpt
        (hlen,) = struct.unpack_from("<I", blob, 8)
        bit = data.draw(st.integers(0, 8 * (12 + hlen) - 1))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        bad = path.with_name("flipped.ckpt")
        bad.write_bytes(bytes(flipped))
        try:
            PlannerModel.load(bad, tiny_vocab)
        except CheckpointError as e:
            assert str(bad) in str(e)


class TestFullModelGradient:
    def test_sampled_parameter_gradients(self, tiny_vocab, tiny_scenarios, tiny_labels, rng):
        self._check_gradients(TINY_PLANNER, tiny_vocab, tiny_scenarios[0], tiny_labels[0], rng)

    def test_blocked_coarse_stage(self, tiny_vocab, tiny_scenarios, tiny_labels, rng,
                                  monkeypatch):
        # Three blocks of 8 entries: every block's gradient reaches the
        # entry encoder and layer 0's norm through its rows.
        monkeypatch.setattr(planner, "BLOCK_ROWS", 8)
        self._check_gradients(TINY_PLANNER, tiny_vocab, tiny_scenarios[0], tiny_labels[0],
                              rng, also=("traj.w1", "traj.b2", "coarse0.cross.lng"))

    @staticmethod
    def _check_gradients(cfg, vocab, s, labels, rng, also=()):
        d_exp = l2_to_entries(vocab.positions, s.expert.xy)
        targets = imitation_targets(d_exp, cfg.imi_temperature)
        store = init_params(cfg, vocab, seed=1)

        def loss_of(st):
            tape = Tape()
            bound = st.bind(tape)
            fwd = forward(tape, bound, cfg, vocab, s)
            total = loss_coarse(tape, fwd, labels, targets)
            extra = loss_refine(tape, fwd, labels, d_exp, cfg.imi_temperature)
            if extra is not None:
                total = tape.add(total, extra)
            return total, tape, bound

        total, tape, bound = loss_of(store)
        tape.backward(total)
        store.collect(bound)

        h = 1e-5

        def check(name):
            arr = store[name]
            i = int(rng.integers(arr.shape[0]))
            j = int(rng.integers(arr.shape[1]))
            ana = store.grad(name)[i, j]
            keep = arr[i, j]
            arr[i, j] = keep + h
            up, _, _ = loss_of(store)
            arr[i, j] = keep - h
            dn, _, _ = loss_of(store)
            arr[i, j] = keep
            num = (up.value[0, 0] - dn.value[0, 0]) / (2.0 * h)
            rel = abs(num - ana) / max(1.0, abs(num), abs(ana))
            assert rel < 1e-4, f"{name}[{i},{j}]: analytic {ana}, numeric {num}"

        names = store.names()
        for _ in range(12):
            check(names[int(rng.integers(len(names)))])
        # every self-attention parameter, all of them the refine stage's
        self_attn = [name for name in names if ".self." in name]
        assert self_attn
        for name in self_attn + list(also):
            check(name)


class TestSampleStep:
    """One training sample's backward pass, as train() runs it."""

    @staticmethod
    def _step(cfg, vocab, s, labels):
        student = init_params(cfg, vocab, seed=4)
        model = PlannerModel(cfg, vocab, student, student.copy())
        losses = planner._sample_step(model, s, labels, np.random.default_rng(2),
                                      evaluator.DEFAULT_EVAL_CONFIG, True, 2)
        return losses, {n: student.grad(n).tobytes() for n in student.names()}

    def test_gradients_equal_the_attention_chain(self, tiny_vocab, tiny_scenarios,
                                                 tiny_labels, monkeypatch):
        # Self-attention runs in the refine stage only.
        args = (TINY_PLANNER, tiny_vocab, tiny_scenarios[0], tiny_labels[0])
        fused = self._step(*args)
        monkeypatch.setattr(Tape, "attention", _chain_attention)
        chain = self._step(*args)
        assert fused == chain

    def test_gradients_match_the_cross_attention_chain(self, tiny_vocab, tiny_scenarios,
                                                       tiny_labels, monkeypatch):
        # Reassociation moves values by about 1e-15 relative. The imitation
        # heads' output biases get a gradient that is zero but for rounding
        # (a shift of every imitation logit leaves the softmax unchanged),
        # which the absolute tolerance absorbs.
        args = (TINY_PLANNER, tiny_vocab, tiny_scenarios[0], tiny_labels[0])
        losses, grads = self._step(*args)
        monkeypatch.setattr(Tape, "cross_attention", _chain_cross_attention)
        chain_losses, chain_grads = self._step(*args)
        np.testing.assert_allclose(losses, chain_losses, rtol=1e-12)
        assert grads.keys() == chain_grads.keys()
        for name, g in grads.items():
            np.testing.assert_allclose(np.frombuffer(g), np.frombuffer(chain_grads[name]),
                                       rtol=1e-9, atol=1e-12, err_msg=name)

    def test_inputs_take_no_gradient(self, tiny_vocab, tiny_scenarios, tiny_labels,
                                     monkeypatch):
        # Token rows and entry waypoints are leaves made with requires_grad=False.
        leaves = []
        real = Tape.var

        def var(tape, value, **kwargs):
            leaves.append(real(tape, value, **kwargs))
            return leaves[-1]

        monkeypatch.setattr(Tape, "var", var)
        self._step(TINY_PLANNER, tiny_vocab, tiny_scenarios[0], tiny_labels[0])
        inputs = [leaf for leaf in leaves if not leaf.requires_grad]
        shapes = {leaf.value.shape for leaf in inputs}
        assert tiny_vocab.flat_waypoints.shape in shapes
        assert any(shape[1] != tiny_vocab.flat_waypoints.shape[1] for shape in shapes)
        assert all(leaf.grad is None for leaf in inputs)
        assert any(leaf.grad is not None for leaf in leaves if leaf.requires_grad)


class TestSoftLabels:
    def _label_set(self, y):
        n = len(y)
        mat = np.tile(np.asarray(y, dtype=np.float64)[:, None], (1, 10))
        return LabelSet(
            subscores=mat,
            progress=np.zeros(n),
            pdms=np.zeros(n),
            epdms=np.zeros(n),
            l2=np.zeros(n),
            nd=np.ones(n),
        )

    def test_clip_extremes(self):
        labels = self._label_set([0.0, 1.0])
        teacher = {m: np.array([1.0, 0.0]) for m in HEAD_METRICS}
        yhat = make_soft_labels(teacher, labels, delta=0.15)
        for m in HEAD_METRICS:
            assert yhat[m][0] == pytest.approx(0.15, abs=1e-15)
            assert yhat[m][1] == pytest.approx(0.85, abs=1e-15)

    def test_teacher_within_delta_passes_through(self):
        labels = self._label_set([0.5])
        teacher = {m: np.array([0.58]) for m in HEAD_METRICS}
        yhat = make_soft_labels(teacher, labels, delta=0.15)
        for m in HEAD_METRICS:
            assert yhat[m][0] == pytest.approx(0.58, abs=1e-15)

    def test_zero_delta_returns_labels(self):
        labels = self._label_set([0.0, 0.3, 1.0])
        teacher = {m: np.array([0.9, 0.1, 0.2]) for m in HEAD_METRICS}
        yhat = make_soft_labels(teacher, labels, delta=0.0)
        for m in HEAD_METRICS:
            np.testing.assert_array_equal(yhat[m], labels.metric(m))

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
        st.floats(0.0, 1.0),
    )
    def test_bounded_by_delta(self, ys, ts, delta):
        labels = self._label_set(ys)
        teacher = {m: np.array(ts[: len(ys)]) for m in HEAD_METRICS}
        yhat = make_soft_labels(teacher, labels, delta)
        for m in HEAD_METRICS:
            assert np.all(np.abs(yhat[m] - labels.metric(m)) <= delta + 1e-12)

    def test_shift_examples(self):
        expert = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
        selected = np.array([[3.0, 4.0], [1.3, 1.4], [5.0, 5.0]])
        out = shift_toward(expert, selected)
        np.testing.assert_allclose(out[0], [0.6, 0.8], atol=1e-12)
        np.testing.assert_allclose(out[1], [1.3, 1.4], atol=1e-12)  # within reach
        np.testing.assert_allclose(out[2], [5.0, 5.0], atol=1e-15)  # no offset

    @given(st.integers(0, 2**31 - 1))
    def test_shift_capped_and_collinear(self, seed):
        r = np.random.default_rng(seed)
        expert = r.uniform(-20, 20, size=(8, 2))
        selected = r.uniform(-20, 20, size=(8, 2))
        out = shift_toward(expert, selected)
        moved = np.linalg.norm(out - expert, axis=1)
        assert np.all(moved <= 1.0 + 1e-12)
        full = selected - expert
        cross = full[:, 0] * (out - expert)[:, 1] - full[:, 1] * (out - expert)[:, 0]
        assert np.all(np.abs(cross) < 1e-9)

    def test_soft_loss_degenerates_to_hard(self, tiny_model, tiny_scenarios, tiny_labels, tiny_vocab):
        # delta = 0 and teacher targets equal to the expert targets make
        # the distillation term coincide with the coarse loss
        s, labels = tiny_scenarios[0], tiny_labels[0]
        d_exp = l2_to_entries(tiny_vocab.positions, s.expert.xy)
        targets = imitation_targets(d_exp, 1.0)
        tape = Tape()
        bound = tiny_model.student.bind(tape)
        fwd = forward(tape, bound, TINY_PLANNER, tiny_vocab, s)
        hard = loss_coarse(tape, fwd, labels, targets)
        teacher_table = {m: labels.metric(m) for m in HEAD_METRICS}
        yhat = make_soft_labels(teacher_table, labels, delta=0.0)
        soft = loss_soft(tape, fwd, yhat, targets)
        assert soft.value[0, 0] == hard.value[0, 0]


class TestTrain:
    def test_empty_set_rejected(self, tiny_vocab):
        with pytest.raises(ValueError):
            train([], tiny_vocab, TINY_PLANNER, seed=0, labels=[])

    def test_labels_must_match_scenarios(self, tiny_scenarios, tiny_vocab, tiny_labels):
        with pytest.raises(ValueError):
            train(tiny_scenarios, tiny_vocab, TINY_PLANNER, seed=0,
                  labels=list(tiny_labels)[:-1])

    def test_step_count_and_log(self, tiny_scenarios, tiny_vocab, tiny_labels):
        seen = []
        res = train(
            tiny_scenarios, tiny_vocab, TINY_PLANNER, seed=0,
            labels=list(tiny_labels), progress=seen.append,
        )
        assert res.steps == 2  # ceil(3 / 2) batches x 1 epoch
        assert not res.aborted
        assert len(res.log) == res.steps
        for rec in res.log:
            assert set(rec) == {"step", "L_ori", "L_aug", "L_soft", "ema_m", "wall_ms"}
            assert rec["L_ori"] > 0.0 and rec["L_aug"] > 0.0 and rec["L_soft"] > 0.0
            assert rec["ema_m"] == 0.0  # scratch mode, first epochs
        assert seen == res.log

    def test_no_refine_layers_trains_and_infers(self, tiny_scenarios, tiny_vocab, tiny_labels):
        # A single stage: only the coarse loss, and no refine parameters to step.
        cfg = replace(TINY_PLANNER, refine_layers=0)
        res = train(tiny_scenarios, tiny_vocab, cfg, seed=0, labels=list(tiny_labels))
        assert res.steps == 2 and not res.aborted
        assert 0 <= infer(res.model, tiny_scenarios[0]).selected < len(tiny_vocab)

    def test_scratch_teacher_tracks_student_exactly(self, tiny_scenarios, tiny_vocab, tiny_labels):
        res = train(tiny_scenarios, tiny_vocab, TINY_PLANNER, seed=3,
                    labels=list(tiny_labels))
        for n in res.model.student.names():
            np.testing.assert_array_equal(res.model.teacher[n], res.model.student[n])

    def test_pretrained_teacher_lags_student(self, tiny_scenarios, tiny_vocab, tiny_labels):
        cfg = PlannerConfig(**{**asdict(TINY_PLANNER), "ema_mode": "pretrained"})
        res = train(tiny_scenarios, tiny_vocab, cfg, seed=3, labels=list(tiny_labels))
        assert res.log[0]["ema_m"] == 0.992
        diffs = sum(
            float(np.abs(res.model.teacher[n] - res.model.student[n]).max())
            for n in res.model.student.names()
        )
        assert diffs > 0.0

    def test_bit_identical_reruns(self, tiny_scenarios, tiny_vocab, tiny_labels):
        a = train(tiny_scenarios, tiny_vocab, TINY_PLANNER, seed=5,
                  labels=list(tiny_labels))
        b = train(tiny_scenarios, tiny_vocab, TINY_PLANNER, seed=5,
                  labels=list(tiny_labels))
        for n in a.model.student.names():
            np.testing.assert_array_equal(a.model.student[n], b.model.student[n])
        for ra, rb in zip(a.log, b.log):
            assert ra["L_ori"] == rb["L_ori"]
            assert ra["L_aug"] == rb["L_aug"]
            assert ra["L_soft"] == rb["L_soft"]

    def test_seed_changes_model(self, tiny_scenarios, tiny_vocab, tiny_labels):
        a = train(tiny_scenarios, tiny_vocab, TINY_PLANNER, seed=0,
                  labels=list(tiny_labels))
        b = train(tiny_scenarios, tiny_vocab, TINY_PLANNER, seed=1,
                  labels=list(tiny_labels))
        assert any(
            not np.array_equal(a.model.student[n], b.model.student[n])
            for n in a.model.student.names()
        )

    def test_loss_decreases_on_overfit(self, tiny_scenarios, tiny_vocab, tiny_labels):
        cfg = PlannerConfig(
            hidden_dim=16, coarse_layers=1, refine_layers=1, attn_heads=2,
            ff_dim=32, top_k=8, batch_size=1, epochs=30, lr=2e-3,
            ema_mode="scratch", augment=False, soft_labels=False,
        )
        res = train(tiny_scenarios[:1], tiny_vocab, cfg, seed=2,
                    labels=[tiny_labels[0]])
        first = res.log[0]["L_ori"]
        last = res.log[-1]["L_ori"]
        assert last < first * 0.8

    @staticmethod
    def _teacher_calls_per_step(monkeypatch, cfg, scenarios, vocab, labels):
        """Teacher `infer` calls made in each optimizer step of one train run."""
        calls, per_step = [], []
        real = planner.infer

        def counted(model, s, *args, **kwargs):
            calls.append(s)
            return real(model, s, *args, **kwargs)

        monkeypatch.setattr(planner, "infer", counted)
        res = train(scenarios, vocab, cfg, seed=0, labels=labels,
                    progress=lambda rec: per_step.append(len(calls) - sum(per_step)))
        assert len(per_step) == res.steps
        return per_step

    def test_scratch_teacher_pass_skipped_while_momentum_is_zero(
            self, tiny_scenarios, tiny_vocab, tiny_labels, monkeypatch):
        # 3 scenes in batches of 2: two steps (2 + 1 samples) per epoch.
        cfg = replace(TINY_PLANNER, epochs=4)
        per_step = self._teacher_calls_per_step(monkeypatch, cfg, tiny_scenarios,
                                                tiny_vocab, list(tiny_labels))
        # Epochs 0-2 run with momentum 0. The first step of epoch 3 still
        # sees the student's weights; its EMA step (momentum 0.992) parts them.
        assert per_step == [0, 0, 0, 0, 0, 0, 0, 1]

    def test_pretrained_teacher_pass_once_per_sample_after_first_step(
            self, tiny_scenarios, tiny_vocab, tiny_labels, monkeypatch):
        cfg = replace(TINY_PLANNER, epochs=2, ema_mode="pretrained")
        per_step = self._teacher_calls_per_step(monkeypatch, cfg, tiny_scenarios,
                                                tiny_vocab, list(tiny_labels))
        # The teacher is the student's copy before the first step only.
        assert per_step == [0, 1, 2, 1]

    def test_nonfinite_aborts_and_restores(self, tiny_scenarios, tiny_vocab, tiny_labels, monkeypatch):
        calls = {"n": 0}
        real = planner.adam_step

        def flaky(store, state):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise NonFiniteDetected("injected")
            real(store, state)

        monkeypatch.setattr(planner, "adam_step", flaky)
        res = train(tiny_scenarios, tiny_vocab, TINY_PLANNER, seed=0,
                    labels=list(tiny_labels))
        assert res.aborted
        assert res.steps == 1
        fresh = init_params(TINY_PLANNER, tiny_vocab, seed=0)
        for n in fresh.names():
            np.testing.assert_array_equal(res.model.student[n], fresh[n])

    def test_one_sample_graph_alive_at_a_time(self, desk_vocab, desk_scenarios,
                                              desk_labels, monkeypatch):
        # Each forward's graph stays reachable through its coarse logits
        # until nothing holds the pass or a loss built on it. Within a
        # sample the rotated view runs while the original view's pass is
        # alive; a sample's graph must be gone before the next one starts.
        passes, alive_at_start = [], []
        real = planner.forward

        def tracked(*args, **kwargs):
            alive_at_start.append(sum(r() is not None for r in passes))
            fwd = real(*args, **kwargs)
            passes.append(weakref.ref(fwd.coarse_logits["imi"].value))
            return fwd

        monkeypatch.setattr(planner, "forward", tracked)
        cfg = replace(desk_config().planner, epochs=1, batch_size=2)
        train(desk_scenarios[:4], desk_vocab, cfg, seed=0, labels=desk_labels[:4])
        assert len(alive_at_start) == 8  # 4 samples x (original + rotated)
        assert max(alive_at_start) <= 1, alive_at_start

