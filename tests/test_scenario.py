import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajsel.evaluator import EvaluatorConfig, label_vocabulary, subscores
from trajsel.generator import GenerationFailed, generate_scenario
from trajsel.geom import (
    IDENTITY_POSE,
    ConvexPolygon,
    Point2,
    Pose2,
    footprint,
    polygons_intersect,
    turning_angle,
)
from trajsel.scenario import (
    FOV_1CAM,
    FOV_3CAM,
    FOV_5CAM,
    TOKEN_DIM,
    TOKEN_KINDS,
    Agent,
    DatasetRecord,
    EgoHistory,
    FormatVersionMismatch,
    GenConfig,
    Lane,
    Scenario,
    TrafficLight,
    load_dataset,
    observe,
    rotate_scenario,
    sample_rotation,
    save_dataset,
    scenario_from_dict,
    scenario_to_dict,
)


def token_positions(tokens):
    """Source position of each token, matching the kind conventions."""
    out = np.zeros((len(tokens), 2))
    for i, (kind, feat) in enumerate(zip(tokens.kinds, tokens.features)):
        name = TOKEN_KINDS[kind]
        if name == "ego":
            out[i] = (0.0, 0.0)
        elif name == "light":
            out[i] = (0.5 * (feat[0] + feat[2]), 0.5 * (feat[1] + feat[3]))
        else:
            out[i] = feat[:2]
    return out


class TestValidation:
    def test_agent_speed_range(self):
        with pytest.raises(ValueError):
            Agent(Pose2(Point2(0, 0), 0.0), speed=-1.0)
        with pytest.raises(ValueError):
            Agent(Pose2(Point2(0, 0), 0.0), speed=25.0)

    def test_light_state(self):
        line = (Point2(0, -1), Point2(0, 1))
        with pytest.raises(ValueError):
            TrafficLight(line, "amber")
        assert TrafficLight(line, "red").is_red
        assert not TrafficLight(line, "green").is_red

    def test_lane_needs_matching_directions(self):
        with pytest.raises(ValueError):
            Lane((Point2(0, 0), Point2(1, 0)), (0.0,))
        with pytest.raises(ValueError):
            Lane((Point2(0, 0),), (0.0,))

    def test_drivable_cells_are_quadrilaterals(self, desk_scenarios):
        s = desk_scenarios[0]
        pentagon = tuple(Point2(math.cos(a), math.sin(a))
                         for a in np.arange(5) * (2.0 * math.pi / 5.0))
        for cell in (ConvexPolygon(s.drivable[0].vertices[:3]), ConvexPolygon(pentagon)):
            with pytest.raises(ValueError, match=r"drivable cell 0 has \d vertices"):
                replace(s, drivable=(cell, *s.drivable[1:]))

    def test_route_must_start_at_origin(self, desk_scenarios):
        s = desk_scenarios[0]
        bad = tuple([Point2(1.0, 1.0)] + list(s.route[1:]))
        with pytest.raises(ValueError):
            replace(s, route=bad)


class TestSampleRotation:
    def test_bounds_and_spread(self):
        rng = np.random.default_rng(11)
        draws = np.array([sample_rotation(rng, math.pi / 6) for _ in range(4000)])
        assert np.all(np.abs(draws) <= math.pi / 6)
        assert abs(draws.mean()) < 0.02
        # both halves of the support get mass
        assert (draws > math.pi / 12).any() and (draws < -math.pi / 12).any()

    def test_reproducible(self):
        a = [sample_rotation(np.random.default_rng(5), 0.5) for _ in range(3)]
        b = [sample_rotation(np.random.default_rng(5), 0.5) for _ in range(3)]
        assert a == b

    @given(st.floats(1e-3, math.pi), st.integers(0, 2**31 - 1))
    def test_support(self, theta_max, seed):
        v = sample_rotation(np.random.default_rng(seed), theta_max)
        assert -theta_max <= v <= theta_max


class TestRotateScenario:
    def test_zero_is_identity(self, desk_scenarios):
        s = desk_scenarios[0]
        r = rotate_scenario(s, 0.0)
        np.testing.assert_array_equal(r.route_xy, s.route_xy)
        np.testing.assert_array_equal(r.expert.xy, s.expert.xy)
        assert r.agents == s.agents

    def test_world_turns_opposite_to_ego(self, desk_scenarios):
        # an ego turn to the left must swing the route to the right
        s = desk_scenarios[0]
        theta = 0.4
        r = rotate_scenario(s, theta)
        c, si = math.cos(-theta), math.sin(-theta)
        rot = np.array([[c, -si], [si, c]])
        np.testing.assert_allclose(r.route_xy, s.route_xy @ rot.T, atol=1e-12)
        for a, b in zip(s.agents, r.agents):
            np.testing.assert_allclose(
                b.pose.position.as_array(),
                rot @ a.pose.position.as_array(),
                atol=1e-12,
            )
            assert b.pose.heading == pytest.approx(
                math.atan2(
                    math.sin(a.pose.heading - theta), math.cos(a.pose.heading - theta)
                ),
                abs=1e-12,
            )

    def test_composition(self, desk_scenarios):
        s = desk_scenarios[1]
        a, b = 0.3, -0.45
        r1 = rotate_scenario(rotate_scenario(s, a), b)
        r2 = rotate_scenario(s, a + b)
        np.testing.assert_allclose(r1.route_xy, r2.route_xy, atol=1e-12)
        np.testing.assert_allclose(r1.expert.xy, r2.expert.xy, atol=1e-12)

    def test_rigid_quantities_preserved(self, desk_scenarios):
        s = desk_scenarios[2]
        r = rotate_scenario(s, 0.5)
        np.testing.assert_allclose(
            np.linalg.norm(np.diff(r.expert.xy, axis=0), axis=1),
            np.linalg.norm(np.diff(s.expert.xy, axis=0), axis=1),
            atol=1e-12,
        )
        assert turning_angle(r.expert) == pytest.approx(
            turning_angle(s.expert), abs=1e-9
        )
        assert r.ego_history.speed == s.ego_history.speed
        assert r.kind == s.kind and r.seed == s.seed


class TestObserve:
    def test_ego_token_first(self, desk_scenarios):
        t = observe(desk_scenarios[0])
        assert t.kinds[0] == TOKEN_KINDS.index("ego")
        assert np.sum(t.kinds == 0) == 1
        assert t.features.shape == (len(t), TOKEN_DIM)
        assert t.features[0, 0] == desk_scenarios[0].ego_speed

    def test_everything_within_fov(self, desk_scenarios):
        for s in desk_scenarios[:6]:
            for fov in (FOV_1CAM, FOV_3CAM, FOV_5CAM):
                t = observe(s, fov)
                pos = token_positions(t)
                bearings = np.abs(np.arctan2(pos[1:, 1], pos[1:, 0]))
                assert np.all(bearings <= fov + 1e-12)

    def test_wider_fov_sees_no_less(self, desk_scenarios):
        for s in desk_scenarios:
            n1 = len(observe(s, FOV_1CAM))
            n3 = len(observe(s, FOV_3CAM))
            n5 = len(observe(s, FOV_5CAM))
            assert n1 <= n3 <= n5

    def test_sorted_by_kind_distance_bearing(self, desk_scenarios):
        for s in desk_scenarios[:4]:
            t = observe(s)
            pos = token_positions(t)
            dist = np.hypot(pos[:, 0], pos[:, 1])
            bear = np.arctan2(pos[:, 1], pos[:, 0])
            keys = list(zip(t.kinds.tolist(), dist.tolist(), bear.tolist()))
            assert keys == sorted(keys)

    def test_lane_cap_keeps_nearest(self, desk_scenarios):
        s = desk_scenarios[0]
        fov = FOV_5CAM
        capped = observe(s, fov, max_lane_points=3)
        lane_kind = TOKEN_KINDS.index("lane")
        got = token_positions(capped)[capped.kinds == lane_kind]
        assert got.shape[0] <= 3
        visible = [
            (math.hypot(p.x, p.y), p)
            for lane in s.lanes
            for p in lane.points
            if abs(math.atan2(p.y, p.x)) <= fov
        ]
        visible.sort(key=lambda r: r[0])
        want = sorted(d for d, _ in visible[:3])
        np.testing.assert_allclose(
            sorted(np.hypot(got[:, 0], got[:, 1])), want, atol=1e-12
        )

    def test_default_caps(self, desk_scenarios):
        for s in desk_scenarios:
            t = observe(s)
            assert np.sum(t.kinds == TOKEN_KINDS.index("lane")) <= 12
            assert np.sum(t.kinds == TOKEN_KINDS.index("boundary")) <= 12

    def test_full_fov_commutes_with_rotation(self, desk_scenarios):
        # distances are rotation invariant, and a pi half-angle hides
        # nothing, so the (kind, distance) multiset must be preserved
        s = desk_scenarios[3]
        a = observe(s, math.pi, max_lane_points=10**6, max_boundary_points=10**6)
        b = observe(
            rotate_scenario(s, 0.37),
            math.pi,
            max_lane_points=10**6,
            max_boundary_points=10**6,
        )
        da = np.hypot(*token_positions(a).T)
        db = np.hypot(*token_positions(b).T)
        assert sorted(zip(a.kinds.tolist(), np.round(da, 9))) == sorted(
            zip(b.kinds.tolist(), np.round(db, 9))
        )

    def test_fov_bounds_validated(self, desk_scenarios):
        with pytest.raises(ValueError):
            observe(desk_scenarios[0], 0.0)
        with pytest.raises(ValueError):
            observe(desk_scenarios[0], 3.2)

    def test_deterministic(self, desk_scenarios):
        a = observe(desk_scenarios[5])
        b = observe(desk_scenarios[5])
        np.testing.assert_array_equal(a.kinds, b.kinds)
        np.testing.assert_array_equal(a.features, b.features)

    def test_red_light_flag_encoded(self, desk_scenarios):
        light_kind = TOKEN_KINDS.index("light")
        seen = 0
        for s in desk_scenarios:
            reds = {l.is_red for l in s.lights}
            t = observe(s, FOV_5CAM)
            flags = t.features[t.kinds == light_kind, 4]
            seen += flags.size
            for f in flags:
                assert f in (0.0, 1.0)
            if reds == {True} and flags.size:
                assert np.all(flags == 1.0)
        assert seen > 0

    @pytest.mark.parametrize("caps", [{}, {"max_lane_points": 10**6,
                                           "max_boundary_points": 10**6}])
    @pytest.mark.parametrize("theta", [0.0, 0.37])
    @pytest.mark.parametrize("fov", [FOV_1CAM, FOV_3CAM, FOV_5CAM, 1e-3])
    def test_matches_per_token_reference(self, token_scenes, fov, theta, caps):
        for s in token_scenes:
            view = rotate_scenario(s, theta) if theta else s
            want_kinds, want_feats = reference_observe(view, fov, **caps)
            got = observe(view, fov, **caps)
            assert got.kinds.dtype == want_kinds.dtype
            assert got.kinds.tobytes() == want_kinds.tobytes()
            assert got.features.shape == want_feats.shape
            assert got.features.tobytes() == want_feats.tobytes()


@pytest.fixture(scope="module")
def token_scenes(desk_scenarios, desk_gencfg):
    """The desk pool plus two desk turns and one paper-profile scene of each kind."""
    turns = [generate_scenario(seed, desk_gencfg) for seed in (29, 34)]
    paper = [generate_scenario(seed, GenConfig()) for seed in (0, 2, 8, 29)]
    assert {s.kind for s in turns} == {"turn"}
    assert {s.kind for s in paper} == {"straight", "curve", "tee", "turn"}
    return desk_scenarios + turns + paper


def reference_observe(s, fov, max_lane_points=12, max_boundary_points=12):
    """`observe` written token by token: every token gets its own distance
    and bearing, lanes and boundaries are capped after a (distance,
    bearing) sort, and one stable (kind, distance, bearing) sort orders
    the lot. Boundary vertices are deduplicated on their position rounded
    to 6 decimals, not on `observe`'s exact key, before the view test."""
    rows = []

    def visible(p):
        return abs(math.atan2(p.y, p.x)) <= fov

    def push(kind, p, feat):
        f = np.zeros(TOKEN_DIM)
        f[: len(feat)] = feat
        rows.append((kind, math.hypot(p.x, p.y), math.atan2(p.y, p.x), f))

    push(0, Point2(0.0, 0.0), [s.ego_speed, s.ego_history.accel])
    for ag in s.agents:
        p, h = ag.pose.position, ag.pose.heading
        if visible(p):
            push(1, p, [p.x, p.y, math.cos(h), math.sin(h), ag.speed, ag.length,
                        ag.width])
    lane = [(math.hypot(p.x, p.y), math.atan2(p.y, p.x), p, d)
            for ln in s.lanes for p, d in zip(ln.points, ln.directions) if visible(p)]
    lane.sort(key=lambda r: (r[0], r[1]))
    for _, _, p, d in lane[:max_lane_points]:
        push(2, p, [p.x, p.y, math.cos(d), math.sin(d)])
    for light in s.lights:
        a, b = light.stop_line
        mid = Point2(0.5 * (a.x + b.x), 0.5 * (a.y + b.y))
        if visible(mid):
            push(3, mid, [a.x, a.y, b.x, b.y, 1.0 if light.is_red else 0.0])
    seen, boundary = set(), []
    for cell in s.drivable:
        for v in cell.vertices:
            key = (round(v.x, 6), round(v.y, 6))
            if key not in seen:
                seen.add(key)
                if visible(v):
                    boundary.append((math.hypot(v.x, v.y), math.atan2(v.y, v.x), v))
    boundary.sort(key=lambda r: (r[0], r[1]))
    for _, _, v in boundary[:max_boundary_points]:
        push(4, v, [v.x, v.y])
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return (np.array([r[0] for r in rows], dtype=np.int64),
            np.stack([r[3] for r in rows], axis=0))


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory, desk_scenarios, desk_gencfg):
    """A two-scene desk dataset: its path and bytes."""
    path = tmp_path_factory.mktemp("dataset") / "tiny.jsonl"
    save_dataset(path, [DatasetRecord("train", desk_scenarios[0]),
                        DatasetRecord("test", desk_scenarios[1])], desk_gencfg, (0, 2))
    return path, path.read_bytes()


class TestSerialization:
    def test_dict_roundtrip_is_exact(self, desk_scenarios):
        for s in desk_scenarios[:6]:
            d = json.loads(json.dumps(scenario_to_dict(s)))
            s2 = scenario_from_dict(d)
            assert s2 == s

    def test_dataset_roundtrip(self, tmp_path, desk_scenarios, desk_gencfg):
        path = tmp_path / "data.jsonl"
        records = [
            DatasetRecord("train" if i % 2 == 0 else "test", s)
            for i, s in enumerate(desk_scenarios[:5])
        ]
        digest = save_dataset(path, records, desk_gencfg, seed_range=(0, 5))
        ds = load_dataset(path)
        assert ds.sha256 == digest
        assert ds.seed_range == (0, 5)
        assert ds.gen_config == desk_gencfg
        assert [r.split for r in ds.records] == [r.split for r in records]
        for a, b in zip(records, ds.records):
            assert a.scenario == b.scenario
        assert len(ds.split("train")) == 3
        assert len(ds.split("test")) == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        with pytest.raises(FormatVersionMismatch, match=r"empty\.jsonl: empty dataset file"):
            load_dataset(path)

    @staticmethod
    def _edited(tmp_path, desk_scenarios, desk_gencfg, edit):
        """A three-record dataset whose second record went through edit()."""
        path = tmp_path / "data.jsonl"
        save_dataset(path, [DatasetRecord("train", s) for s in desk_scenarios[:3]],
                     desk_gencfg)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        edit(rec)
        lines[2] = json.dumps(rec, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.pop("split"), "missing key 'split'"),
        (lambda r: r.update(split="val"), "split 'val' is neither 'train' nor 'test'"),
        (lambda r: r["scenario"]["ego_history"].pop("accel"), "missing key 'accel'"),
        (lambda r: r["scenario"].update(ego_speed="fast"),
         "'ego_speed' is not a number: 'fast'"),
        (lambda r: r["scenario"].update(seed=None), "'seed' is not a number: None"),
        (lambda r: r["scenario"]["lanes"][0]["directions"].__setitem__(1, True),
         "'directions' holds a non-number: True"),
        (lambda r: r["scenario"]["ego_history"].update(prev_position=["a", 0.0]), "str"),
        (lambda r: r["scenario"]["drivable"][1].pop(),
         "drivable cell 1 has 3 vertices, not the 4 of a quadrilateral"),
    ], ids=["split", "split_value", "accel", "ego_speed", "seed", "directions", "point",
            "triangle_cell"])
    def test_bad_record_names_file_and_line(self, tmp_path, desk_scenarios, desk_gencfg,
                                            edit, message):
        path = self._edited(tmp_path, desk_scenarios, desk_gencfg, edit)
        with pytest.raises(ValueError, match=r"data\.jsonl line 3: .*" + re.escape(message)):
            load_dataset(path)

    def test_wrong_version_rejected(self, tmp_path, desk_scenarios, desk_gencfg):
        path = tmp_path / "data.jsonl"
        save_dataset(path, [DatasetRecord("train", desk_scenarios[0])], desk_gencfg)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["format_version"] = 999
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatVersionMismatch):
            load_dataset(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda g: g.pop("turn_fraction"), "missing gen_config key turn_fraction"),
        (lambda g: g["vocab"].pop("dt"), "missing gen_config.vocab key dt"),
        (lambda g: g.update(bogus=1), "'bogus'"),
    ], ids=["gen_config", "vocab", "unknown"])
    def test_header_setting_missing_or_unknown_names_file(self, tmp_path, desk_gencfg,
                                                          edit, message):
        path = tmp_path / "data.jsonl"
        save_dataset(path, [], desk_gencfg)
        header = json.loads(path.read_text())
        edit(header["gen_config"])
        path.write_text(json.dumps(header, sort_keys=True) + "\n")
        with pytest.raises(ValueError, match=r"data\.jsonl line 1: .*" + re.escape(message)):
            load_dataset(path)

    def test_malformed_record_names_file_and_line(self, tmp_path, desk_scenarios,
                                                  desk_gencfg):
        path = tmp_path / "data.jsonl"
        records = [DatasetRecord("train", s) for s in desk_scenarios[:3]]
        save_dataset(path, records, desk_gencfg)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:40]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"data\.jsonl line 3: "):
            load_dataset(path)
        path.write_text("{not json\n")
        with pytest.raises(ValueError, match=r"data\.jsonl line 1:"):
            load_dataset(path)

    def test_unknown_split_refused_on_write(self, desk_scenarios):
        with pytest.raises(ValueError, match="split 'val'"):
            DatasetRecord("val", desk_scenarios[0])

    @settings(max_examples=200)
    @given(pos=st.integers(0, 2**40), bit=st.integers(0, 7))
    @example(pos=300, bit=7)
    def test_bit_flip_loads_or_names_file(self, tiny_dataset, pos, bit):
        path, blob = tiny_dataset
        flipped = bytearray(blob)
        flipped[pos % len(blob)] ^= 1 << bit
        bad = path.with_name("flipped.jsonl")
        bad.write_bytes(bytes(flipped))
        try:
            load_dataset(bad)
        except ValueError as e:
            assert str(bad) in str(e)

    def test_genconfig_roundtrip(self, desk_gencfg, tmp_path):
        cfg = replace(desk_gencfg, agent_count=1, lane_width=3.25)
        save_dataset(tmp_path / "empty.jsonl", [], cfg)
        assert load_dataset(tmp_path / "empty.jsonl").gen_config == cfg


class TestGenerator:
    def test_deterministic(self, desk_gencfg):
        assert generate_scenario(4, desk_gencfg) == generate_scenario(4, desk_gencfg)

    def test_seeds_differ(self, desk_scenarios):
        assert desk_scenarios[0] != desk_scenarios[1]

    def test_expert_is_penalty_clean(self, desk_scenarios):
        for s in desk_scenarios:
            sub = subscores(s, s.expert)
            assert sub["nc"] == sub["dac"] == sub["ddc"] == sub["tlc"] == 1.0

    def test_expert_is_a_vocabulary_entry(self, desk_scenarios, desk_vocab):
        for s in desk_scenarios[:4]:
            d = np.sqrt(
                ((desk_vocab.positions - s.expert.xy[None]) ** 2).sum(-1).mean(-1)
            )
            assert d.min() < 1e-9

    def test_agentless_config_scores_clean_collisions(self, desk_spec, desk_vocab):
        cfg = GenConfig(vocab=desk_spec, agent_count=0)
        s = generate_scenario(2, cfg)
        assert not s.agents
        labels = label_vocabulary(s, desk_vocab)
        assert np.all(labels.metric("nc") == 1.0)
        assert np.all(labels.metric("ttc") == 1.0)

    def test_agents_clear_the_configured_ego(self, desk_gencfg, desk_scenarios):
        # A 26 m ego overlaps agents that queue or lead close ahead, which
        # the default 4.6 m ego clears. Such an agent is not placed, so the
        # attempt is not lost to an expert search in which every entry
        # collides: the scene keeps its road and its other agents.
        long_ego = EvaluatorConfig(ego_length=26.0)
        box = footprint(IDENTITY_POSE, long_ego.ego_length, long_ego.ego_width)

        def clear(agents):
            return tuple(a for a in agents
                         if not polygons_intersect(box, footprint(a.pose, a.length, a.width)))

        crowded = [s for s in desk_scenarios if clear(s.agents) != s.agents]
        assert len(crowded) >= 2
        for s in crowded:
            got = generate_scenario(s.seed, desk_gencfg, eval_cfg=long_ego)
            assert (got.route, got.agents) == (s.route, clear(s.agents)), s.seed

    def test_scene_numbers_are_python_floats(self, desk_gencfg, desk_scenarios):
        # Coordinates and directions are built from Python floats, as
        # `load_dataset` builds them, not from numpy scalars (a float
        # subclass, so `isinstance` cannot tell them apart).
        crowded = replace(desk_gencfg, light_prob=1.0, red_prob=0.5, lead_prob=1.0,
                          oncoming_prob=1.0, crossing_prob=1.0)
        scenes = [*desk_scenarios, *(generate_scenario(seed, crowded) for seed in range(8))]
        assert all(s.lights and s.agents for s in scenes[-8:] if s.kind != "turn")
        for s in scenes:
            numbers = [s.ego_speed, s.ego_history.speed, s.ego_history.accel]
            points = [s.ego_history.prev_position, *s.route]
            for a in s.agents:
                numbers += [a.pose.heading, a.speed, a.length, a.width]
                points.append(a.pose.position)
            for lane in s.lanes:
                numbers += lane.directions
                points += lane.points
            for light in s.lights:
                points += light.stop_line
            for cell in s.drivable:
                points += cell.vertices
            numbers += [v for p in points for v in (p.x, p.y)]
            assert {type(v) for v in numbers} == {float}, s.seed

    def test_red_light_expert_respects_line(self, desk_scenarios):
        checked = 0
        for s in desk_scenarios:
            if any(l.is_red for l in s.lights):
                assert subscores(s, s.expert)["tlc"] == 1.0
                checked += 1
        assert checked >= 1

    def test_overconstrained_config_fails_loudly(self, desk_spec):
        cfg = GenConfig(vocab=desk_spec, lane_width=1.0, max_scenario_attempts=2)
        with pytest.raises(GenerationFailed):
            generate_scenario(3, cfg)

    def test_all_kinds_reachable(self, desk_gencfg, desk_scenarios):
        kinds = {s.kind for s in desk_scenarios}
        seed = 12
        while kinds < {"straight", "curve", "tee", "turn"} and seed < 60:
            kinds.add(generate_scenario(seed, desk_gencfg).kind)
            seed += 1
        assert kinds == {"straight", "curve", "tee", "turn"}

    @pytest.mark.slow
    def test_kind_mix_matches_fractions(self, desk_gencfg):
        n = 400
        kinds = [generate_scenario(seed, desk_gencfg).kind for seed in range(n)]
        turn = kinds.count("turn") / n
        curve = kinds.count("curve") / n
        straight = kinds.count("straight") / n
        assert 0.03 <= turn <= 0.16
        assert 0.14 <= curve <= 0.31
        assert 0.40 <= straight <= 0.64
