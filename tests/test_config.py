import dataclasses
import hashlib
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajsel.config import (
    AppConfig,
    ConfigError,
    config_hash,
    config_text,
    desk_config,
    load_config,
    paper_config,
    parse_config,
)
from trajsel.evaluator import EvaluatorConfig
from trajsel.planner import PlannerConfig
from trajsel.scenario import GenConfig
from trajsel.vocab import VocabSpec

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def mutant_config() -> AppConfig:
    """One override in every section, covering each value shape."""
    return AppConfig(
        generator=GenConfig(
            vocab=VocabSpec(n_curvature=5, n_speed=4, n_accel=3),
            agent_count=2,
            light_prob=0.125,
        ),
        evaluator=EvaluatorConfig(
            ttc_checks=(0.25, 0.75, 1.5),
            average_v2=(("ep", 4.5), ("ttc", 5.0), ("lk", 2.0), ("hc", 1.0), ("ec", 0.5)),
            max_jerk=9.0,
        ),
        planner=PlannerConfig(
            hidden_dim=32,
            attn_heads=4,
            single_stage=True,
            lr=3.25e-4,
            ema_mode="scratch",
        ),
    )


class TestCanonicalText:
    def test_sections_in_order(self):
        text = config_text(AppConfig())
        idx = [text.index("[%s]" % s) for s in
               ("generator", "evaluator", "planner")]
        assert idx == sorted(idx)
        assert text.startswith("[generator]\n")
        assert text.endswith("\n")

    def test_every_field_rendered(self):
        text = config_text(AppConfig())
        for section in ("generator", "evaluator", "planner"):
            obj = getattr(AppConfig(), section)
            for f in dataclasses.fields(obj):
                if f.name == "vocab":
                    continue
                assert "\n%s = " % f.name in text

    def test_vocab_keys_prefixed(self):
        text = config_text(AppConfig())
        assert "\nvocab_n_curvature = 64\n" in text
        assert "\nvocab_dt = 0.5\n" in text
        assert "\nvocab = " not in text

    def test_stable_across_calls(self):
        assert config_text(AppConfig()) == config_text(AppConfig())

    def test_weight_tuple_form(self):
        text = config_text(AppConfig())
        assert "average_v1 = ep:5.0, ttc:5.0, c:2.0" in text
        assert "penalties_v2 = nc, dac, ddc, tlc" in text


class TestRoundtrip:
    @pytest.mark.parametrize(
        "make", [AppConfig, desk_config, paper_config, mutant_config]
    )
    def test_text_roundtrip_exact(self, make):
        cfg = make()
        again = parse_config(config_text(cfg))
        assert again == cfg
        assert config_text(again) == config_text(cfg)

    def test_empty_text_is_defaults(self):
        assert parse_config("") == AppConfig()

    def test_partial_section_overrides_single_key(self):
        cfg = parse_config("[planner]\nlr = 0.001\n")
        assert cfg.planner.lr == 0.001
        assert cfg.planner == replace(PlannerConfig(), lr=0.001)
        assert cfg.generator == GenConfig()

    def test_bool_spellings(self):
        for text, want in [("yes", True), ("ON", True), ("0", False), ("Off", False)]:
            cfg = parse_config("[planner]\naugment = %s\n" % text)
            assert cfg.planner.augment is want

    def test_float_repr_fidelity(self):
        # repr rendering keeps every bit of an awkward float
        cfg = AppConfig(planner=replace(PlannerConfig(), lr=1.0 / 3.0))
        assert parse_config(config_text(cfg)).planner.lr == 1.0 / 3.0

    @given(st.floats(0.01, 0.99), st.integers(1, 9))
    def test_roundtrip_random_fields(self, frac, agents):
        cfg = AppConfig(
            generator=replace(GenConfig(), light_prob=frac, agent_count=agents)
        )
        again = parse_config(config_text(cfg))
        assert again.generator.light_prob == frac
        assert again.generator.agent_count == agents


class TestHash:
    def test_matches_sha256_of_text(self):
        cfg = desk_config()
        want = hashlib.sha256(config_text(cfg).encode("utf-8")).hexdigest()
        assert config_hash(cfg) == want
        assert len(config_hash(cfg)) == 64

    def test_stable(self):
        assert config_hash(AppConfig()) == config_hash(AppConfig())

    def test_sensitive_to_any_field(self):
        base = config_hash(AppConfig())
        bumped = AppConfig(planner=replace(PlannerConfig(), lr=7.6e-5))
        assert config_hash(bumped) != base
        vocab = AppConfig(
            generator=replace(GenConfig(), vocab=VocabSpec(n_curvature=63))
        )
        assert config_hash(vocab) != base

    def test_profiles_differ(self):
        assert config_hash(desk_config()) != config_hash(paper_config())

    def test_roundtrip_preserves_hash(self):
        cfg = mutant_config()
        assert config_hash(parse_config(config_text(cfg))) == config_hash(cfg)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "[optimizer]\nlr = 1\n",
            "[planner]\nbogus = 1\n",
            "[generator]\nvocab_bogus = 1\n",
            "[planner]\nvocab_n_speed = 4\n",
            "[inference]\nuse_teacher = maybe\n",
            "[planner]\naugment = maybe\n",
            "[planner]\nepochs = 3.5\n",
            "[planner]\nlr = abc\n",
            "[evaluator]\naverage_v1 = ep 5.0\n",
            "[planner]\nlr = 1\nlr = 2\n",
            "[inference]\nversion = 3\n",
            "[planner]\nscore_version = 3\n",
            "[planner]\nattn_heads = 0\n",
            "not ini at all",
        ],
    )
    def test_malformed_raises(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize("key, value", [
        ("ttc_checks", "0.5, abc"),
        ("average_v2", "ep:x"),
        ("average_v1", "ep:5.0:1"),
    ])
    def test_bad_tuple_item_names_key(self, key, value):
        with pytest.raises(ConfigError, match="bad value for %s" % key):
            parse_config("[evaluator]\n%s = %s\n" % (key, value))

    @pytest.mark.parametrize("key", ["vocab_n_curvature", "vocab_horizon"])
    def test_bad_vocab_value_names_the_ini_key(self, key):
        with pytest.raises(ConfigError, match="bad value for %s: " % key):
            parse_config("[generator]\n%s = x\n" % key)

    def test_invalid_section_settings_wrapped(self):
        with pytest.raises(ConfigError, match="attn_heads"):
            parse_config("[planner]\nhidden_dim = 30\nattn_heads = 4\n")

    def test_invalid_vocab_settings_wrapped(self):
        with pytest.raises(ConfigError, match="vocab"):
            parse_config("[generator]\nvocab_n_curvature = 0\n")

    @pytest.mark.parametrize("text, match", [
        ("[evaluator]\naverage_v2 = ep:5, tttc:5\n", r"v2 .* unknown metrics \['tttc'\]"),
        ("[evaluator]\npenalties_v1 = nc, dacc\n", r"v1 .* unknown metrics \['dacc'\]"),
        ("[evaluator]\naverage_v2 =\n", "v2 average weights must sum to a positive"),
        ("[evaluator]\naverage_v1 = ep:0, ttc:0\n", "v1 average weights must sum to a positive"),
        ("[evaluator]\naverage_v1 = ep:5, ttc:-5\n", "v1 average weights must sum to a positive"),
    ])
    def test_bad_weight_table(self, text, match):
        with pytest.raises(ConfigError, match=r"invalid \[evaluator\] settings: " + match):
            parse_config(text)

    @pytest.mark.parametrize("fov", ["0.0", "-1.0", "3.2", "nan"])
    def test_fov_outside_half_turn(self, fov):
        with pytest.raises(ConfigError, match=r"fov must lie in \(0, pi\]"):
            parse_config("[planner]\nfov = %s\n" % fov)

    def test_fov_of_a_half_turn_parses(self):
        assert parse_config("[planner]\nfov = %r\n" % math.pi).planner.fov == math.pi

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes(b"[planner]\n# \xe9\n")
        want = "cannot read config %s: 'utf-8'" % re.escape(str(path))
        with pytest.raises(ConfigError, match=want):
            load_config(path)


class TestFiles:
    def test_write_then_load(self, tmp_path):
        cfg = mutant_config()
        path = tmp_path / "run.ini"
        path.write_text(config_text(cfg), encoding="utf-8")
        assert load_config(path) == cfg


class TestProfiles:
    def test_desk_profile(self):
        cfg = desk_config()
        assert cfg.generator.vocab == VocabSpec(n_curvature=16, n_speed=8, n_accel=4)
        assert cfg.planner.hidden_dim == 64
        assert cfg.planner.top_k == 64
        assert cfg.planner.epochs == 2
        assert cfg.planner.ema_mode == "scratch"
        # untouched blocks stay at their defaults
        assert cfg.evaluator == EvaluatorConfig()

    def test_paper_profile_is_defaults(self):
        assert paper_config() == AppConfig()

    @pytest.mark.parametrize("name, profile", [("desk.ini", desk_config),
                                               ("paper.ini", paper_config)])
    def test_config_file_is_its_profile(self, name, profile):
        assert load_config(CONFIGS / name) == profile()

    def test_acceptance_profile_is_desk_with_wider_turns(self):
        desk = desk_config()
        want = replace(desk, generator=replace(
            desk.generator, turn_fraction=0.2, turn_kappa_min=0.02,
            turn_kappa_max=0.11))
        assert load_config(CONFIGS / "acceptance.ini") == want
