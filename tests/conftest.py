import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from trajsel.generator import generate_scenario
from trajsel.scenario import GenConfig
from trajsel.vocab import VocabSpec, build_vocabulary

settings.register_profile(
    "ci",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=25,
)
settings.load_profile("ci")

DESK_SPEC = VocabSpec(n_curvature=16, n_speed=8, n_accel=4)


@pytest.fixture(scope="session")
def desk_spec() -> VocabSpec:
    return DESK_SPEC


@pytest.fixture(scope="session")
def desk_vocab():
    return build_vocabulary(DESK_SPEC)


@pytest.fixture(scope="session")
def desk_gencfg() -> GenConfig:
    return GenConfig(vocab=DESK_SPEC)


@pytest.fixture(scope="session")
def desk_scenarios(desk_gencfg):
    """A small pool of default-config scenarios, one per seed."""
    return [generate_scenario(seed, desk_gencfg) for seed in range(12)]


@pytest.fixture(scope="session")
def desk_labels(desk_scenarios, desk_vocab):
    from trajsel import evaluator

    return [
        evaluator.label_vocabulary(s, desk_vocab) for s in desk_scenarios
    ]


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(7)
