"""Procedural driving scenarios and a select-from-vocabulary planner.

The package splits into the simulator side (geom, scenario, generator),
the scoring side (vocab, evaluator), the learnable selector with its
selection score (diffcore, planner) and the campaign/reporting layer
(harness, config, cli). Imports between modules form no cycle.
"""

from . import _threads

try:
    _threads.cap_threads()  # before the imports below load numpy
except ValueError:
    pass  # the CLI reports a malformed SUPRIM_THREADS as a usage error

from .config import AppConfig, ConfigError, config_hash, desk_config, load_config
from .evaluator import (
    DEFAULT_EVAL_CONFIG,
    METRICS,
    EvaluatorConfig,
    LabelSet,
    aggregate,
    label_vocabulary,
    subscores,
)
from .generator import generate_scenario
from .geom import Pose2, Trajectory
from .harness import EvalReport, evaluate, oracle_study
from .planner import PlannerConfig, PlannerModel, combine_score, infer, train
from .scenario import GenConfig, Scenario, load_dataset, observe, save_dataset
from .vocab import TrajectoryVocabulary, VocabSpec

__version__ = "0.1.0"

__all__ = [
    "AppConfig",
    "ConfigError",
    "DEFAULT_EVAL_CONFIG",
    "METRICS",
    "EvalReport",
    "EvaluatorConfig",
    "GenConfig",
    "LabelSet",
    "PlannerConfig",
    "PlannerModel",
    "Pose2",
    "Scenario",
    "Trajectory",
    "TrajectoryVocabulary",
    "VocabSpec",
    "aggregate",
    "combine_score",
    "config_hash",
    "desk_config",
    "evaluate",
    "generate_scenario",
    "infer",
    "label_vocabulary",
    "load_config",
    "load_dataset",
    "observe",
    "oracle_study",
    "save_dataset",
    "subscores",
    "train",
    "__version__",
]
