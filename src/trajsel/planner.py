"""Coarse-to-fine trajectory selection model and its training loop.

A token encoder embeds the observation, a trajectory encoder embeds every
vocabulary entry, a cross-attention decoder scores all entries, the top-k
survivors pass through a self-attending refinement decoder with per-layer
heads, and the last layer's combined score picks the output. That score
mixes the predicted subscores log-linearly, with the coefficients of the
config's `score_version`. Training mixes the original scene, a rotated copy
with freshly computed labels, and soft labels distilled from an EMA teacher.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import zip_longest

import numpy as np

from . import evaluator
from .diffcore import (
    AdamState,
    CheckpointError,
    NonFiniteDetected,
    ParamStore,
    Tape,
    adam_step,
    ema_update,
    load_checkpoint,
    save_checkpoint,
)
from .evaluator import LabelSet
from .scenario import (
    DEFAULT_FOV,
    TOKEN_DIM,
    TOKEN_KINDS,
    Scenario,
    observe,
    rotate_scenario,
    sample_rotation,
)
from .vocab import TrajectoryVocabulary, l2_to_entries

# Every aggregate subscore gets a linear head except energy consistency;
# the imitation head is a two-layer perceptron whose raw output doubles as
# the logit vector for the imitation distribution.
HEAD_METRICS = ("nc", "dac", "ddc", "tlc", "ep", "ttc", "lk", "hc", "c")


@dataclass(frozen=True)
class PlannerConfig:
    hidden_dim: int = 256
    coarse_layers: int = 3
    refine_layers: int = 3
    attn_heads: int = 4
    ff_dim: int = 512
    top_k: int = 256
    theta: float = math.pi / 6.0
    delta: float = 0.15
    imi_temperature: float = 1.0
    lr: float = 7.5e-5
    batch_size: int = 4
    epochs: int = 6
    ema_mode: str = "pretrained"
    score_version: int = 2
    coarse_self_attn: bool = False
    refine_self_attn: bool = True
    single_stage: bool = False
    augment: bool = True
    soft_labels: bool = True
    fov: float = DEFAULT_FOV
    feat_scale: float = 0.05

    def __post_init__(self):
        coefficients_for(self.score_version)
        for name in ("hidden_dim", "ff_dim", "refine_layers", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.coarse_layers < 0:
            raise ValueError("coarse_layers must be >= 0")
        for name in ("lr", "feat_scale"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must be in [0, 1]")
        if self.top_k < 1:
            raise KOutOfRange(f"top_k {self.top_k}")
        if self.imi_temperature <= 0.0:
            raise ValueError("imi_temperature must be positive")
        if self.ema_mode not in ("pretrained", "scratch"):
            raise ValueError(f"unknown ema_mode {self.ema_mode!r}")
        if self.attn_heads < 1:
            raise ValueError("attn_heads must be >= 1")
        if self.hidden_dim % self.attn_heads != 0:
            raise ValueError("attn_heads must divide hidden_dim")
        if not 0.0 < self.fov <= math.pi:
            raise ValueError("fov must lie in (0, pi]")


def ema_momentum(mode: str, epoch: float) -> float:
    """Teacher momentum at a (fractional) epoch under an `ema_mode`.

    "pretrained" rises linearly from 0.992 to 0.996 over three epochs, then
    holds 0.998. "scratch" holds 0 (the teacher copies the student) for
    three epochs and then follows the same curve three epochs late.
    """
    e = max(float(epoch), 0.0)
    if mode == "scratch":
        if e < 3.0:
            return 0.0
        e -= 3.0
    if e <= 3.0:
        return 0.992 + (0.996 - 0.992) * e / 3.0
    return 0.998


@dataclass
class PlannerModel:
    """A config plus student/teacher parameters bound to one vocabulary.

    `config_hash` is the run config's hash recorded in the checkpoint the
    model was loaded from ("" for a model made in this process).
    """

    cfg: PlannerConfig
    vocabulary: TrajectoryVocabulary
    student: ParamStore
    teacher: ParamStore
    config_hash: str = ""
    # `infer`'s `_encode_entries` (F, ln(F)) of frozen stores, by (store,
    # cfg, vocabulary); a model made with `replace` starts with none.
    _entries: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def save(self, path, *, step: int = 0, config_hash: str = "") -> str:
        return save_checkpoint(
            path, self.student, self.teacher, step=step,
            config_hash=config_hash,
            extra={"planner_config": asdict(self.cfg),
                   "vocab_spec": asdict(self.vocabulary.spec),
                   "vocab_digest": self.vocabulary.digest},
        )

    @staticmethod
    def load(path, vocabulary: TrajectoryVocabulary) -> "PlannerModel":
        """Read a checkpoint saved for the same vocabulary (equal `digest`).

        Both parameter stores are frozen (read-only), so `infer` encodes
        the vocabulary once per store and reuses the encoding.
        A planner config that is missing, lacks a key, has an unknown key or
        holds an invalid value raises CheckpointError naming the file, and so
        do parameters whose names, order or shapes differ from the ones the
        config implies.
        """
        student, teacher, meta = load_checkpoint(path)
        extra = meta["extra"]
        if extra.get("vocab_digest") != vocabulary.digest:
            raise CheckpointError(
                f"{path} was saved for vocabulary {extra.get('vocab_spec')} with digest "
                f"{str(extra.get('vocab_digest'))[:12]}.., not {asdict(vocabulary.spec)} "
                f"with digest {vocabulary.digest[:12]}..")
        d = extra.get("planner_config")
        if not isinstance(d, dict):
            raise CheckpointError(f"{path} records no planner_config")
        known = {f.name for f in fields(PlannerConfig)}
        for what, keys in (("unknown", set(d) - known), ("missing", known - set(d))):
            if keys:
                raise CheckpointError(
                    f"{path}: {what} planner_config key {', '.join(sorted(keys))}")
        try:
            cfg = PlannerConfig(**d)
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: invalid planner_config: {e}") from None
        have = [(n, student[n].shape) for n in student.names()]
        for got, want in zip_longest(have, _param_layout(cfg, vocabulary)):
            if got != want:
                raise CheckpointError(
                    f"{path} holds {_named_shape(got)} where its planner_config "
                    f"implies {_named_shape(want)}")
        student.freeze()
        teacher.freeze()
        return PlannerModel(cfg, vocabulary, student, teacher, meta["config_hash"])


def _named_shape(param) -> str:
    return "no parameter" if param is None else "parameter %s of shape %s" % param


# ---- parameters ----


def _mlp_layout(prefix, d_in, d_mid, d_out):
    return [(f"{prefix}.w1", (d_in, d_mid)), (f"{prefix}.b1", (1, d_mid)),
            (f"{prefix}.w2", (d_mid, d_out)), (f"{prefix}.b2", (1, d_out))]


def _norm_layout(prefix, h):
    return [(f"{prefix}.lng", (1, h)), (f"{prefix}.lnb", (1, h))]


def _attn_layout(prefix, h):
    return _norm_layout(prefix, h) + [(f"{prefix}.{w}", (h, h)) for w in ("wq", "wk", "wv", "wo")]


def _layer_layout(prefix, h, ff, self_attn):
    out = _attn_layout(f"{prefix}.self", h) if self_attn else []
    out += _attn_layout(f"{prefix}.cross", h)
    return out + _norm_layout(f"{prefix}.ff", h) + _mlp_layout(f"{prefix}.ff", h, ff, h)


def _heads_layout(prefix, h):
    # One matrix holds every linear subscore head, a column per metric.
    n = len(HEAD_METRICS)
    return _mlp_layout(f"{prefix}.imi", h, h, 1) + [(f"{prefix}.sub.w", (h, n)),
                                                   (f"{prefix}.sub.b", (1, n))]


def _param_layout(cfg: PlannerConfig, vocabulary: TrajectoryVocabulary):
    """(name, shape) of every parameter, in initialization order."""
    h = cfg.hidden_dim
    out = []
    for kind in TOKEN_KINDS:
        out += _mlp_layout(f"tok.{kind}", TOKEN_DIM, h, h)
    out += _mlp_layout("traj", 2 * vocabulary.n_waypoints, h, h)
    for l in range(cfg.coarse_layers):
        out += _layer_layout(f"coarse{l}", h, cfg.ff_dim, cfg.coarse_self_attn)
    out += _norm_layout("coarse.out", h) + _heads_layout("head", h)
    for l in range(cfg.refine_layers):
        out += _layer_layout(f"refine{l}", h, cfg.ff_dim, cfg.refine_self_attn)
        out += _norm_layout(f"refine{l}.out", h) + _heads_layout(f"refine{l}.head", h)
    return out


def init_params(cfg: PlannerConfig, vocabulary: TrajectoryVocabulary,
                seed: int) -> ParamStore:
    """Deterministic parameter initialization for one model.

    Weights are standard normal over sqrt(fan in), drawn in layout order;
    norm gains start at one, biases and norm offsets at zero.
    """
    rng = np.random.default_rng([seed, 17])
    store = ParamStore()
    for name, shape in _param_layout(cfg, vocabulary):
        kind = name.rsplit(".", 1)[1]
        if kind.startswith("w"):
            store.add(name, rng.standard_normal(shape) / math.sqrt(shape[0]))
        else:
            store.add(name, np.ones(shape) if kind == "lng" else np.zeros(shape))
    return store


# ---- selection score ----

SCORE_CLAMP = 1e-7


class DomainError(ValueError):
    """A combination input is outside its legal domain."""


class KOutOfRange(ValueError):
    """Top-K request outside [1, N]."""


@dataclass(frozen=True)
class InferenceCoefficients:
    """Log-linear mixing weights for one scoring version."""

    imi: float
    penalties: tuple[tuple[str, float], ...]
    average: tuple[tuple[str, float], ...]
    lambda_avg: float


COEFFS_V1 = InferenceCoefficients(
    imi=0.05,
    penalties=(("nc", 0.5), ("dac", 0.5)),
    average=(("ep", 5.0), ("ttc", 5.0), ("c", 2.0)),
    lambda_avg=8.0,
)

COEFFS_V2 = InferenceCoefficients(
    imi=0.02,
    penalties=(("nc", 0.5), ("dac", 0.5), ("ddc", 0.3), ("tlc", 0.1)),
    average=(("ep", 5.0), ("ttc", 5.0), ("lk", 2.0), ("hc", 1.0)),
    lambda_avg=6.0,
)


def coefficients_for(version: int) -> InferenceCoefficients:
    """Mixing weights for a `score_version` of 1 or 2."""
    if version == 1:
        return COEFFS_V1
    if version == 2:
        return COEFFS_V2
    raise DomainError(f"unknown scoring version {version!r}")


def combine_score(scores, coeffs: InferenceCoefficients):
    """Log-linear combination of per-metric scores; higher is better.

    `scores` maps metric name to a scalar or (N,) array in (0, 1]. Every
    used score is clamped up to 1e-7 before the logs.
    """
    def pick(name):
        s = np.asarray(scores[name], dtype=np.float64)
        if np.any(s < 0.0) or not np.all(np.isfinite(s)):
            raise DomainError(f"score {name!r} outside [0, 1]")
        return np.maximum(s, SCORE_CLAMP)

    total = coeffs.imi * np.log(pick("imi"))
    for name, lam in coeffs.penalties:
        total = total + lam * np.log(pick(name))
    avg = None
    for name, lam in coeffs.average:
        term = lam * pick(name)
        avg = term if avg is None else avg + term
    total = total + coeffs.lambda_avg * np.log(avg)
    return float(total) if np.ndim(total) == 0 else total


def topk_filter(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores; ties broken by ascending index."""
    n = len(scores)
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} for {n} entries")
    order = np.argsort(-scores, kind="stable")
    return order[:k]


# ---- forward ----


def _mlp(tape, bound, prefix, x):
    h = tape.linear(x, bound[f"{prefix}.w1"], bound[f"{prefix}.b1"], relu=True)
    return tape.linear(h, bound[f"{prefix}.w2"], bound[f"{prefix}.b2"])


def _ln(tape, bound, prefix, x):
    return tape.layer_norm(x, bound[f"{prefix}.lng"], bound[f"{prefix}.lnb"])


def _attn_block(tape, bound, prefix, x, kv, heads, xn=None):
    """Pre-norm attention with a residual; kv=None attends over ln(x) itself.

    `xn`, when given, is ln(x) made earlier. Self-attention projects ln(x)
    to queries, keys and values for `Tape.attention`; cross-attention to
    the scene tokens kv is one `Tape.cross_attention` node, which never
    forms the queries.
    """
    if xn is None:
        xn = _ln(tape, bound, prefix, x)
    wq, wo = bound[f"{prefix}.wq"], bound[f"{prefix}.wo"]
    if kv is None:
        q = tape.matmul(xn, wq)
        k = tape.matmul(xn, bound[f"{prefix}.wk"])
        v = tape.matmul(xn, bound[f"{prefix}.wv"])
        out = tape.matmul(tape.attention(q, k, v, heads), wo)
    else:
        k = tape.matmul(kv, bound[f"{prefix}.wk"])
        v = tape.matmul(kv, bound[f"{prefix}.wv"])
        out = tape.cross_attention(xn, wq, k, v, wo, heads)
    return tape.add(x, out)


def _ff_block(tape, bound, prefix, x):
    return tape.add(x, _mlp(tape, bound, prefix, _ln(tape, bound, prefix, x)))


def _decoder_layer(tape, bound, prefix, x, E, self_attn, heads, xn=None):
    """Optional self-attention, cross-attention to the scene tokens E, feed-forward.

    `xn`, given only without self-attention, is ln(x) under the
    cross-attention norm.
    """
    if self_attn:
        x = _attn_block(tape, bound, f"{prefix}.self", x, None, heads)
    x = _attn_block(tape, bound, f"{prefix}.cross", x, E, heads, xn)
    return _ff_block(tape, bound, f"{prefix}.ff", x)


def encode_observation(tape: Tape, bound, tokens, cfg: PlannerConfig):
    """Per-kind two-layer embedding of observation tokens; (T, hidden).

    `observe` orders tokens kind-major, so the stacked kind blocks are in token order.
    """
    x = tokens.features * cfg.feat_scale
    parts = []
    for ki, kind in enumerate(TOKEN_KINDS):
        rows = x[tokens.kinds == ki]
        if len(rows):
            parts.append(_mlp(tape, bound, f"tok.{kind}",
                              tape.var(rows, requires_grad=False)))
    return parts[0] if len(parts) == 1 else tape.concat(parts, axis=0)


def encode_trajectories(tape: Tape, bound, waypoints: np.ndarray, cfg: PlannerConfig):
    """Two-layer embedding of flattened entry waypoints (M, 2L); (M, hidden)."""
    x = tape.var(waypoints * cfg.feat_scale, requires_grad=False)
    return _mlp(tape, bound, "traj", x)


def _heads_forward(tape, bound, prefix, x_norm):
    return {
        "imi": _mlp(tape, bound, f"{prefix}.imi", x_norm),
        "sub": tape.linear(x_norm, bound[f"{prefix}.sub.w"], bound[f"{prefix}.sub.b"]),
    }


def _table(logits) -> dict[str, np.ndarray]:
    out = {"imi": 1.0 / (1.0 + np.exp(-logits["imi"].value[:, 0]))}
    sub = 1.0 / (1.0 + np.exp(-logits["sub"].value))
    for j, m in enumerate(HEAD_METRICS):
        out[m] = sub[:, j]
    return out


def _encode_entries(tape: Tape, bound, vocabulary: TrajectoryVocabulary,
                    cfg: PlannerConfig):
    """The coarse stage's work that no scene enters: (F, Fn).

    F encodes every entry; Fn is ln(F) under layer 0's cross-attention norm,
    the input that block starts from, or None when layer 0 starts with
    self-attention (or there is no layer 0). Layer 0's queries are not
    formed here: the reassociated cross-attention multiplies Fn by a matrix
    that holds the scene's keys.
    """
    F = encode_trajectories(tape, bound, vocabulary.flat_waypoints, cfg)
    if cfg.coarse_self_attn or not cfg.coarse_layers:
        return F, None
    return F, _ln(tape, bound, "coarse0.cross", F)


# Entry rows per block of the coarse stage. On the paper profile a block
# is 1 136 to 1 144 rows, whose widest intermediate (the feed-forward hidden
# layer) is 4.7 MB against the whole grid's 23 MB; 1024 ran faster there
# than 512, 768 and 2048.
BLOCK_ROWS = 1024


def coarse_stage(tape: Tape, bound, E, F, cfg: PlannerConfig, Fn=None):
    """Cross-attention decoding of the encoded entries F; returns (g, logits dict).

    `Fn`, when given, is `_encode_entries`' ln(F) for layer 0. Without
    self-attention the layers and heads treat each entry row on its own,
    so a grid of at least 2 * BLOCK_ROWS entries runs them on near-equal
    blocks of about BLOCK_ROWS rows, one block after another, and joins
    the blocks' outputs; each intermediate holds one block's rows.

    The blocks give the bits of one pass only as far as BLAS computes a
    row the same in a product with fewer rows. It did not for the last
    row of a block of 517 rows in the imitation head's one-column
    product, so blocks start on multiples of 8 rows; such blocks matched
    one pass on every paper-profile scene tried. A recording pass splits
    the same way, so `infer` and a recording forward take the same
    blocks whatever BLAS does.
    """
    rows = F.value.shape[0]
    blocks = 1
    if cfg.coarse_layers and not cfg.coarse_self_attn:
        blocks = max(1, rows // BLOCK_ROWS)
    edges = [8 * (i * rows // (8 * blocks)) for i in range(blocks)] + [rows]
    parts = []
    for start, stop in zip(edges, edges[1:]):
        x, xn = F, Fn
        if blocks > 1:
            x = tape.gather_rows(F, slice(start, stop))
            xn = None if Fn is None else tape.gather_rows(Fn, slice(start, stop))
        for l in range(cfg.coarse_layers):
            x = _decoder_layer(tape, bound, f"coarse{l}", x, E, cfg.coarse_self_attn,
                               cfg.attn_heads, xn if l == 0 else None)
        logits = _heads_forward(tape, bound, "head", _ln(tape, bound, "coarse.out", x))
        parts.append((x, logits))
    if blocks == 1:
        return parts[0]
    return tape.concat([x for x, _ in parts], axis=0), {
        name: tape.concat([logits[name] for _, logits in parts], axis=0)
        for name in parts[0][1]}


def refine_stage(tape: Tape, bound, E, g_filtered, cfg: PlannerConfig):
    """Self- and cross-attention over the survivors; per-layer head logits."""
    x = g_filtered
    per_layer = []
    for l in range(cfg.refine_layers):
        x = _decoder_layer(tape, bound, f"refine{l}", x, E,
                           cfg.refine_self_attn, cfg.attn_heads)
        x_norm = _ln(tape, bound, f"refine{l}.out", x)
        per_layer.append(_heads_forward(tape, bound, f"refine{l}.head", x_norm))
    return per_layer


@dataclass
class ForwardPass:
    """One selection: both stages' logits and scores, and the entry chosen.

    `selected` is the refined argmax mapped back to a vocabulary index, or
    the coarse argmax in a single stage. The refine fields are None (and
    `refine_logits` empty) in a single stage; `refine_table` and
    `refine_combined` are the last refinement layer's, row i scoring
    entry `topk[i]`. Only the losses read the logits; `infer` leaves both
    logit fields None.
    """

    coarse_logits: dict | None
    coarse_table: dict[str, np.ndarray]
    coarse_combined: np.ndarray
    topk: np.ndarray | None
    refine_logits: list | None
    refine_table: dict[str, np.ndarray] | None
    refine_combined: np.ndarray | None
    selected: int


def forward(tape: Tape, bound, cfg: PlannerConfig,
            vocabulary: TrajectoryVocabulary, s: Scenario, entries=None) -> ForwardPass:
    """Full pipeline on one scenario; selection arrays are plain numpy.

    `entries` is `_encode_entries`' (F, ln(F)) for the same weights, made
    earlier; without it they are made here.
    """
    tokens = observe(s, cfg.fov)
    E = encode_observation(tape, bound, tokens, cfg)
    F, Fn = entries or _encode_entries(tape, bound, vocabulary, cfg)
    g, coarse_logits = coarse_stage(tape, bound, E, F, cfg, Fn)
    coarse_table = _table(coarse_logits)
    coeffs = coefficients_for(cfg.score_version)
    coarse_combined = combine_score(coarse_table, coeffs)
    if cfg.single_stage:
        return ForwardPass(coarse_logits, coarse_table, coarse_combined,
                           None, [], None, None, int(np.argmax(coarse_combined)))
    k = min(cfg.top_k, len(vocabulary))
    idx = topk_filter(coarse_combined, k)
    refine_logits = refine_stage(tape, bound, E, tape.gather_rows(g, idx), cfg)
    refine_table = _table(refine_logits[-1])
    refine_combined = combine_score(refine_table, coeffs)
    return ForwardPass(coarse_logits, coarse_table, coarse_combined,
                       idx, refine_logits, refine_table, refine_combined,
                       int(idx[int(np.argmax(refine_combined))]))


def infer(model: PlannerModel, s: Scenario, use_teacher: bool = True) -> ForwardPass:
    """Select one vocabulary entry for a scenario: the forward pass that chose it.

    The pass records no tape, so each intermediate is freed once the next
    layer has used it, and the result keeps no logits. On a grid of at
    least 2 * BLOCK_ROWS entries the coarse stage runs in row blocks, as
    in a recording forward (see `coarse_stage`), so its intermediates
    hold one block's rows. The first call on
    frozen (loaded, read-only) weights encodes the vocabulary, and later
    calls reuse that encoding: it depends on no scene, and the weights
    cannot change. Writable weights are encoded on every call.
    """
    store = model.teacher if use_teacher else model.student
    tape = Tape(record=False)
    bound = store.bind(tape)
    entries = None
    if store.frozen:
        key = (store, model.cfg, model.vocabulary)
        entries = model._entries.get(key)
        if entries is None:
            entries = model._entries[key] = _encode_entries(
                tape, bound, model.vocabulary, model.cfg)
    fwd = forward(tape, bound, model.cfg, model.vocabulary, s, entries)
    return replace(fwd, coarse_logits=None, refine_logits=None)


# ---- targets and losses ----


def imitation_targets(distances: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(-d^2 / temperature) over the vocabulary."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    z = -np.square(np.asarray(distances, dtype=np.float64)) / temperature
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def _metric_matrix(labels: LabelSet) -> np.ndarray:
    """(N, n_heads) label matrix with columns in HEAD_METRICS order."""
    return np.stack([labels.metric(m) for m in HEAD_METRICS], axis=1)


def _stage_loss(tape, logits, y_matrix, targets):
    """Imitation cross-entropy plus summed per-metric binary cross-entropy."""
    ce = tape.cross_entropy(tape.transpose(logits["imi"]), targets.reshape(1, -1))
    return tape.add(ce, tape.bce(tape.sigmoid(logits["sub"]), y_matrix))


def loss_coarse(tape, fwd: ForwardPass, labels: LabelSet,
                targets: np.ndarray):
    return _stage_loss(tape, fwd.coarse_logits, _metric_matrix(labels), targets)


def loss_refine(tape, fwd: ForwardPass, labels: LabelSet,
                distances: np.ndarray, temperature: float):
    """The coarse-form loss per refinement layer, on the filtered set.

    Imitation targets are the softmax restricted to the surviving
    entries. Computing it from the distances (rather than renormalizing
    the full-vocabulary probabilities) keeps it well defined even when
    the filter misses the entire probability mass.
    """
    if not fwd.refine_logits:
        return None
    idx = fwd.topk
    sub_targets = imitation_targets(distances[idx], temperature)
    y_sub = _metric_matrix(labels)[idx]
    total = None
    for logits in fwd.refine_logits:
        ls = _stage_loss(tape, logits, y_sub, sub_targets)
        total = ls if total is None else tape.add(total, ls)
    return total


def make_soft_labels(teacher_table: dict[str, np.ndarray], labels: LabelSet,
                     delta: float) -> dict[str, np.ndarray]:
    """yhat = y + clip(teacher - y, -delta, +delta), per metric and entry."""
    out = {}
    for m in HEAD_METRICS:
        y = labels.metric(m)
        out[m] = y + np.clip(teacher_table[m] - y, -delta, delta)
    return out


def shift_toward(expert_xy: np.ndarray, selected_xy: np.ndarray) -> np.ndarray:
    """Move each expert waypoint toward the selection by at most 1 m."""
    off = selected_xy - expert_xy
    norm = np.hypot(off[:, 0], off[:, 1])
    step = np.minimum(norm, 1.0)
    scale = np.divide(step, norm, out=np.zeros_like(norm), where=norm > 1e-12)
    return expert_xy + off * scale[:, None]


def loss_soft(tape, fwd: ForwardPass, yhat: dict[str, np.ndarray],
              soft_targets: np.ndarray):
    """Distillation loss on the coarse stage against teacher-derived labels."""
    yh = np.stack([yhat[m] for m in HEAD_METRICS], axis=1)
    return _stage_loss(tape, fwd.coarse_logits, yh, soft_targets)


# ---- training ----


@dataclass
class TrainResult:
    model: PlannerModel
    steps: int
    log: list[dict] = field(repr=False, default_factory=list)
    aborted: bool = False


def _view_loss(tape, bound, cfg: PlannerConfig, vocabulary, s: Scenario,
               labels: LabelSet):
    """Forward pass and imitation plus per-metric loss of both stages on s."""
    targets = imitation_targets(labels.l2, cfg.imi_temperature)
    fwd = forward(tape, bound, cfg, vocabulary, s)
    loss = loss_coarse(tape, fwd, labels, targets)
    l_ref = loss_refine(tape, fwd, labels, labels.l2, cfg.imi_temperature)
    if l_ref is not None:
        loss = tape.add(loss, l_ref)
    return fwd, loss


def _sample_step(model: PlannerModel, s: Scenario, labels: LabelSet, aug_rng,
                 eval_cfg, teacher_is_student: bool, batch: int):
    """Add one sample's loss gradients, scaled by 1/batch, to the student's.

    Returns the sample's (original, rotated, soft) loss values, 0.0 for a
    loss the config turns off. The sample's graph dies when it returns.
    """
    cfg, vocabulary = model.cfg, model.vocabulary
    tape = Tape()
    bound = model.student.bind(tape)
    fwd, l_ori = _view_loss(tape, bound, cfg, vocabulary, s, labels)
    total = l_ori
    l_aug = l_soft = None
    if cfg.augment:
        s_rot = rotate_scenario(s, sample_rotation(aug_rng, cfg.theta))
        rot_labels = evaluator.label_vocabulary(s_rot, vocabulary, eval_cfg)
        _, l_aug = _view_loss(tape, bound, cfg, vocabulary, s_rot, rot_labels)
        total = tape.add(total, l_aug)
    if cfg.soft_labels:
        t = fwd if teacher_is_student else infer(model, s)
        yhat = make_soft_labels(t.coarse_table, labels, cfg.delta)
        shifted = shift_toward(s.expert.xy, vocabulary.positions[t.selected])
        d_soft = l2_to_entries(vocabulary.positions, shifted)
        soft_targets = imitation_targets(d_soft, cfg.imi_temperature)
        l_soft = loss_soft(tape, fwd, yhat, soft_targets)
        total = tape.add(total, l_soft)
    tape.backward(tape.scale(total, 1.0 / batch))
    model.student.collect(bound)
    return tuple(0.0 if l is None else float(l.value[0, 0])
                 for l in (l_ori, l_aug, l_soft))


def train(scenarios: list[Scenario], vocabulary: TrajectoryVocabulary,
          cfg: PlannerConfig, seed: int, labels,
          eval_cfg=evaluator.DEFAULT_EVAL_CONFIG, progress=None) -> TrainResult:
    """Train a student/EMA-teacher pair; deterministic for a fixed seed.

    `labels` holds one LabelSet per scenario; rotated copies are labelled
    under `eval_cfg` as they are drawn. `progress`, when given, receives
    each step's log record as it is made. A non-finite value ends training
    with the weights of the last completed epoch.

    The soft labels come from the teacher's table and selection for the
    original scene. While the teacher's weights are the student's (before
    the first step, and after every EMA step with momentum 0, as in the
    scratch schedule's first three epochs), they are read from the
    student's own forward of that scene, which gives the same values;
    otherwise a teacher `infer` computes them.
    """
    if not scenarios:
        raise ValueError("empty training set")
    if len(labels) != len(scenarios):
        raise ValueError("labels must hold one LabelSet per scenario")

    student = init_params(cfg, vocabulary, seed)
    model = PlannerModel(cfg, vocabulary, student, student.copy())
    adam = AdamState(student, lr=cfg.lr)
    shuffle_rng = np.random.default_rng([seed, 101])
    aug_rng = np.random.default_rng([seed, 202])

    n = len(scenarios)
    batch = max(1, min(cfg.batch_size, n))
    steps_per_epoch = (n + batch - 1) // batch
    log: list[dict] = []
    teacher_is_student = True
    for _ in range(cfg.epochs):
        snapshot = (student.copy(), model.teacher.copy())
        order = shuffle_rng.permutation(n)
        for b0 in range(0, n, batch):
            items = order[b0 : b0 + batch]
            t_start = time.perf_counter()
            m = ema_momentum(cfg.ema_mode, len(log) / steps_per_epoch)
            student.zero_grads()
            try:
                losses = [_sample_step(model, scenarios[i], labels[i], aug_rng,
                                       eval_cfg, teacher_is_student, len(items))
                          for i in items]
                adam_step(student, adam)
                ema_update(model.teacher, student, m)
            except NonFiniteDetected:
                model.student, model.teacher = snapshot
                return TrainResult(model=model, steps=len(log), log=log, aborted=True)
            teacher_is_student = m == 0.0
            l_ori, l_aug, l_soft = (sum(col) / len(items) for col in zip(*losses))
            rec = {
                "step": len(log) + 1,
                "L_ori": l_ori,
                "L_aug": l_aug,
                "L_soft": l_soft,
                "ema_m": m,
                "wall_ms": 1000.0 * (time.perf_counter() - t_start),
            }
            log.append(rec)
            if progress is not None:
                progress(rec)
    return TrainResult(model=model, steps=len(log), log=log)
