"""Plain-text run configuration.

One INI file drives a whole run: sections ``[generator]``, ``[evaluator]``
and ``[planner]`` map onto the corresponding dataclasses, with vocabulary
knobs folded into ``[generator]`` under a ``vocab_`` prefix.
Every artifact (dataset, checkpoint, report) records the sha256 of the
canonical rendering so runs can be traced back to their exact settings.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, fields, replace
from itertools import groupby
from operator import itemgetter

from .evaluator import EvaluatorConfig
from .planner import PlannerConfig
from .scenario import GenConfig
from .vocab import VocabSpec


class ConfigError(ValueError):
    """Unknown section or key, or a value that does not parse."""


@dataclass
class AppConfig:
    generator: GenConfig = field(default_factory=GenConfig)
    evaluator: EvaluatorConfig = field(default_factory=EvaluatorConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)


_SECTIONS = tuple(f.name for f in fields(AppConfig))
_VOCAB_PREFIX = "vocab_"


def _format_value(v, sep: str = ", ") -> str:
    """Text form of a value; a tuple inside a tuple is joined by ":"."""
    if isinstance(v, tuple):
        return sep.join(_format_value(x, ":") for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(text: str, proto, sep: str = ","):
    """Parse text into the type of the prototype value, or raise ValueError.

    A tuple's items parse like its first item, except a tuple inside a
    tuple (a `metric:weight` pair), which holds one item per item of its
    prototype.
    """
    text = text.strip()
    if isinstance(proto, tuple):
        parts = [p for p in (p.strip() for p in text.split(sep)) if p]
        if sep == ",":
            return tuple(_parse_value(p, proto[0], ":") for p in parts)
        if len(parts) != len(proto):
            raise ValueError("expected %d items like %s, not %r"
                             % (len(proto), _format_value(proto, sep), text))
        return tuple(_parse_value(p, q) for p, q in zip(parts, proto))
    if isinstance(proto, bool):
        low = text.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ValueError("bad boolean %r" % text)
    if isinstance(proto, (int, float)):
        return type(proto)(text)
    return text


def _parse_like(key: str, text: str, proto):
    try:
        return _parse_value(text, proto)
    except ValueError as e:
        raise ConfigError("bad value for %s: %s" % (key, e)) from None


def _keys(cfg: AppConfig):
    """(section, key, value) for every INI key of `cfg`, in canonical order.

    The one definition of the file layout: each `VocabSpec` field is the
    `[generator]` key `vocab_<field>`.
    """
    for section in _SECTIONS:
        obj = getattr(cfg, section)
        for f in fields(obj):
            v = getattr(obj, f.name)
            if f.name == "vocab":
                for vf in fields(v):
                    yield section, _VOCAB_PREFIX + vf.name, getattr(v, vf.name)
            else:
                yield section, f.name, v


def config_text(cfg: AppConfig) -> str:
    """Canonical INI rendering; stable field order, every key explicit."""
    return "\n".join(
        "[%s]\n" % section + "".join("%s = %s\n" % (k, _format_value(v)) for _, k, v in keys)
        for section, keys in groupby(_keys(cfg), itemgetter(0)))


def config_hash(cfg: AppConfig) -> str:
    return hashlib.sha256(config_text(cfg).encode("utf-8")).hexdigest()


def parse_config(text: str, source: str = "<string>") -> AppConfig:
    """Parse INI text read from `source`; an unknown section or key raises ConfigError."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=source)
    except configparser.Error as e:
        raise ConfigError(str(e)) from None
    # configparser hands [DEFAULT]'s keys to every section; none has such keys.
    for sec in cp.sections() + ([cp.default_section] if cp.defaults() else []):
        if sec not in _SECTIONS:
            raise ConfigError("unknown section [%s]" % sec)

    cfg = AppConfig()
    protos = {(section, key): v for section, key, v in _keys(cfg)}
    for section in filter(cp.has_section, _SECTIONS):
        obj = getattr(cfg, section)
        overrides, vocab = {}, {}
        for key, raw in cp.items(section):
            if (section, key) not in protos:
                raise ConfigError("unknown key %s in [%s]" % (key, section))
            name = key.removeprefix(_VOCAB_PREFIX)
            (overrides if name == key else vocab)[name] = _parse_like(
                key, raw, protos[section, key])
        if vocab:
            try:
                overrides["vocab"] = replace(obj.vocab, **vocab)
            except (TypeError, ValueError) as e:
                raise ConfigError("invalid vocab settings: %s" % e) from None
        try:
            setattr(cfg, section, replace(obj, **overrides))
        except (TypeError, ValueError) as e:
            raise ConfigError("invalid [%s] settings: %s" % (section, e)) from None
    return cfg


def load_config(path) -> AppConfig:
    """The config in the INI file at `path`; every ConfigError names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError("cannot read config %s: %s" % (path, e)) from None
    try:
        return parse_config(text, source=str(path))
    except ConfigError as e:
        raise ConfigError("%s: %s" % (path, e)) from None


def desk_config() -> AppConfig:
    """Small grid and model; minutes-scale training on a laptop CPU."""
    return AppConfig(
        generator=GenConfig(vocab=VocabSpec(n_curvature=16, n_speed=8, n_accel=4)),
        planner=PlannerConfig(
            hidden_dim=64,
            coarse_layers=2,
            refine_layers=2,
            attn_heads=2,
            ff_dim=128,
            top_k=64,
            lr=2e-3,
            epochs=2,
            ema_mode="scratch",
        ),
    )


def paper_config() -> AppConfig:
    """Full-scale settings; defaults of every block."""
    return AppConfig()
