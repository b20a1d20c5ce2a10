"""Flat key-value experiment configuration.

The format is plain text, one ``section.key = value`` per line, ``#``
comments allowed. Each key is a field of one of the spec dataclasses
(``DatasetSpec`` and ``NoiseSpec`` from ``data``, ``TrainConfig`` from
``trainer``, ``ReportSpec`` below), which gives its name, type, default and
rules; the effective (fully materialized) config is echoed into the metrics
JSON so a run can be reproduced from its own output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import get_type_hints

from .data import DatasetSpec, NoiseSpec
from .errors import ConfigError
from .trainer import TrainConfig

DEFAULT_TAU_GRID = tuple(round(0.05 * i, 2) for i in range(21))


@dataclass(frozen=True)
class ReportSpec:
    formats: tuple[str, ...] = ("json", "csv")
    prcurve: bool = True
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID
    gmm_dump: bool = False
    plan_digests: bool = False
    checkpoints: bool = False

    def __post_init__(self):
        for f in self.formats:
            if f not in ("json", "csv"):
                raise ConfigError(f"report.formats values must be json or csv, got {f!r}")
        if not self.tau_grid:
            raise ConfigError("report.tau_grid must list at least one threshold")
        for tau in self.tau_grid:
            if not 0.0 <= tau <= 1.0:
                raise ConfigError(f"report.tau_grid values must be in [0, 1], got {tau}")


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec
    noise: NoiseSpec
    train: TrainConfig
    report: ReportSpec


def parse_flat_config(text) -> dict:
    """Strict ``key = value`` lines into an ordered mapping."""
    out: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key in out:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        out[key] = value
    return out


def _to_bool(key, value):
    low = value.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _to_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _to_float(key, value):
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return number


def _to_mapping(key, value):
    if not value:
        return None
    mapping = {}
    for part in value.split(","):
        src, sep, dst = part.partition(":")
        if not sep:
            raise ConfigError(f"{key}: expected 'src:dst' pairs, got {part!r}")
        src = _to_int(key, src.strip())
        if src in mapping:
            raise ConfigError(f"{key}: class {src} is mapped twice")
        mapping[src] = _to_int(key, dst.strip())
    return mapping


def _to_tuple(item):
    def parse(key, value):
        if not value.strip():
            return ()
        items = [v.strip() for v in value.split(",")]
        if "" in items:
            raise ConfigError(f"{key}: blank item in {value!r}")
        return tuple(item(key, v) for v in items)
    return parse


def _to_str(key, value):
    return value


# One parser per field annotation; a field of any other type fails at import.
_PARSERS = {
    int: _to_int,
    float: _to_float,
    bool: _to_bool,
    str: _to_str,
    dict | None: _to_mapping,
    tuple[int, ...]: _to_tuple(_to_int),
    tuple[float, ...]: _to_tuple(_to_float),
    tuple[str, ...]: _to_tuple(_to_str),
}

# ExperimentConfig field -> its spec dataclass.
_SECTIONS = get_type_hints(ExperimentConfig)


def _config_keys() -> dict:
    """Config key ``<section>.<field>`` -> (section, field, parser) in
    ExperimentConfig field order, which is also the echo order."""
    keys = {}
    for section, spec in _SECTIONS.items():
        hints = get_type_hints(spec)
        for f in fields(spec):
            keys[f"{section}.{f.name}"] = (section, f.name, _PARSERS[hints[f.name]])
    return keys


_KEYS = _config_keys()


def build_experiment(mapping) -> ExperimentConfig:
    """Typed ExperimentConfig from a flat string mapping.

    Unknown keys are errors. Keys the mapping leaves out take their
    dataclass field's default, except that under asymmetric noise both loss
    weights default to 0.
    """
    given = {section: {} for section in _SECTIONS}
    for key, raw in mapping.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key: {key}")
        section, name, parse = _KEYS[key]
        given[section][name] = parse(key, raw)
    parts = {}
    for section in given:
        if section == "train" and parts["noise"].kind == "asymmetric":
            given[section] = {"lambda_u": 0.0, "lambda_reg": 0.0, **given[section]}
        parts[section] = _SECTIONS[section](**given[section])
    if parts["train"].mode == "ce" and parts["report"].gmm_dump:
        raise ConfigError("report.gmm_dump = true needs GMM fits, which train.mode = ce "
                          "does not run")
    return ExperimentConfig(**parts)


def apply_seed_override(mapping, seed) -> dict:
    """Single master seed: data=N, model1=N+11, model2=N+22, plan=N+33, noise=N+101."""
    out = dict(mapping)
    out["train.data_seed"] = str(seed)
    out["train.model1_seed"] = str(seed + 11)
    out["train.model2_seed"] = str(seed + 22)
    out["train.plan_seed"] = str(seed + 33)
    out["noise.seed"] = str(seed + 101)
    return out


def _fmt_value(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(_fmt_value(x) for x in v)
    if isinstance(v, dict):
        return ",".join(f"{k}:{v[k]}" for k in sorted(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def effective_config(exp: ExperimentConfig) -> dict:
    """Canonical flat echo of every key, defaults materialized."""
    return {key: _fmt_value(getattr(getattr(exp, section), name))
            for key, (section, name, _) in _KEYS.items()}
