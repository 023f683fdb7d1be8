"""Structured run configuration: a flat-sectioned YAML file parsed into a
frozen dataclass with explicit defaults, so every artifact is reproducible
from its config echo. Each RunConfig field names its YAML section, key and
parser once; the accepted keys and the parse loop derive from the fields.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np
import yaml

from .estimator import MIN_EFFECTIVE_SAMPLES
from .models import BUILTIN_MODELS

PROVIDERS = ("analytic", "tables")


class ConfigError(ValueError):
    """Invalid or malformed run configuration; names the offending field."""


# Parsers take (value, where), where is "section.key", and return the value
# to store or raise a ConfigError that starts with where.


def _int(val, where: str) -> int:
    try:
        if not isinstance(val, bool) and val == int(val):
            return int(val)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{where}: expected int, got {val!r}")


def _float(val, where: str) -> float:
    try:
        if np.isfinite(v := float(val)):
            return v
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{where}: expected a finite number, got {val!r}")


def _str(val, where: str) -> str:
    if not isinstance(val, str):
        raise ConfigError(f"{where}: expected str, got {val!r}")
    return val


def _mapping(val, where: str) -> dict:
    # Only an empty YAML entry means {}: [] or 0 in place of a mapping is refused.
    if val is None:
        return {}
    if not isinstance(val, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(val).__name__}")
    return dict(val)


def _floats(val, where: str) -> tuple:
    if np.isscalar(val):
        val = [val]
    try:
        vals = tuple(float(v) for v in val)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a list of numbers, got {val!r}") from None
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"{where}: expected a finite number, got {vals!r}")
    return vals


def _ints(val, where: str) -> tuple:
    vals = _floats(val, where)
    if not all(v.is_integer() for v in vals):
        raise ConfigError(f"{where}: expected integers, got {vals!r}")
    return tuple(int(v) for v in vals)


def _require(parse, ok, rule: str):
    """Parse, then refuse a value that fails ok as '<where>: <rule>, got <value>'."""

    def check(val, where: str):
        v = parse(val, where)
        if not ok(v):
            raise ConfigError(f"{where}: {rule}, got {v}")
        return v

    return check


def _positive(parse):
    return _require(parse, lambda v: v > 0, "must be positive")


def _at_least(lo: int):
    return _require(_int, lambda n: n >= lo, f"must be at least {lo}")


# Noise streams key on the seed as a uint64, and validate's bump probes on seed + 1.
_seed = _require(_int, lambda n: 0 <= n <= 2**64 - 2, "must lie in [0, 2**64 - 2]")


def _optional(parse):
    return lambda val, where: None if val is None else parse(val, where)


def _model_name(val, where: str) -> str:
    name = _str(val, where)
    if name not in BUILTIN_MODELS:
        raise ConfigError(f"{where}: unknown model '{name}' (builtins: {sorted(BUILTIN_MODELS)})")
    return name


def _one_of(*options: str):
    def check(val, where: str) -> str:
        if val not in options:
            raise ConfigError(f"{where}: expected {' or '.join(map(repr, options))}, got {val!r}")
        return val

    return check


def _key(section: str, key: str, parse, **default):
    """A field read from `section.key` by parse; required unless given a default."""
    return field(metadata={"section": section, "key": key, "parse": parse}, **default)


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    model_name: str = _key("model", "name", _model_name)
    model_params: dict = _key("model", "params", _mapping, default_factory=dict)
    horizon: float = _key("grid", "horizon", _positive(_float))
    steps: int = _key("grid", "steps", _at_least(2))
    x0: tuple = _key("sampling", "x0", _floats)
    n_paths: int = _key("sampling", "n_paths", _positive(_int))
    seed: int = _key("sampling", "seed", _seed)
    t_eval: tuple = _key("score", "t_eval", _floats, default=())
    y_min: tuple = _key("score", "y_min", _floats, default=())
    y_max: tuple = _key("score", "y_max", _floats, default=())
    y_count: tuple = _key("score", "y_count", _ints, default=())
    # Silverman's rule at each time is the only kernel bandwidth.
    bandwidth: str = _key("score", "bandwidth", _one_of("auto"), default="auto")
    knn: int | None = _key(
        "score", "knn", _optional(_at_least(int(MIN_EFFECTIVE_SAMPLES))), default=None
    )
    out_dir: str = _key("output", "directory", _str, default="out")
    dump_paths: int = _key(
        "output", "dump_paths", _require(_int, lambda n: n >= 0, "must be non-negative"), default=0
    )
    reverse_provider: str = _key("reverse", "provider", _one_of(*PROVIDERS), default="analytic")
    reverse_samples: int = _key("reverse", "n_samples", _positive(_int), default=10_000)
    reverse_tables_dir: str | None = _key("reverse", "tables_dir", _optional(_str), default=None)

    def __post_init__(self):
        if not len(self.y_min) == len(self.y_max) == len(self.y_count):
            raise ConfigError(
                "score.y_min/y_max/y_count: per-dimension specs must have equal length"
            )
        for j, (lo, hi, n) in enumerate(zip(self.y_min, self.y_max, self.y_count)):
            if n < 1:
                raise ConfigError(f"score.y_count[{j}]: must be positive, got {n}")
            if lo > hi:
                raise ConfigError(f"score.y_min[{j}]: {lo} exceeds y_max {hi}")
        if self.knn is not None and self.knn >= self.n_paths:
            # A window over every path is the sample mean, flat in y.
            raise ConfigError(f"score.knn: must be below sampling.n_paths, got {self.knn}")
        if self.reverse_provider == "tables" and not self.reverse_tables_dir:
            raise ConfigError("reverse.tables_dir: required when provider is 'tables'")

    def y_points(self) -> np.ndarray:
        """Expand the per-dimension (min, max, count) spec into a full grid."""
        if not self.y_count:
            raise ConfigError("score.y_count: score grid not configured")
        axes = [
            np.linspace(lo, hi, n)
            for lo, hi, n in zip(self.y_min, self.y_max, self.y_count)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)

    def echo_lines(self) -> list[str]:
        """Deterministic flat key=value listing of every setting."""
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, dict):
                v = "{" + ", ".join(f"{k}: {v[k]!r}" for k in sorted(v)) + "}"
            out.append(f"{f.name} = {v!r}" if not isinstance(v, str) else f"{f.name} = {v}")
        return out


# The keys each section accepts, in field order; anything else is refused by name.
SECTIONS: dict[str, list[str]] = {}
for _f in fields(RunConfig):
    SECTIONS.setdefault(_f.metadata["section"], []).append(_f.metadata["key"])


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed mapping into a RunConfig, naming bad fields."""
    if not isinstance(raw, dict):
        raise ConfigError(f"top level: expected a mapping, got {type(raw).__name__}")
    for name in raw:
        if name not in SECTIONS:
            raise ConfigError(f"{name}: unknown section (expected one of {sorted(SECTIONS)})")
    given = {name: _mapping(raw.get(name), name) for name in SECTIONS}
    for name, sec in given.items():
        for key in sec:
            if key not in SECTIONS[name]:
                raise ConfigError(
                    f"{name}.{key}: unknown key (expected one of {SECTIONS[name]})"
                )

    values = {}
    for f in fields(RunConfig):
        section, key = f.metadata["section"], f.metadata["key"]
        where = f"{section}.{key}"
        if key in given[section]:
            values[f.name] = f.metadata["parse"](given[section][key], where)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}: required field missing")
    return RunConfig(**values)


def load_config(path: str) -> RunConfig:
    """Parse a YAML config file; parse errors carry line/column positions."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"{path}: YAML parse error{loc}: {e}") from None
    if raw is None:
        raise ConfigError(f"{path}: empty config")
    return parse_config(raw)
