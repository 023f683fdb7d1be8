"""Structured run configuration: a flat-sectioned YAML file parsed into a
frozen dataclass with explicit defaults, so every artifact is reproducible
from its config echo."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np
import yaml

from .estimator import MIN_EFFECTIVE_SAMPLES
from .models import BUILTIN_MODELS

# The keys each section accepts; anything else is refused by name.
SECTIONS = {
    "model": ("name", "params"),
    "grid": ("horizon", "steps"),
    "sampling": ("x0", "n_paths", "seed"),
    "score": ("t_eval", "y_min", "y_max", "y_count", "bandwidth", "knn"),
    "output": ("directory", "dump_paths", "dump_breakdown"),
    "reverse": ("provider", "n_samples", "tables_dir"),
    "validate": ("n_paths", "bump_probes", "flip_b_term"),
}
PROVIDERS = ("analytic", "tables")
_REQUIRED = object()


class ConfigError(ValueError):
    """Invalid or malformed run configuration; names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    model_name: str
    model_params: dict
    horizon: float
    steps: int
    x0: tuple
    n_paths: int
    seed: int
    t_eval: tuple = ()
    y_min: tuple = ()
    y_max: tuple = ()
    y_count: tuple = ()
    bandwidth: Any = "auto"
    knn: int | None = None
    out_dir: str = "out"
    dump_paths: int = 0
    dump_breakdown: bool = False
    reverse_provider: str = "analytic"
    reverse_samples: int = 10_000
    reverse_tables_dir: str | None = None
    validate_paths: int = 10_000
    bump_probes: int = 20
    flip_b_term: bool = False

    def y_points(self) -> np.ndarray:
        """Expand the per-dimension (min, max, count) spec into a full grid."""
        if not self.y_count:
            raise ConfigError("score.y_count: score grid not configured")
        axes = [
            np.linspace(lo, hi, n)
            for lo, hi, n in zip(self.y_min, self.y_max, self.y_count)
        ]
        if len(axes) == 1:
            return axes[0][:, None]
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


def _section(raw: dict, name: str) -> dict:
    sec = raw.get(name, {})
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: expected a mapping, got {type(sec).__name__}")
    for key in sec:
        if key not in SECTIONS[name]:
            raise ConfigError(f"{name}.{key}: unknown key (expected one of {list(SECTIONS[name])})")
    return sec


def _get(sec: dict, section: str, key: str, kind, default=_REQUIRED):
    if key not in sec:
        if default is _REQUIRED:
            raise ConfigError(f"{section}.{key}: required field missing")
        return default
    val = sec[key]
    try:
        if kind is int:
            if isinstance(val, bool) or val != int(val):
                raise TypeError
            return int(val)
        if kind is float:
            return float(val)
        if kind is bool:
            if not isinstance(val, bool):
                raise TypeError
            return val
        if kind is str:
            if not isinstance(val, str):
                raise TypeError
            return val
    except (TypeError, ValueError):
        raise ConfigError(
            f"{section}.{key}: expected {kind.__name__}, got {val!r}"
        ) from None
    raise AssertionError(kind)


def _float_tuple(sec, section, key, default=None):
    if key not in sec:
        if default is None:
            raise ConfigError(f"{section}.{key}: required field missing")
        return default
    val = sec[key]
    if np.isscalar(val):
        val = [val]
    try:
        return tuple(float(v) for v in val)
    except (TypeError, ValueError):
        raise ConfigError(f"{section}.{key}: expected a list of numbers, got {val!r}") from None


def _int_tuple(sec, section, key, default=None):
    vals = _float_tuple(sec, section, key, default)
    if any(v != int(v) for v in vals):
        raise ConfigError(f"{section}.{key}: expected integers, got {vals!r}")
    return tuple(int(v) for v in vals)


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed mapping into a RunConfig, naming bad fields."""
    if not isinstance(raw, dict):
        raise ConfigError(f"top level: expected a mapping, got {type(raw).__name__}")
    for key in raw:
        if key not in SECTIONS:
            raise ConfigError(f"{key}: unknown section (expected one of {sorted(SECTIONS)})")

    model = _section(raw, "model")
    name = _get(model, "model", "name", str)
    if name not in BUILTIN_MODELS:
        raise ConfigError(
            f"model.name: unknown model '{name}' (builtins: {sorted(BUILTIN_MODELS)})"
        )
    params = model.get("params", {}) or {}
    if not isinstance(params, dict):
        raise ConfigError("model.params: expected a mapping")

    gridsec = _section(raw, "grid")
    horizon = _get(gridsec, "grid", "horizon", float)
    steps = _get(gridsec, "grid", "steps", int)
    if horizon <= 0:
        raise ConfigError(f"grid.horizon: must be positive, got {horizon}")
    if steps < 2:
        raise ConfigError(f"grid.steps: must be at least 2, got {steps}")

    samp = _section(raw, "sampling")
    x0 = _float_tuple(samp, "sampling", "x0")
    n_paths = _get(samp, "sampling", "n_paths", int)
    seed = _get(samp, "sampling", "seed", int)
    if n_paths < 1:
        raise ConfigError(f"sampling.n_paths: must be positive, got {n_paths}")

    score = _section(raw, "score")
    t_eval = _float_tuple(score, "score", "t_eval", ())
    y_min = _float_tuple(score, "score", "y_min", ())
    y_max = _float_tuple(score, "score", "y_max", ())
    y_count = _int_tuple(score, "score", "y_count", ())
    if not len(y_min) == len(y_max) == len(y_count):
        raise ConfigError(
            "score.y_min/y_max/y_count: per-dimension specs must have equal length"
        )
    for j, (lo, hi, n) in enumerate(zip(y_min, y_max, y_count)):
        if n < 1:
            raise ConfigError(f"score.y_count[{j}]: must be positive, got {n}")
        if lo > hi:
            raise ConfigError(f"score.y_min[{j}]: {lo} exceeds y_max {hi}")
    bandwidth = score.get("bandwidth", "auto")
    if isinstance(bandwidth, str):
        if bandwidth != "auto":
            raise ConfigError(f"score.bandwidth: expected 'auto' or a number, got '{bandwidth}'")
    else:
        try:
            bandwidth = float(bandwidth)
        except (TypeError, ValueError):
            raise ConfigError(f"score.bandwidth: expected 'auto' or a number, got {bandwidth!r}") from None
        if bandwidth <= 0:
            raise ConfigError(f"score.bandwidth: must be positive, got {bandwidth}")
    knn = score.get("knn")
    if knn is not None:
        knn = _get(score, "score", "knn", int)
        if knn < MIN_EFFECTIVE_SAMPLES:
            raise ConfigError(f"score.knn: must be at least {int(MIN_EFFECTIVE_SAMPLES)}, got {knn}")

    out = _section(raw, "output")
    out_dir = _get(out, "output", "directory", str, "out")
    dump_paths = _get(out, "output", "dump_paths", int, 0)
    dump_breakdown = _get(out, "output", "dump_breakdown", bool, False)
    if dump_paths < 0:
        raise ConfigError(f"output.dump_paths: must be non-negative, got {dump_paths}")

    rev = _section(raw, "reverse")
    provider = _get(rev, "reverse", "provider", str, "analytic")
    if provider not in PROVIDERS:
        raise ConfigError(f"reverse.provider: expected one of {PROVIDERS}, got '{provider}'")
    reverse_samples = _get(rev, "reverse", "n_samples", int, 10_000)
    tables_dir = rev.get("tables_dir")
    if tables_dir is not None and not isinstance(tables_dir, str):
        raise ConfigError(f"reverse.tables_dir: expected a path, got {tables_dir!r}")

    val = _section(raw, "validate")
    validate_paths = _get(val, "validate", "n_paths", int, 10_000)
    bump_probes = _get(val, "validate", "bump_probes", int, 20)
    flip_b = _get(val, "validate", "flip_b_term", bool, False)

    return RunConfig(
        model_name=name,
        model_params=dict(params),
        horizon=horizon,
        steps=steps,
        x0=x0,
        n_paths=n_paths,
        seed=seed,
        t_eval=t_eval,
        y_min=y_min,
        y_max=y_max,
        y_count=y_count,
        bandwidth=bandwidth,
        knn=knn,
        out_dir=out_dir,
        dump_paths=dump_paths,
        dump_breakdown=dump_breakdown,
        reverse_provider=provider,
        reverse_samples=reverse_samples,
        reverse_tables_dir=tables_dir,
        validate_paths=validate_paths,
        bump_probes=bump_probes,
        flip_b_term=flip_b,
    )


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
