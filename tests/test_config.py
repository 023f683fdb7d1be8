"""Configuration parsing: every rejection names the offending section.key."""

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import yaml

from pathscore.config import SECTIONS, ConfigError, RunConfig, load_config, parse_config


def _minimal(**overrides):
    raw = {
        "model": {"name": "ornstein_uhlenbeck"},
        "grid": {"horizon": 1.0, "steps": 256},
        "sampling": {"x0": [0.0], "n_paths": 1000, "seed": 7},
    }
    for key, val in overrides.items():
        if val is None:
            raw.pop(key, None)
        else:
            raw[key] = val
    return raw


class TestParse:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config(_minimal())
        assert cfg.model_name == "ornstein_uhlenbeck"
        assert cfg.model_params == {}
        assert cfg.horizon == 1.0 and cfg.steps == 256
        assert cfg.x0 == (0.0,)
        assert cfg.n_paths == 1000 and cfg.seed == 7
        assert cfg.bandwidth == "auto" and cfg.knn is None
        assert cfg.out_dir == "out" and cfg.dump_paths == 0
        assert cfg.reverse_provider == "analytic" and cfg.reverse_samples == 10_000
        assert cfg.reverse_tables_dir is None

    def test_full_round_trip(self):
        raw = _minimal(
            model={"name": "state_dependent_tanh", "params": {"alpha": 0.25}},
            score={
                "t_eval": [0.5, 1.0],
                "y_min": [-2.0],
                "y_max": [2.0],
                "y_count": [11],
                "bandwidth": "auto",
            },
            output={"directory": "run1", "dump_paths": 2},
            reverse={"provider": "tables", "n_samples": 500, "tables_dir": "tabs"},
        )
        cfg = parse_config(raw)
        assert cfg.model_params == {"alpha": 0.25}
        assert cfg.t_eval == (0.5, 1.0)
        assert cfg.bandwidth == "auto"
        assert cfg.out_dir == "run1" and cfg.dump_paths == 2
        assert cfg.reverse_provider == "tables"
        assert cfg.reverse_samples == 500 and cfg.reverse_tables_dir == "tabs"

    def test_seed_range_ends_and_knn_beside_auto_bandwidth_accepted(self):
        # validate draws its bump probes from stream seed + 1, which the
        # largest accepted seed still keys.
        for seed in (0, 2**64 - 2):
            raw = _minimal(sampling={"x0": [0.0], "n_paths": 100, "seed": seed})
            assert parse_config(raw).seed == seed
        cfg = parse_config(_minimal(score={"bandwidth": "auto", "knn": 50}))
        assert cfg.knn == 50 and cfg.bandwidth == "auto"

    def test_scalar_x0_promoted_to_tuple(self):
        cfg = parse_config(_minimal(sampling={"x0": 0.5, "n_paths": 100, "seed": 1}))
        assert cfg.x0 == (0.5,)


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda r: r.__setitem__("extra", {}), "extra: unknown section"),
        (lambda r: r.__setitem__("model", {}), "model.name: required"),
        (lambda r: r["model"].__setitem__("name", "banana"), "model.name: unknown model"),
        (lambda r: r["model"].__setitem__("params", [1, 2]), "model.params"),
        (lambda r: r["grid"].pop("horizon"), "grid.horizon: required"),
        (lambda r: r["grid"].__setitem__("horizon", -1.0), "grid.horizon: must be positive"),
        (lambda r: r["grid"].__setitem__("steps", 1), "grid.steps: must be at least 2"),
        (lambda r: r["grid"].__setitem__("steps", 2.5), "grid.steps: expected int"),
        (lambda r: r["sampling"].pop("x0"), "sampling.x0: required"),
        (lambda r: r["sampling"].__setitem__("x0", ["a"]), "sampling.x0: expected a list"),
        (lambda r: r["sampling"].__setitem__("n_paths", 0), "sampling.n_paths: must be positive"),
        (lambda r: r["sampling"].__setitem__("seed", "x"), "sampling.seed: expected int"),
        (lambda r: r["sampling"].__setitem__("seed", True), "sampling.seed: expected int"),
        (lambda r: r["sampling"].__setitem__("seed", -1), "sampling.seed: must lie in"),
        (lambda r: r["sampling"].__setitem__("seed", 2**64 - 1), "sampling.seed: must lie in"),
        (
            lambda r: r.__setitem__("score", {"y_min": [-1], "y_max": [1], "y_count": [5, 5]}),
            "equal length",
        ),
        (
            lambda r: r.__setitem__("score", {"y_min": [-1], "y_max": [1], "y_count": [0]}),
            "score.y_count\\[0\\]: must be positive",
        ),
        (
            lambda r: r.__setitem__("score", {"y_min": [2], "y_max": [1], "y_count": [5]}),
            "score.y_min\\[0\\]",
        ),
        (lambda r: r.__setitem__("score", {"bandwidth": "wide"}), "score.bandwidth"),
        (lambda r: r.__setitem__("score", {"bandwidth": 0.3}), "score.bandwidth: expected 'auto'"),
        (lambda r: r.__setitem__("score", {"mode": "fast"}), "score.mode"),
        (lambda r: r.__setitem__("score", {"mode": "auto"}), "score.mode: unknown key"),
        (lambda r: r.__setitem__("score", {"bandwith": 0.3}), "score.bandwith: unknown key"),
        (lambda r: r["sampling"].__setitem__("n_path", 500), "sampling.n_path: unknown key"),
        (lambda r: r.__setitem__("reverse", {"tables-dir": "t"}), "reverse.tables-dir: unknown"),
        (lambda r: r.__setitem__("score", {"knn": 2}), "score.knn: must be at least 5"),
        (
            lambda r: r.__setitem__("score", {"knn": 1000}),
            "score.knn: must be below sampling.n_paths",
        ),
        (lambda r: r.__setitem__("score", {"y_min": [-math.inf]}), "score.y_min: expected a finite"),
        (lambda r: r.__setitem__("score", {"y_max": [math.nan]}), "score.y_max: expected a finite"),
        (lambda r: r.__setitem__("score", {"t_eval": [math.nan]}), "score.t_eval: expected a finite"),
        (lambda r: r["sampling"].__setitem__("x0", [math.nan]), "sampling.x0: expected a finite"),
        (lambda r: r["grid"].__setitem__("horizon", math.inf), "grid.horizon: expected a finite"),
        (lambda r: r.__setitem__("output", {"dump_paths": -1}), "output.dump_paths"),
        (lambda r: r.__setitem__("reverse", {"provider": "magic"}), "reverse.provider"),
        (lambda r: r.__setitem__("reverse", {"tables_dir": 3}), "reverse.tables_dir"),
        (lambda r: r.__setitem__("grid", [1, 2]), "grid: expected a mapping"),
        (lambda r: r.__setitem__("validate", {"n_paths": 1000}), "validate: unknown section"),
        (lambda r: r.__setitem__("output", 0), "output: expected a mapping"),
        (lambda r: r.__setitem__("reverse", {"n_samples": 0}), "reverse.n_samples: must be positive"),
        (
            lambda r: r.__setitem__("reverse", {"provider": "tables"}),
            "reverse.tables_dir: required when provider is 'tables'",
        ),
    ],
)
def test_rejections_name_the_field(mutate, needle):
    raw = _minimal()
    mutate(raw)
    with pytest.raises(ConfigError, match=needle):
        parse_config(raw)


def test_readme_lists_every_key():
    # The README's Configuration block claims to list every key.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Configuration", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    raw = yaml.safe_load(block)
    parse_config(raw)
    assert {name: set(sec) for name, sec in raw.items()} == {
        name: set(keys) for name, keys in SECTIONS.items()
    }


def test_benchmark_configs_parse(tmp_path, monkeypatch):
    # perfbench/run.py imports its workloads with perfbench/ on sys.path; a
    # config of theirs that parse_config refuses would fail every benchmark run.
    # Nothing is written under perfbench/, not even a bytecode cache.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS
    for w in workloads.WORKLOADS.values():
        raw = workloads.config_for(w, 11, tables_dir=str(tmp_path))
        assert parse_config(raw).seed == 11, w.name


def test_top_level_must_be_mapping():
    with pytest.raises(ConfigError, match="top level"):
        parse_config([1, 2, 3])


class TestYPoints:
    def test_one_dim_column(self):
        cfg = parse_config(
            _minimal(score={"y_min": [-1.0], "y_max": [1.0], "y_count": [5]})
        )
        pts = cfg.y_points()
        assert pts.shape == (5, 1)
        npt.assert_allclose(pts[:, 0], np.linspace(-1, 1, 5))

    def test_two_dim_full_grid_row_major(self):
        cfg = parse_config(
            _minimal(
                model={"name": "linear_multidim"},
                sampling={"x0": [0.0, 0.0], "n_paths": 100, "seed": 1},
                score={"y_min": [0.0, 10.0], "y_max": [1.0, 11.0], "y_count": [2, 3]},
            )
        )
        pts = cfg.y_points()
        assert pts.shape == (6, 2)
        npt.assert_allclose(pts[0], [0.0, 10.0])
        npt.assert_allclose(pts[1], [0.0, 10.5])
        npt.assert_allclose(pts[-1], [1.0, 11.0])

    def test_unconfigured_grid_refused(self):
        with pytest.raises(ConfigError, match="score.y_count"):
            parse_config(_minimal()).y_points()


class TestEcho:
    def test_every_field_listed_once_deterministically(self):
        cfg = parse_config(_minimal(model={"name": "ornstein_uhlenbeck", "params": {"theta": 2.0, "sigma0": 0.5}}))
        lines = cfg.echo_lines()
        from dataclasses import fields

        assert len(lines) == len(fields(RunConfig))
        joined = "\n".join(lines)
        assert "model_name = ornstein_uhlenbeck" in joined
        # dict params are rendered with sorted keys for stable echoes
        assert "model_params = {sigma0: 0.5, theta: 2.0}" in joined
        assert lines == parse_config(_minimal(model={"name": "ornstein_uhlenbeck", "params": {"sigma0": 0.5, "theta": 2.0}})).echo_lines()


class TestLoad:
    def test_yaml_file_round_trip(self, tmp_path):
        cfg_file = tmp_path / "run.yaml"
        cfg_file.write_text(
            "model:\n  name: ornstein_uhlenbeck\n"
            "grid:\n  horizon: 1.0\n  steps: 16\n"
            "sampling:\n  x0: [0.25]\n  n_paths: 500\n  seed: 3\n"
        )
        cfg = load_config(str(cfg_file))
        assert cfg.steps == 16 and cfg.x0 == (0.25,)

    def test_missing_file_named(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/nowhere.yaml")

    def test_parse_error_carries_position(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("model:\n  name: [unclosed\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(str(bad))

    def test_empty_file_refused(self, tmp_path):
        empty = tmp_path / "empty.yaml"
        empty.write_text("\n")
        with pytest.raises(ConfigError, match="empty"):
            load_config(str(empty))
