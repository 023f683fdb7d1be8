"""End-to-end command tests: artifacts, schemas, exit codes, determinism.

Every command runs in-process through main(argv) against a temp directory,
so these tests exercise exactly what a shell user gets.
"""

import logging
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import pathscore
from pathscore import cli, estimator
from pathscore.cli import main

OU_SMALL = """
model:
  name: ornstein_uhlenbeck
grid:
  horizon: 1.0
  steps: 16
sampling:
  x0: [0.0]
  n_paths: {n_paths}
  seed: 20260814
score:
  t_eval: [1.0]
  y_min: [-1.0]
  y_max: [1.0]
  y_count: [5]
{extra}
"""


def _write(tmp_path, text, name="run.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _run(args):
    return main(args)


class TestScoreCommand:
    def test_artifacts_and_summary(self, tmp_path, capsys):
        cfg = _write(tmp_path, OU_SMALL.format(n_paths=2000, extra=""))
        out = tmp_path / "out"
        rc = _run(["score", "--config", cfg, "--out", str(out)])
        assert rc == 0
        table = (out / "score_n0016.csv").read_text().splitlines()
        assert table[0] == "t,y_1,k,score,stderr,n_eff,excluded"
        assert len(table) == 1 + 5
        summary = (out / "summary.txt").read_text()
        assert summary.startswith("pathscore score summary")
        assert "model_name = ornstein_uhlenbeck" in summary
        assert "analytic comparison" in summary
        assert "node 16" in summary
        # Timings are diagnostics: stderr only, never in artifacts.
        captured = capsys.readouterr()
        assert "[timing]" in captured.err
        assert "[timing]" not in summary and "[timing]" not in "\n".join(table)

    def test_worker_count_and_reruns_are_byte_identical(self, tmp_path):
        cfg = _write(tmp_path, OU_SMALL.format(n_paths=5000, extra=""))
        outs = [tmp_path / f"out{i}" for i in range(3)]
        assert _run(["score", "--config", cfg, "--out", str(outs[0]), "--workers", "1"]) == 0
        assert _run(["score", "--config", cfg, "--out", str(outs[1]), "--workers", "2"]) == 0
        assert _run(["score", "--config", cfg, "--out", str(outs[2]), "--workers", "1"]) == 0
        blobs = [(o / "score_n0016.csv").read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2]


    def test_eval_times_in_any_order(self, tmp_path, caplog):
        # One pass serves every node whatever the order or repeats of t_eval;
        # files and summary lines follow the config.
        runs = {}
        for tag, t_eval in (("sorted", "[0.5, 1.0]"), ("mixed", "[1.0, 0.5, 1.0]")):
            text = OU_SMALL.format(n_paths=500, extra="").replace("t_eval: [1.0]", f"t_eval: {t_eval}")
            out = tmp_path / tag
            caplog.clear()
            cfg = _write(tmp_path, text, f"{tag}.yaml")
            with caplog.at_level(logging.INFO, logger="pathscore.estimator"):
                assert _run(["score", "--config", cfg, "--out", str(out)]) == 0
            runs[tag] = out
        # The repeated node of the mixed run is regressed once.
        logged = [r.getMessage() for r in caplog.records]
        assert sorted(msg.split(":")[0] for msg in logged if "regression" in msg) == [
            "node 16 regression",
            "node 8 regression",
        ]
        for name in ("score_n0008.csv", "score_n0016.csv"):
            assert (runs["mixed"] / name).read_bytes() == (runs["sorted"] / name).read_bytes()
        summary = (runs["mixed"] / "summary.txt").read_text()
        lines = [line.split(" (t=")[0].strip() for line in summary.splitlines() if "file score_n" in line]
        assert lines == ["node 16", "node 8", "node 16"]


class TestSimulateCommand:
    def test_trajectory_dump(self, tmp_path):
        cfg = _write(
            tmp_path,
            OU_SMALL.format(n_paths=200, extra="output:\n  dump_paths: 3\n"),
        )
        out = tmp_path / "out"
        assert _run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "trajectories.csv").read_text().splitlines()
        assert rows[0] == "path,i,t,X_1,Y_11,Yinv_11,Z_111"
        assert len(rows) == 1 + 3 * 17
        summary = (out / "summary.txt").read_text()
        assert "blow-ups 0" in summary
        assert "trajectories.csv (3 paths)" in summary

    def test_no_dump_when_not_requested(self, tmp_path):
        cfg = _write(tmp_path, OU_SMALL.format(n_paths=100, extra=""))
        out = tmp_path / "out"
        assert _run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert not (out / "trajectories.csv").exists()


class TestDualityCommand:
    # validate writes the duality matrix that its duality check tests.
    def test_matrix_artifact(self, tmp_path):
        cfg = _write(
            tmp_path,
            OU_SMALL.format(n_paths=2000, extra="").replace("seed: 20260814", "seed: 1"),
        )
        out = tmp_path / "out"
        assert _run(["validate", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "duality.csv").read_text().splitlines()
        assert rows[0] == "i,k,estimate,stderr"
        assert len(rows) == 2
        i, k, est, se = rows[1].split(",")
        assert (i, k) == ("1", "1")
        assert abs(float(est) - 1.0) < 5 * float(se)
        assert "PASS duality" in (out / "summary.txt").read_text()

    def test_worker_byte_identity(self, tmp_path):
        # 5000 paths are two chunks, so --workers 3 forks. At 16 steps the
        # duality check FAILs on this seed: the estimate reads 1.094, 4.3 SE
        # off (1.018 at 64 steps). The matrix is written either way.
        cfg = _write(tmp_path, OU_SMALL.format(n_paths=5000, extra=""))
        a, b = tmp_path / "a", tmp_path / "b"
        rc_a = _run(["validate", "--config", cfg, "--out", str(a), "--workers", "1"])
        rc_b = _run(["validate", "--config", cfg, "--out", str(b), "--workers", "3"])
        assert rc_a == rc_b and rc_a in (0, 1)
        assert (a / "duality.csv").read_bytes() == (b / "duality.csv").read_bytes()


class TestReverseCommand:
    def test_analytic_provider(self, tmp_path):
        cfg = _write(
            tmp_path,
            OU_SMALL.format(n_paths=100, extra="reverse:\n  n_samples: 200\n"),
        )
        out = tmp_path / "out"
        assert _run(["reverse", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "reverse_samples.csv").read_text().splitlines()
        assert rows[0] == "sample,x_1"
        assert len(rows) == 1 + 200
        summary = (out / "summary.txt").read_text()
        assert "provider analytic" in summary
        assert "mean at t=0" in summary and "x0:" in summary

    def test_table_provider_round_trip(self, tmp_path, capsys):
        steps = 8
        t_eval = ", ".join(str((k + 1) / steps) for k in range(steps))
        score_cfg = _write(
            tmp_path,
            f"""
model:
  name: ornstein_uhlenbeck
grid:
  horizon: 1.0
  steps: {steps}
sampling:
  x0: [0.0]
  n_paths: 2000
  seed: 11
score:
  t_eval: [{t_eval}]
  y_min: [-6.0]
  y_max: [6.0]
  y_count: [61]
  knn: 150
""",
            name="tables.yaml",
        )
        tables_dir = tmp_path / "tables"
        assert _run(["score", "--config", score_cfg, "--out", str(tables_dir)]) == 0
        assert len(list(tables_dir.glob("score_n*.csv"))) == steps

        rev_cfg = _write(
            tmp_path,
            f"""
model:
  name: ornstein_uhlenbeck
grid:
  horizon: 1.0
  steps: {steps}
sampling:
  x0: [0.0]
  n_paths: 100
  seed: 12
reverse:
  provider: tables
  n_samples: 300
  tables_dir: {tables_dir}
""",
            name="rev.yaml",
        )
        out = tmp_path / "rev_out"
        capsys.readouterr()
        assert _run(["reverse", "--config", rev_cfg, "--out", str(out)]) == 0
        rows = (out / "reverse_samples.csv").read_text().splitlines()
        assert len(rows) == 1 + 300
        vals = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.all(np.isfinite(vals))
        summary = (out / "summary.txt").read_text()
        assert "provider tables" in summary
        # Reading the tables gets its own timing line, on stderr only.
        err = capsys.readouterr().err
        assert "[timing] tables: " in err and "[timing] reverse: " in err
        assert "[timing]" not in summary


class TestValidateCommand:
    def test_healthy_model_passes(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            """
model:
  name: ornstein_uhlenbeck
grid:
  horizon: 1.0
  steps: 64
sampling:
  x0: [0.0]
  n_paths: 2000
  seed: 5
""",
        )
        out = tmp_path / "out"
        rc = _run(["validate", "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        for check in (
            "coefficient-derivatives",
            "covering-condition",
            "corollary-equivalence",
            "bump-probes",
            "duality",
        ):
            assert f"PASS {check}" in captured.out
        report = (out / "validation.txt").read_text()
        assert report.strip().endswith("overall: PASS")

    def test_sign_flip_fails_and_returns_one(self, tmp_path, capsys, monkeypatch):
        # A breakdown recombined with the wrong sign (total = ito - a - b + c)
        # must fail the duality check and the command.
        real = estimator.skorokhod_batch

        def flipped(*args, **kwargs):
            out = real(*args, **kwargs)
            return {**out, "total": out["ito"] - out["a"] - out["b"] + out["c"]}

        monkeypatch.setattr(estimator, "skorokhod_batch", flipped)
        cfg = _write(
            tmp_path,
            """
model:
  name: bounded_nonlinear_drift
grid:
  horizon: 1.0
  steps: 64
sampling:
  x0: [0.5]
  n_paths: 4000
  seed: 5
""",
        )
        out = tmp_path / "out"
        rc = _run(["validate", "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FAIL duality" in captured.out
        assert "overall: FAIL" in (out / "validation.txt").read_text()

    def test_wrongly_flagged_affine_model_fails(self, tmp_path, capsys, monkeypatch):
        # state_dependent_tanh has d2sigma != 0, so with affine_coefficients
        # set its delta drops Z terms it needs. The corollary check clears
        # both flags and must see the difference.
        real = cli.make_model
        monkeypatch.setattr(
            cli, "make_model", lambda *a: replace(real(*a), affine_coefficients=True)
        )
        cfg = _write(
            tmp_path,
            """
model:
  name: state_dependent_tanh
grid:
  horizon: 1.0
  steps: 16
sampling:
  x0: [0.5]
  n_paths: 500
  seed: 20260814
""",
        )
        rc = _run(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "FAIL corollary-equivalence" in capsys.readouterr().out

    def test_no_usable_path_fails_instead_of_passing_over_none(self, tmp_path, capsys):
        # With no noise every Gram matrix is singular, so the covering and
        # corollary checks have no path to run on and must not PASS; the
        # bump probes compare only zeros, and the duality check has no valid
        # path. Each FAILs, and both reports are written.
        cfg = _write(
            tmp_path,
            """
model:
  name: ornstein_uhlenbeck
  params: {sigma0: 0.0}
grid:
  horizon: 1.0
  steps: 16
sampling:
  x0: [0.0]
  n_paths: 100
  seed: 5
""",
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            rc = _run(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL covering-condition: max |<DX_T, u_k> - identity| = nan over 0 paths" in out
        assert "FAIL corollary-equivalence" in out
        assert "FAIL bump-probes" in out and "every derivative compared is 0" in out
        assert "FAIL duality: only 0 valid paths" in out
        report = (tmp_path / "out" / "validation.txt").read_text()
        assert "FAIL duality" in report and report.endswith("overall: FAIL\n")
        assert "  overall: FAIL" in (tmp_path / "out" / "summary.txt").read_text()
        assert not (tmp_path / "out" / "duality.csv").exists()

    def test_bump_probes_reach_the_last_increment(self, tmp_path, capsys, monkeypatch):
        # fd_malliavin accepts every node in [0, steps); at two steps the
        # probes must land on both, not on node 0 alone.
        seen = set()
        real = cli.fd_malliavin

        def recorded(target, model, grid, probes, *args):
            seen.update(i for _, i, _ in probes)
            return real(target, model, grid, probes, *args)

        monkeypatch.setattr(cli, "fd_malliavin", recorded)
        text = OU_SMALL.format(n_paths=200, extra="").replace("steps: 16", "steps: 2")
        _run(["validate", "--config", _write(tmp_path, text), "--out", str(tmp_path / "out")])
        assert "bump-probes" in capsys.readouterr().out
        assert sorted(seen) == [0, 1]


class TestErrorPaths:
    def _expect_config_error(self, args, capsys, needle):
        rc = _run(args)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert needle in captured.err

    def test_missing_config_file(self, tmp_path, capsys):
        self._expect_config_error(
            ["score", "--config", str(tmp_path / "nope.yaml")], capsys, "not found"
        )

    def test_unknown_model(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "model:\n  name: banana\ngrid:\n  horizon: 1.0\n  steps: 4\n"
            "sampling:\n  x0: [0.0]\n  n_paths: 100\n  seed: 1\n",
        )
        self._expect_config_error(
            ["score", "--config", cfg, "--out", str(tmp_path / "o")], capsys, "unknown model"
        )

    def test_offgrid_eval_time(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            OU_SMALL.format(n_paths=200, extra="").replace("t_eval: [1.0]", "t_eval: [0.7]"),
        )
        self._expect_config_error(
            ["score", "--config", cfg, "--out", str(tmp_path / "o")], capsys, "not a grid node"
        )

    def test_eval_time_at_start_refused(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            OU_SMALL.format(n_paths=200, extra="").replace("t_eval: [1.0]", "t_eval: [1.0, 0.0]"),
        )
        self._expect_config_error(
            ["score", "--config", cfg, "--out", str(tmp_path / "o")],
            capsys,
            "t=0.0 is below the first grid node 0.0625",
        )

    def test_score_without_eval_times(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "model:\n  name: ornstein_uhlenbeck\ngrid:\n  horizon: 1.0\n  steps: 4\n"
            "sampling:\n  x0: [0.0]\n  n_paths: 200\n  seed: 1\n",
        )
        self._expect_config_error(
            ["score", "--config", cfg, "--out", str(tmp_path / "o")], capsys, "t_eval"
        )

    def test_mode_mismatch(self, tmp_path, capsys):
        # The assembly follows the model's diffusion; a config that still
        # asks for a mode is refused with the key named, not half-read.
        cfg = _write(
            tmp_path,
            "model:\n  name: state_dependent_tanh\ngrid:\n  horizon: 1.0\n  steps: 8\n"
            "sampling:\n  x0: [0.0]\n  n_paths: 200\n  seed: 1\n"
            "score:\n  t_eval: [1.0]\n  y_min: [-1.0]\n  y_max: [1.0]\n  y_count: [3]\n"
            "  mode: state_independent\n",
        )
        self._expect_config_error(
            ["score", "--config", cfg, "--out", str(tmp_path / "o")],
            capsys,
            "score.mode: unknown key",
        )

    def test_wrong_x0_dimension(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "model:\n  name: linear_multidim\ngrid:\n  horizon: 1.0\n  steps: 8\n"
            "sampling:\n  x0: [0.0]\n  n_paths: 200\n  seed: 1\n",
        )
        self._expect_config_error(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "o")],
            capsys,
            "sampling.x0",
        )

    def test_wrong_score_grid_dimension(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "model:\n  name: linear_multidim\ngrid:\n  horizon: 1.0\n  steps: 8\n"
            "sampling:\n  x0: [0.0, 0.0]\n  n_paths: 200\n  seed: 1\n"
            "score:\n  t_eval: [1.0]\n  y_min: [-1.0]\n  y_max: [1.0]\n  y_count: [5]\n",
        )
        self._expect_config_error(
            ["score", "--config", cfg, "--out", str(tmp_path / "o")],
            capsys,
            "score.y_min: expected 2 components for linear_multidim, got 1",
        )

    def test_tables_provider_needs_directory(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            OU_SMALL.format(n_paths=100, extra="reverse:\n  provider: tables\n"),
        )
        self._expect_config_error(
            ["reverse", "--config", cfg, "--out", str(tmp_path / "o")],
            capsys,
            "tables_dir",
        )

    def test_tables_directory_without_tables(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = _write(
            tmp_path,
            OU_SMALL.format(
                n_paths=100,
                extra=f"reverse:\n  provider: tables\n  tables_dir: {empty}\n",
            ),
        )
        self._expect_config_error(
            ["reverse", "--config", cfg, "--out", str(tmp_path / "o")],
            capsys,
            "no score_n",
        )

    def test_analytic_reverse_needs_linear_model(self, tmp_path, capsys, monkeypatch):
        cfg = _write(
            tmp_path,
            "model:\n  name: bounded_nonlinear_drift\ngrid:\n  horizon: 1.0\n  steps: 8\n"
            "sampling:\n  x0: [0.0]\n  n_paths: 100\n  seed: 1\n"
            "reverse:\n  provider: analytic\n  n_samples: 64\n",
        )
        # Refused before any reverse path is simulated.
        ran = []
        monkeypatch.setattr(cli, "reverse_time_sample", lambda *args: ran.append(args))
        self._expect_config_error(
            ["reverse", "--config", cfg, "--out", str(tmp_path / "o")],
            capsys,
            "no closed-form",
        )
        assert ran == []

    def _tables(self, tmp_path, capsys, model, x0, steps, y, first=1):
        """Score tables at nodes first..steps of a horizon-1 grid, via the score command."""
        t_eval = [k / steps for k in range(first, steps + 1)]
        cfg = _write(
            tmp_path,
            f"model:\n  name: {model}\ngrid:\n  horizon: 1.0\n  steps: {steps}\n"
            f"sampling:\n  x0: {x0}\n  n_paths: 200\n  seed: 2\n"
            f"score:\n  t_eval: {t_eval}\n  y_min: {[-y] * len(x0)}\n  y_max: {[y] * len(x0)}\n"
            f"  y_count: {[9] * len(x0)}\n  knn: 20\n",
            name="tables.yaml",
        )
        out = tmp_path / "tables"
        assert _run(["score", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    def _reverse_on(self, tmp_path, tables, model, x0, horizon):
        return _write(
            tmp_path,
            f"model:\n  name: {model}\ngrid:\n  horizon: {horizon}\n  steps: 8\n"
            f"sampling:\n  x0: {x0}\n  n_paths: 100\n  seed: 3\n"
            f"reverse:\n  provider: tables\n  n_samples: 64\n  tables_dir: {tables}\n",
            name="rev.yaml",
        )

    def test_incomplete_tables_directory_refused_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        tables = self._tables(tmp_path, capsys, "ornstein_uhlenbeck", [0.0], 8, 6.0, first=2)
        cfg = self._reverse_on(tmp_path, tables, "ornstein_uhlenbeck", [0.0], 1.0)
        monkeypatch.setattr(cli, "reverse_time_sample", lambda *a: pytest.fail("reverse ran"))
        self._expect_config_error(
            ["reverse", "--config", cfg, "--out", str(tmp_path / "o")],
            capsys,
            "no score_n*.csv tables for nodes [1] of 1..8",
        )

    def test_tables_from_another_grid_refused(self, tmp_path, capsys):
        # Node n of the tables is t = n/8; on a horizon-2 grid of 8 steps it is t = n/4.
        tables = self._tables(tmp_path, capsys, "ornstein_uhlenbeck", [0.0], 8, 6.0)
        cfg = self._reverse_on(tmp_path, tables, "ornstein_uhlenbeck", [0.0], 2.0)
        self._expect_config_error(
            ["reverse", "--config", cfg, "--out", str(tmp_path / "o")],
            capsys,
            "score table for node 1 holds t=0.125, not the node's time 0.25",
        )

    def test_tables_of_another_dimension_refused(self, tmp_path, capsys):
        tables = self._tables(tmp_path, capsys, "linear_multidim", [0.3, -0.2], 8, 5.0)
        cfg = self._reverse_on(tmp_path, tables, "ornstein_uhlenbeck", [0.0], 1.0)
        # Refused at the first reverse step, after the tables' timing line.
        assert _run(["reverse", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: score table at node 8 has dimension 2, the state 1"


# The requests of this script run after `import pathscore.cli` in a fresh
# interpreter; it prints the modules that they imported. Its configs are
# JSON, which is YAML.
REQUESTS_SCRIPT = """
import json, os, sys
import pathscore, pathscore.cli

out = sys.argv[1]


def run(i, command, model, steps, x0, section):
    cfg = os.path.join(out, f"{i}.yaml")
    with open(cfg, "w") as fh:
        json.dump({"model": {"name": model}, "grid": {"horizon": 1.0, "steps": steps},
                   "sampling": {"x0": x0, "n_paths": 256, "seed": 3}, **section}, fh)
    assert pathscore.cli.main([command, "--config", cfg, "--out", os.path.join(out, str(i))]) == 0


def score(steps, lo, hi, n):
    t_eval = [k / steps for k in range(1, steps + 1)]
    return {"score": {"t_eval": t_eval, "y_min": lo, "y_max": hi, "y_count": n, "knn": 20}}


def reverse(provider, **tables):
    return {"reverse": {"provider": provider, "n_samples": 64, **tables}}


tanh = ("state_dependent_tanh", 8, [0.3])
lin = ("linear_multidim", 4, [0.3, -0.2])
ou = ("ornstein_uhlenbeck", 4, [0.3])
before = set(sys.modules)
run(0, "score", *tanh, score(8, [-6.0], [6.0], [25]))
run(1, "reverse", *tanh, reverse("tables", tables_dir=os.path.join(out, "0")))
run(2, "score", *lin, score(4, [-5.0, -5.0], [5.0, 5.0], [9, 9]))
run(3, "reverse", *lin, reverse("analytic"))
run(4, "reverse", *lin, reverse("tables", tables_dir=os.path.join(out, "2")))
run(5, "reverse", *ou, reverse("analytic"))
print(" ".join(sorted(set(sys.modules) - before)))
"""


def _fresh_python(code, *args):
    """Run code in a new interpreter that imports pathscore from this checkout."""
    src = os.path.dirname(os.path.dirname(pathscore.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


class TestImportGraph:
    def test_cli_import_leaves_out_the_heavy_modules(self):
        # scipy.linalg's package import costs more than a small score
        # request; only the Fokker-Planck oracle needs SciPy, and no command
        # calls that. multiprocessing is needed only for workers > 1.
        loaded = _fresh_python(
            "import sys, pathscore, pathscore.cli; print(' '.join(sys.modules))"
        )
        for heavy in ("scipy", "scipy.linalg", "scipy.interpolate", "multiprocessing"):
            assert heavy not in loaded

    def test_requests_import_nothing_after_start_up(self, tmp_path):
        # k-NN score tables, a tables reverse from them, an m=2 score with
        # its analytic comparison, analytic and tables reverses at m=2, and an
        # analytic reverse at m=1.
        # A module a request imports is paid for inside the request.
        assert _fresh_python(REQUESTS_SCRIPT, str(tmp_path)) == []
