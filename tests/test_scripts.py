"""The command-line scripts under scripts/ run end to end on small inputs.

Each script runs in a new interpreter that imports pathscore from this
checkout, as a shell user would run it.
"""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pathscore

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name, *args):
    src = os.path.dirname(os.path.dirname(pathscore.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_validate_builtins_passes_every_model():
    out = _script("validate_builtins.py", "--paths", "500", "--steps", "16")
    assert out[-1] == "4/4 models pass"


def test_compare_oracles_writes_a_finite_table():
    out = _script("compare_oracles.py", "--paths", "2000", "--steps", "16")
    assert out[0] == "y,score_pathwise,stderr,score_pde,score_kde,kde_stderr"
    rows = [[float(v) for v in line.split(",")] for line in out[1:]]
    assert len(rows) == 25
    assert all(len(r) == 6 and all(math.isfinite(v) for v in r) for r in rows)


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side, trace, **metrics):
    values = {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}
    return {"side": side, "workload": "w", "trace": trace, "result": {"metrics": values}}


def test_bench_pairs_report_counts_wins_and_lists_moved_layers(capsys):
    runs = []
    # Lower wall_s wins every pair; higher rate wins two of three.
    for p, c in [(10.0, 14.0), (11.0, 13.0), (12.0, 11.0)]:
        runs.append(_run("parent", 0, wall_s=(1.0, "s"), rate=(p, "path-steps/s")))
        runs.append(_run("change", 0, wall_s=(0.5, "s"), rate=(c, "path-steps/s")))
    parent = dict(sim_s=(0.1, "s"), tiny_s=(0.001, "s"), calls=(10.0, "count"), same_s=(0.2, "s"))
    change = dict(sim_s=(0.05, "s"), tiny_s=(0.0001, "s"), calls=(12.0, "count"), same_s=(0.21, "s"))
    parent["zero"] = change["zero"] = (0.0, "count")
    runs += [_run("parent", 1, **parent), _run("change", 1, **change)]
    end_to_end = [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "rate", "better": "higher", "bound": 0.25},
    ]
    _bench_pairs().report("w", runs, end_to_end)
    lines = capsys.readouterr().err.splitlines()
    wall, rate = (next(l for l in lines if f" {name} " in l) for name in ("wall_s", "rate"))
    assert "parent 1 change 0.5 won 3/3" in wall
    assert "parent 11 change 13 won 2/3" in rate
    # sim_s and calls moved by 10% or more; tiny_s by under 1 ms, same_s by
    # 5%, and zero not at all.
    traced = [l.split()[1:] for l in lines if " traced " in l]
    assert traced == [["sim_s", "traced", "0.1", "->", "0.05"], ["calls", "traced", "10", "->", "12"]]


def _e2e_lines(parent, change, better):
    runs = [_run("parent", 0, m=(v, "s")) for v in parent]
    runs += [_run("change", 0, m=(v, "s")) for v in change]
    return [{"name": "m", "better": better, "bound": 0.25}], runs


def test_bench_pairs_report_marks_unresolved_metrics(capsys):
    # Parent runs 8, 10, 12, 14 (median 11, IQR 5 > 0.25 * 11): unresolved,
    # unless every change run beats every parent run.
    parent = [8.0, 10.0, 12.0, 14.0]
    cases = [
        (parent, [7.0, 7.5, 9.0, 7.0], "lower", True),
        (parent, [7.0, 7.5, 6.0, 7.0], "lower", False),
        (parent, [15.0, 16.0, 15.0, 20.0], "higher", False),
        (parent, [15.0, 16.0, 13.0, 20.0], "higher", True),
        # IQR 0.5 within 0.25 * 11.1: resolved whatever the change reads.
        ([10.8, 11.0, 11.2, 11.4], [10.0, 12.0, 10.5, 11.5], "lower", False),
    ]
    for p, c, better, want in cases:
        end_to_end, runs = _e2e_lines(p, c, better)
        _bench_pairs().report("w", runs, end_to_end)
        (line,) = capsys.readouterr().err.splitlines()
        assert line.endswith(" unresolved") == want, (p, c, better)


def test_bench_pairs_runs_each_side_from_an_equal_length_copy(tmp_path):
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    (tmp_path / "a.txt").write_text("committed\n")
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "a.txt"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], check=True)
    (tmp_path / "a.txt").write_text("edited\n")
    (tmp_path / "new.txt").write_text("untracked\n")
    with _bench_pairs().side_trees("HEAD", root=str(tmp_path)) as (full, trees):
        assert len(full) == 40
        assert len(trees["parent"]) == len(trees["change"])
        assert os.path.dirname(trees["parent"]) != os.path.dirname(trees["change"])
        assert os.path.basename(os.path.dirname(trees["change"])).startswith("bench_pairs_")
        parent, change = Path(trees["parent"]), Path(trees["change"])
        assert sorted(p.name for p in parent.iterdir()) == ["a.txt"]
        assert (parent / "a.txt").read_text() == "committed\n"
        assert (change / "a.txt").read_text() == "edited\n"
        assert (change / "new.txt").read_text() == "untracked\n"
        assert not (change / ".git").exists()
    assert not parent.exists() and not change.exists()
