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
    end_to_end = [{"name": "wall_s", "better": "lower"}, {"name": "rate", "better": "higher"}]
    _bench_pairs().report("w", runs, end_to_end)
    lines = capsys.readouterr().err.splitlines()
    wall, rate = (next(l for l in lines if f" {name} " in l) for name in ("wall_s", "rate"))
    assert "parent 1 change 0.5 won 3/3" in wall
    assert "parent 11 change 13 won 2/3" in rate
    # sim_s and calls moved by 10% or more; tiny_s by under 1 ms, same_s by
    # 5%, and zero not at all.
    traced = [l.split()[1:] for l in lines if " traced " in l]
    assert traced == [["sim_s", "traced", "0.1", "->", "0.05"], ["calls", "traced", "10", "->", "12"]]
