"""The command-line scripts under scripts/ run end to end on small inputs.

Each script runs in a new interpreter that imports pathscore from this
checkout, as a shell user would run it.
"""

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
