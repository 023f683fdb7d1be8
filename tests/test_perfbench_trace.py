"""The benchmark's tracer still finds every name it wraps in pathscore.

perfbench/tracing.py wraps pathscore functions by name and reads a few of
their arguments and return fields. A renamed function, argument or field does
not fail a traced run: the tracer lists it as absent and leaves out the
metrics built from it. This test runs a small score and a table-backed
reverse through the tracer and requires every per-layer metric that
BENCHMARK.json declares.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from pathscore.cli import main

ROOT = Path(__file__).resolve().parents[1]
# perfbench/run.py computes these itself, outside the tracer.
FROM_RUNNER = {"cli.import_s", "cli.config_s", "cli.artifact_bytes", "trace.overhead_s"}

CONFIG = """
model:
  name: state_dependent_tanh
grid:
  horizon: 1.0
  steps: 8
sampling:
  x0: [0.5]
  n_paths: 256
  seed: 5
score:
  t_eval: [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0]
  y_min: [-4.0]
  y_max: [4.0]
  y_count: [41]
  knn: 40
reverse:
  provider: tables
  n_samples: 64
  tables_dir: {tables}
"""


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_reports_every_declared_metric(tmp_path, tracing):
    tables = tmp_path / "tables"
    cfg = tmp_path / "run.yaml"
    cfg.write_text(CONFIG.format(tables=tables))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for kind, out in (("score", tables), ("reverse", tmp_path / "reverse")):
            argv = [kind, "--config", str(cfg), "--out", str(out), "--workers", "1"]
            assert tracer.request(kind, main, argv) == 0
    finally:
        metrics = tracer.finish(str(tmp_path / "trace.jsonl"))

    assert tracer.absent == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in FROM_RUNNER | set(metrics)]
    assert missing == []
