"""One benchmark round in a fresh interpreter.

    python3 perfbench/child.py SPEC.json T0

T0 is the parent's time.perf_counter() just before it started this process
(CLOCK_MONOTONIC, shared by all processes on Linux). The child imports
pathscore, loads the config and builds the model; that is set-up. Unless the
spec says ``setup_only``, it then runs each request through
pathscore.cli.main, optionally under the tracer, and writes its measurements
as JSON to the spec's ``result`` path.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    t0 = float(sys.argv[2])

    t_import = time.perf_counter()
    import pathscore
    import pathscore.cli as cli

    t_config = time.perf_counter()
    cfg = pathscore.load_config(spec["config"])
    t_build = time.perf_counter()
    pathscore.make_model(cfg.model_name, cfg.model_params)
    pathscore.TimeGrid(cfg.horizon, cfg.steps)
    ready = time.perf_counter()
    result = {
        "pathscore_file": os.path.realpath(pathscore.__file__),
        "setup_s": ready - t0,
        "import_s": t_config - t_import,
        "config_s": t_build - t_config,
        "requests": [],
    }
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        for req in spec["requests"]:
            start, cpu = time.perf_counter(), time.process_time()
            if tracer is None:
                rc = cli.main(req["argv"])
            else:
                rc = tracer.request(req["kind"], cli.main, req["argv"])
            result["requests"].append(
                {
                    "kind": req["kind"],
                    "rc": rc,
                    "wall_s": time.perf_counter() - start,
                    "cpu_s": time.process_time() - cpu,
                }
            )
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["trace"] = tracer.finish(spec["trace_out"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
