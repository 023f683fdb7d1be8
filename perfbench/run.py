"""pathscore benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each round starts a fresh
interpreter (perfbench/child.py) that imports pathscore from ./src and
serves the workload's requests through pathscore.cli.main with one worker
and one BLAS/OpenMP thread. Rounds repeat until S seconds have passed; the
first round's outputs are checked against perfbench/reference.py and every
later round must reproduce them byte for byte.

--trace 0 reports the end-to-end metrics (medians over rounds); --trace 1
alternates untraced and traced rounds and reports the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import yaml

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")

sys.path.insert(0, BENCH)

from workloads import WORKLOADS, Checker, config_for  # noqa: E402

# Extra interpreter starts per run that only set up, so setup_s is a median
# of several fresh starts even when few rounds fit.
SETUP_STARTS = 3
# Every child must end well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0


def declared_units() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, workload, seed: int, work: str, deadline: float):
        self.w = workload
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.cfg_path = os.path.join(work, "config.yaml")
        self.score_out = os.path.join(work, "score")
        self.reverse_out = os.path.join(work, "reverse")
        with open(self.cfg_path, "w") as fh:
            yaml.safe_dump(config_for(workload, seed, tables_dir=self.score_out), fh)
        self.requests = [
            {"kind": "score", "argv": self._argv("score", self.score_out)},
        ]
        if workload.reverse_samples:
            self.requests.append({"kind": "reverse", "argv": self._argv("reverse", self.reverse_out)})
        self.rounds: list[tuple[bool, dict | None]] = []  # (traced, child result)
        self.setups: list[float] = []
        self.attempted = self.failed = 0
        self.first_hashes: dict | None = None
        self.artifact_bytes = 0

    def _argv(self, command: str, out: str) -> list[str]:
        return [command, "--config", self.cfg_path, "--out", out, "--workers", "1"]

    def child(self, tag: str, setup_only: bool, trace: bool = False, trace_out: str = "") -> dict | None:
        """Run child.py once; returns its measurements, or None if it failed."""
        spec_path = os.path.join(self.work, f"{tag}.json")
        result_path = os.path.join(self.work, f"{tag}.result.json")
        spec = {
            "config": self.cfg_path,
            "setup_only": setup_only,
            "trace": trace,
            "trace_out": trace_out,
            "requests": self.requests,
            "result": result_path,
        }
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        log_path = os.path.join(self.work, f"{tag}.log")
        with open(log_path, "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, CHILD, spec_path, repr(t0)],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                pass  # killed below; the round's missing outputs count as failed
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not os.path.exists(result_path):
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            print(f"[{tag}] child exited {proc.returncode}:\n{tail}", file=sys.stderr)
            return None
        with open(result_path) as fh:
            res = json.load(fh)
        if not res["pathscore_file"].startswith(os.path.realpath(SRC) + os.sep):
            raise SystemExit(f"pathscore was imported from {res['pathscore_file']}, not {SRC}")
        return res

    def round(self, checker: Checker, traced: bool, trace_out: str) -> None:
        """One round: a fresh child serves every request; its outputs are
        checked (first round) or compared with the first round's."""
        k = len(self.rounds)
        for d in (self.score_out, self.reverse_out):
            shutil.rmtree(d, ignore_errors=True)
        res = self.child(f"round{k}", False, traced, trace_out)
        self.rounds.append((traced, res))
        self.attempted += self.w.attempted
        if res is not None:
            self.setups.append(res["setup_s"])
            print(
                f"round {k}{' traced' if traced else ''}: set-up {res['setup_s']:.3f} s, "
                + ", ".join(
                    f"{q['kind']} {q['wall_s']:.3f} s wall {q['cpu_s']:.3f} s cpu"
                    for q in res["requests"]
                ),
                file=sys.stderr,
            )
        hashes = self.outputs()
        self.failed += len(self.w.nodes) - sum(1 for name in hashes if name.startswith("score/"))
        reverse_csv = "reverse/reverse_samples.csv"
        if self.w.reverse_samples and reverse_csv not in hashes:
            self.failed += 1
        if self.first_hashes is None:
            checker.score_tables(self.score_out)
            if reverse_csv in hashes:
                checker.reverse_samples(os.path.join(self.work, reverse_csv))
            self.first_hashes = hashes
            self.artifact_bytes = sum(
                os.path.getsize(os.path.join(d, name))
                for d in (self.score_out, self.reverse_out)
                if os.path.isdir(d)
                for name in os.listdir(d)
            )
        elif hashes != self.first_hashes:
            checker.problems.append(f"round {k}: outputs differ from round 0")

    def outputs(self) -> dict[str, str]:
        """sha256 of every CSV artifact the requests wrote."""
        out = {}
        for d in (self.score_out, self.reverse_out):
            if os.path.isdir(d):
                for name in sorted(os.listdir(d)):
                    if name.endswith(".csv"):
                        with open(os.path.join(d, name), "rb") as fh:
                            out[f"{os.path.basename(d)}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
        return out


def end_to_end(w, plain: list[dict], setups: list[float]) -> dict:
    """Medians over the untraced rounds; setup_s over every fresh start."""
    work_steps = w.requested_path_steps()
    return {
        "wall_s": statistics.median(map(request_wall, plain)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "path_steps_per_s": statistics.median(
            work_steps / next(q["wall_s"] for q in r["requests"] if q["kind"] == "score")
            for r in plain
        ),
    }


def per_layer(traced: list[dict], plain: list[dict], runner: Runner) -> dict:
    """Medians over the traced rounds, plus what the traced run costs."""
    layer = {}
    for name in {k for r in traced for k in r["trace"]}:
        layer[name] = statistics.median(r["trace"][name] for r in traced if name in r["trace"])
    everyone = traced + plain
    layer["cli.import_s"] = statistics.median(r["import_s"] for r in everyone)
    layer["cli.config_s"] = statistics.median(r["config_s"] for r in everyone)
    layer["cli.artifact_bytes"] = runner.artifact_bytes
    layer["trace.overhead_s"] = statistics.median(map(request_wall, traced)) - statistics.median(
        map(request_wall, plain)
    )
    return layer


def request_wall(r: dict) -> float:
    return sum(q["wall_s"] for q in r["requests"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pathscore", "cli.py")):
        print(f"error: no pathscore sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    units = declared_units()[1 if args.trace else 0]

    started = time.perf_counter()
    w = WORKLOADS[args.workload]
    work = os.path.join(BENCH, "work", f"{w.name}-{os.getpid()}")
    trace_out = os.path.join(BENCH, "traces", f"{w.name}.jsonl")
    os.makedirs(work)
    try:
        checker = Checker(w)
        if args.trace:
            os.makedirs(os.path.dirname(trace_out), exist_ok=True)
            with open(trace_out, "w") as fh:
                fh.write(json.dumps({"workload": w.name, "seed": args.seed}) + "\n")
        runner = Runner(w, args.seed, work, started + RUN_LIMIT_S)
        measure_until = time.perf_counter() + args.seconds
        for i in range(SETUP_STARTS):
            res = runner.child(f"setup{i}", setup_only=True)
            if res is not None:
                runner.setups.append(res["setup_s"])
        # --trace 1 alternates untraced and traced rounds, at least one of each
        min_rounds = 2 if args.trace else 1
        while len(runner.rounds) < min_rounds or time.perf_counter() < measure_until:
            runner.round(checker, bool(args.trace) and len(runner.rounds) % 2 == 1, trace_out)
            if time.perf_counter() > started + RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in checker.problems:
        print(f"check failed: {line}", file=sys.stderr)
    plain = [r for traced, r in runner.rounds if r is not None and not traced]
    traced = [r for t, r in runner.rounds if r is not None and t]
    if not plain or not runner.setups or (args.trace and not traced):
        print("error: no round completed", file=sys.stderr)
        return 1
    values = per_layer(traced, plain, runner) if args.trace else end_to_end(w, plain, runner.setups)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    for k in sorted(set(units) - set(values)):
        print(f"metric {k}: absent (see the trace file's absent list)", file=sys.stderr)
    print(
        f"{w.name} seed {args.seed}: {len(runner.rounds)} rounds, {len(runner.setups)} set-ups, "
        f"{time.perf_counter() - started:.1f} s",
        file=sys.stderr,
    )
    result = {
        "correct": not checker.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
