"""Run perfbench on a parent commit and on this checkout in alternating pairs.

    python3 scripts/bench_pairs.py --parent COMMIT --out BENCH_NN.json \
        --what "..." --claim "..."

The parent side is the committed tree of COMMIT, exported with ``git
archive``; the change side is a copy of the checkout this script lives in,
as it stands. Each tree lies in its own mkdtemp(prefix="bench_pairs_")
directory, so both paths have the same length and a metric that echoes a
path, such as cli.artifact_bytes, compares like with like. For every
workload in BENCHMARK.json, in its order, the script runs PAIRS untraced
pairs of ``perfbench/run.py`` (seed SEED, SECONDS each), the parent first on
even pairs and the change first on odd ones, then one traced pair. Every run
is a separate process started in its side's tree. The result file holds the
command, the host, the claim, the per-side medians of the untraced
end-to-end metrics and every run's result line; a short table of medians
and pairs won goes to stderr, with a metric marked "unresolved" when the
parent's spread is wider than its bound and the change does not beat every
parent run.

Nothing here imports the benchmark: it only starts perfbench/run.py in the
two temporary trees, which are removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
PAIRS = 10
SEED = 11
SECONDS = 30
# report() lists a traced per-layer value that moved by this share of the
# parent's, and by this many seconds for a time.
MOVED = 0.10
MOVED_S = 1e-3


def export_commit(commit: str, tree: str, root: str = ROOT) -> str:
    """Write the committed files of ``commit`` under ``tree``; returns its full hash."""
    rev = ["git", "-C", root, "rev-parse", "--verify", f"{commit}^{{commit}}"]
    full = subprocess.run(rev, check=True, capture_output=True, text=True).stdout.strip()
    archive = tree + ".tar"
    subprocess.run(["git", "-C", root, "archive", "-o", archive, full], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return full


def copy_checkout(tree: str, root: str = ROOT) -> None:
    """Copy the checkout's tracked and not ignored files, as they stand, under ``tree``."""
    ls = ["git", "-C", root, "ls-files", "-z", "--cached", "--others", "--exclude-standard"]
    listed = subprocess.run(ls, check=True, capture_output=True, text=True).stdout
    for rel in filter(None, listed.split("\0")):
        src = os.path.join(root, rel)
        # A tracked file deleted in the checkout is still listed.
        if os.path.lexists(src):
            os.makedirs(os.path.dirname(os.path.join(tree, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(tree, rel), follow_symlinks=False)


@contextlib.contextmanager
def side_trees(commit: str, root: str = ROOT):
    """Yield the parent's full hash and each side's tree, removed on exit.

    Each tree is ``tree`` in its own mkdtemp(prefix="bench_pairs_") directory.
    """
    dirs = {s: tempfile.mkdtemp(prefix="bench_pairs_") for s in SIDES}
    try:
        trees = {s: os.path.join(d, "tree") for s, d in dirs.items()}
        parent = export_commit(commit, trees["parent"], root)
        copy_checkout(trees["change"], root)
        yield parent, trees
    finally:
        for d in dirs.values():
            shutil.rmtree(d, ignore_errors=True)


def run_once(cwd: str, workload: str, trace: int) -> dict:
    """One perfbench run; its last stdout line is the JSON result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED)]
    argv += ["--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {cwd} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def medians(runs: list[dict], metrics: list[str]) -> dict:
    out = {
        name: statistics.median(r["result"]["metrics"][name]["value"] for r in runs)
        for name in metrics
    }
    out["runs"] = len(runs)
    out["all_correct"] = all(r["result"]["correct"] for r in runs)
    out["failed"] = sum(r["result"]["failed"] for r in runs)
    return out


def report(workload: str, runs: list[dict], end_to_end: list[dict]) -> None:
    """Medians, parent IQR and pairs won per end-to-end metric, to stderr.

    A metric is "unresolved" when the parent's IQR exceeds its bound times
    the parent's median and not every change run beats every parent run.
    Then the traced pair's per-layer values, parent -> change, of the layers
    that moved by at least MOVED of the parent's value (and by at least
    MOVED_S for a time), so stage numbers come from the same run as the claim.
    """
    side = {s: [r for r in runs if r["side"] == s and r["trace"] == 0] for s in SIDES}
    for spec in end_to_end:
        name = spec["name"]
        vals = {s: [r["result"]["metrics"][name]["value"] for r in side[s]] for s in SIDES}
        sign = 1.0 if spec["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
        q = statistics.quantiles(vals["parent"], n=4) if len(vals["parent"]) > 1 else [0, 0, 0]
        median = statistics.median(vals["parent"])
        beats_all = max(sign * c for c in vals["change"]) < min(sign * p for p in vals["parent"])
        unresolved = q[2] - q[0] > spec["bound"] * abs(median) and not beats_all
        print(
            f"{workload:24s} {name:18s} parent {median:.6g} "
            f"change {statistics.median(vals['change']):.6g} "
            f"won {wins}/{len(vals['change'])} parent IQR {q[2] - q[0]:.3g}"
            + (" unresolved" if unresolved else ""),
            file=sys.stderr,
        )
    traced = {r["side"]: r["result"]["metrics"] for r in runs if r["trace"]}
    parent, change = traced.get("parent", {}), traced.get("change", {})
    for name in (name for name in parent if name in change):
        p, c = parent[name]["value"], change[name]["value"]
        moved = abs(c - p)
        floor = max(MOVED * abs(p), MOVED_S if parent[name]["unit"] == "s" else 0.0)
        if moved > 0 and moved >= floor:
            print(f"{workload:24s} {name:30s} traced {p:.6g} -> {c:.6g}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit to compare against")
    ap.add_argument("--out", required=True, help="result file to write")
    ap.add_argument("--what", required=True, help="what the change is, for the result file")
    ap.add_argument("--claim", required=True, help="the claimed gain, for the result file")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]

    import numpy
    import scipy

    host = (
        f"{os.cpu_count()} cores, numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"Python {platform.python_version()}; parent and change alternate, first side "
        f"swapped each pair; {PAIRS} untraced pairs and one traced pair per workload"
    )
    with side_trees(args.parent) as (parent, cwd):
        runs, summary = [], {}
        for w in workloads:
            mine = []
            for i in range(PAIRS + 1):
                trace = int(i == PAIRS)
                for s in SIDES if i % 2 == 0 else SIDES[::-1]:
                    result = run_once(cwd[s], w, trace)
                    mine.append(dict(side=s, workload=w, trace=trace, result=result))
                    print(f"{w} pair {i} {s} trace={trace} done", file=sys.stderr)
            runs += mine
            summary[w] = {
                s: medians([r for r in mine if r["side"] == s and not r["trace"]], metrics)
                for s in SIDES
            }
            report(w, mine, bench["end_to_end"])

    out = {
        "what": args.what,
        "parent_commit": parent,
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} "
        f"--seconds {SECONDS} --trace 0|1",
        "host": host,
        "claim": args.claim,
        "median_untraced": summary,
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
