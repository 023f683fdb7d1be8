"""Config-driven command surface.

Commands: score, validate, reverse, simulate. Each takes
--config <file>, --out <dir>, --workers <n>. Exit codes: 0 success,
1 validation failure, 2 config error. validate also writes the duality
matrix it checks to duality.csv. Output files are pure functions of
(config, seed): timings go to stderr, never into artifacts. They are logged
at INFO on the "pathscore" logger, which main() routes to stderr; a score
run reports one harvest time and one regression time per node.
"""

from __future__ import annotations

import argparse
import locale  # argparse's gettext imports it inside main() otherwise
import logging
import math
import os
import re
import sys
import time
from dataclasses import replace

import numpy as np
import yaml

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .estimator import (
    ScoreProviderGap,
    TableScoreProvider,
    analytic_score_linear,
    chunk_size,
    estimate_score,
    read_score_csv,
    reverse_time_sample,
    write_score_csv,
)
from .malliavin import skorokhod_batch
from .models import check_derivatives, make_model
from .oracles import (
    covering_products,
    dt_first_variation,
    duality_report,
    fd_malliavin,
    malliavin_derivative_state,
)
from .paths import TimeGrid, sample_brownian_block, simulate_variation_batch, write_trajectories_csv

# Bump probes in validate, each one re-simulated path.
BUMP_PROBES = 20


log = logging.getLogger("pathscore")


def _timing(label: str, t0: float) -> None:
    log.info("%s: %.2fs", label, time.perf_counter() - t0)


def _versions() -> str:
    py = ".".join(str(v) for v in sys.version_info[:3])
    return (
        f"python {py}, numpy {np.__version__}, pyyaml {yaml.__version__}, "
        f"pathscore {__version__}"
    )


def _summary_open(out_dir: str, command: str, cfg: RunConfig):
    fh = open(os.path.join(out_dir, "summary.txt"), "w")
    fh.write(f"pathscore {command} summary\n")
    fh.write("=" * (len(command) + 19) + "\n")
    fh.write(f"versions: {_versions()}\n")
    fh.write("config:\n")
    for line in cfg.echo_lines():
        fh.write(f"  {line}\n")
    fh.write("results:\n")
    return fh


def _build(cfg: RunConfig):
    try:
        model = make_model(cfg.model_name, cfg.model_params)
    except ValueError as e:
        raise ConfigError(f"model.params: {e}") from None
    if len(cfg.x0) != model.m:
        raise ConfigError(
            f"sampling.x0: expected {model.m} components for {cfg.model_name}, got {len(cfg.x0)}"
        )
    grid = TimeGrid(cfg.horizon, cfg.steps)
    return model, grid, np.asarray(cfg.x0, dtype=float)


def _score_nodes(cfg: RunConfig, grid: TimeGrid) -> list[int]:
    if not cfg.t_eval:
        raise ConfigError("score.t_eval: required for this command")
    return [grid.node_index(t) for t in cfg.t_eval]


def cmd_score(cfg: RunConfig, out_dir: str, workers: int) -> int:
    model, grid, x0 = _build(cfg)
    nodes = _score_nodes(cfg, grid)
    points = cfg.y_points()
    if points.shape[1] != model.m:
        raise ConfigError(
            f"score.y_min: expected {model.m} components for {cfg.model_name}, got {points.shape[1]}"
        )
    table, harvest = estimate_score(
        model,
        grid,
        x0,
        [grid.dt * node for node in nodes],
        points,
        cfg.n_paths,
        cfg.seed,
        workers=workers,
        knn=cfg.knn,
    )
    # Each count runs over every (path, node) pair, so it is read once.
    n_sim_invalid, n_singular = harvest.n_sim_invalid, harvest.n_singular
    with _summary_open(out_dir, "score", cfg) as summary:
        for j, node in enumerate(nodes):
            t = grid.dt * node
            fname = f"score_n{node:04d}.csv"
            # A repeated node's file is written at its first entry only.
            if node not in nodes[:j]:
                with open(os.path.join(out_dir, fname), "w") as fh:
                    write_score_csv(fh, table, j)
            summary.write(
                f"  node {node} (t={t!r}): file {fname}, paths {cfg.n_paths}, "
                f"excluded {table.excluded[j]} (simulation {n_sim_invalid[j]}, "
                f"singular {n_singular[j]}), flagged points "
                f"{int(table.flagged[j].sum())}, bandwidth "
                f"{'knn' if cfg.knn else np.array2string(table.bandwidth[j], precision=6)}\n"
            )
            scores, stderr = table.scores[j], table.stderr[j]
            if model.linear:
                summary.write("  analytic comparison (k=1..m):\n")
                ana = analytic_score_linear(model, t, x0, points)
                for q in range(points.shape[0]):
                    ys = ",".join(repr(float(v)) for v in points[q])
                    for k in range(model.m):
                        dev = abs(float(scores[q, k]) - float(ana[q, k]))
                        summary.write(
                            f"    y=({ys}) k={k + 1} est={float(scores[q, k])!r} "
                            f"analytic={float(ana[q, k])!r} |dev|={dev!r} "
                            f"3SE={3 * float(stderr[q, k])!r}\n"
                        )
                finite = np.isfinite(scores) & np.isfinite(stderr)
                beyond = np.abs(scores - ana)[finite] > 3 * stderr[finite]
                summary.write(
                    f"    beyond 3 SE: {int(beyond.sum())} of {int(finite.sum())} finite entries\n"
                )
    return 0


def cmd_simulate(cfg: RunConfig, out_dir: str, workers: int) -> int:
    model, grid, x0 = _build(cfg)
    t0 = time.perf_counter()
    ch = chunk_size(model.m)
    n_invalid = 0
    dumped = 0
    traj_path = os.path.join(out_dir, "trajectories.csv")
    traj_fh = open(traj_path, "w") if cfg.dump_paths > 0 else None
    for lo in range(0, cfg.n_paths, ch):
        hi = min(cfg.n_paths, lo + ch)
        inc = sample_brownian_block(grid, model.d, cfg.seed, lo, hi - lo)
        dump = traj_fh is not None and dumped < cfg.dump_paths
        # Only a chunk with dumped paths needs every node kept.
        batch = simulate_variation_batch(model, grid, inc, x0, nodes=None if dump else [grid.steps])
        n_invalid += int(np.count_nonzero(~batch.valid))
        if dump:
            n_dump = min(cfg.dump_paths - dumped, hi - lo)
            ids = list(range(lo, lo + n_dump))
            write_trajectories_csv(traj_fh, batch.take(slice(0, n_dump)), ids, header=dumped == 0)
            dumped += n_dump
    if traj_fh is not None:
        traj_fh.close()
    _timing("simulate", t0)
    with _summary_open(out_dir, "simulate", cfg) as summary:
        summary.write(
            f"  paths {cfg.n_paths}, simulation blow-ups {n_invalid}, "
            f"grid steps {cfg.steps}, dt {grid.dt!r}\n"
        )
        if cfg.dump_paths > 0:
            summary.write(f"  trajectory dump: trajectories.csv ({dumped} paths)\n")
    return 0


def cmd_reverse(cfg: RunConfig, out_dir: str, workers: int) -> int:
    model, grid, x0 = _build(cfg)
    if cfg.reverse_provider == "analytic":
        # Fails fast, before simulating, on a model with no closed form.
        analytic_score_linear(model, grid.horizon, x0, x0)

        def score(t, x):
            return analytic_score_linear(model, t, x0, x)

    else:
        tables = {}
        pat = re.compile(r"score_n(\d+)\.csv$")
        if not os.path.isdir(cfg.reverse_tables_dir):
            raise ConfigError(f"reverse.tables_dir: no such directory {cfg.reverse_tables_dir}")
        t0 = time.perf_counter()
        for name in sorted(os.listdir(cfg.reverse_tables_dir)):
            hit = pat.match(name)
            if hit:
                with open(os.path.join(cfg.reverse_tables_dir, name)) as fh:
                    tables[int(hit.group(1))] = read_score_csv(fh)
        # Refused before simulating: the reverse steps read nodes steps..1.
        missing = [n for n in range(1, grid.steps + 1) if n not in tables]
        if missing:
            raise ConfigError(
                f"reverse.tables_dir: no score_n*.csv tables for nodes {missing} "
                f"of 1..{grid.steps} in {cfg.reverse_tables_dir}"
            )
        score = TableScoreProvider(tables, grid).score
        _timing("tables", t0)
    t0 = time.perf_counter()
    samples = reverse_time_sample(model, score, grid, cfg.reverse_samples, cfg.seed, x0)
    _timing("reverse", t0)
    with open(os.path.join(out_dir, "reverse_samples.csv"), "w") as fh:
        cols = ",".join(f"x_{j + 1}" for j in range(model.m))
        fh.write(f"sample,{cols}\n")
        for p, row in enumerate(samples.tolist()):
            fh.write(f"{p}," + ",".join(map(repr, row)) + "\n")
    mean = samples.mean(axis=0)
    std = samples.std(axis=0, ddof=1)
    with _summary_open(out_dir, "reverse", cfg) as summary:
        summary.write(f"  samples {cfg.reverse_samples}, provider {cfg.reverse_provider}\n")
        summary.write(f"  mean at t=0: {np.array2string(mean, precision=8)}\n")
        summary.write(f"  std  at t=0: {np.array2string(std, precision=8)}\n")
        summary.write(f"  x0: {np.array2string(x0, precision=8)}\n")
    return 0


def _validate_checks(cfg: RunConfig, out_dir: str, workers: int):
    """Run the oracle suite on the configured model; yields (name, ok, detail).

    The duality matrix and its SEs go to duality.csv, unless too few paths
    are valid for an estimate.
    """
    model, grid, x0 = _build(cfg)
    rng = np.random.default_rng(cfg.seed)

    rep = check_derivatives(model, seed=cfg.seed)
    worst_der = max(rep.max_rel_error.values())
    yield (
        "coefficient-derivatives",
        rep.ok,
        f"max relative error {worst_der:.3e} (tolerance {rep.tol})",
    )

    inc = sample_brownian_block(grid, model.d, cfg.seed, 0, min(cfg.n_paths, 256))
    batch = simulate_variation_batch(model, grid, inc, x0)
    products = covering_products(batch)
    # Exactly the valid, non-singular paths have finite products.
    usable = np.all(np.isfinite(products), axis=(1, 2))
    dev = np.abs(products[usable] - np.eye(model.m))
    # A check over no path reads nan and fails.
    worst = float(dev.max()) if dev.size else math.nan
    yield (
        "covering-condition",
        bool(worst <= 1e-10),
        f"max |<DX_T, u_k> - identity| = {worst:.3e} over {int(usable.sum())} paths",
    )

    if model.linear:
        # The same noise simulated again with the flag cleared runs the
        # general assembly.
        general = simulate_variation_batch(replace(model, linear=False), grid, inc, x0)
        res_g = skorokhod_batch(general)["total"][usable, 0]
        res_c = skorokhod_batch(batch)["total"][usable, 0]
        dev = np.abs(res_g - res_c)
        lim = 1e-12 * np.maximum(1.0, np.abs(res_g))
        yield (
            "corollary-equivalence",
            bool(dev.size and np.all(dev <= lim)),
            f"max |general - reduced| = {dev.max() if dev.size else math.nan:.3e}",
        )

    eps = 1e-4 * math.sqrt(grid.dt)
    probes = []
    for _ in range(BUMP_PROBES):
        p = int(rng.integers(0, 1 << 30))
        i = int(rng.integers(0, grid.steps))
        l = int(rng.integers(0, model.d))
        w = sample_brownian_block(grid, model.d, cfg.seed + 1, p, 1)[0]
        probes.append((w, i, l))
    paths = simulate_variation_batch(model, grid, np.stack([w for w, _, _ in probes]), x0)
    meds, nonzero = [], False
    for target in ("state", "firstvar"):
        fd_vals = fd_malliavin(target, model, grid, probes, eps, x0)
        errs = []
        for j, ((_, i, l), fd) in enumerate(zip(probes, fd_vals)):
            if fd is None:
                continue
            if target == "state":
                ana = malliavin_derivative_state(paths, j, i)[:, l]
            else:
                ana = dt_first_variation(paths, j, i)[l]
            size = max(float(np.abs(ana).max()), float(np.abs(fd).max()))
            nonzero |= size != 0.0
            err = np.abs(np.asarray(fd).reshape(ana.shape) - ana).max()
            errs.append(float(err) / max(1.0, size))
        meds.append(float(np.median(errs)))
    # Zeros agree at any tolerance and test nothing. A linear model's first
    # variation has a zero derivative, but without noise every one is zero.
    empty = "" if nonzero else "; every derivative compared is 0"
    yield (
        "bump-probes",
        bool(max(meds) <= 5e-2) and nonzero,
        f"median relative error state={meds[0]:.3e} firstvar={meds[1]:.3e} "
        f"({BUMP_PROBES} probes, eps={eps:.2e}){empty}",
    )

    t0 = time.perf_counter()
    try:
        dual = duality_report(model, grid, x0, cfg.n_paths, cfg.seed, workers=workers)
    except ValueError as e:  # too few valid paths for an estimate
        yield ("duality", False, f"{e} ({cfg.n_paths} paths)")
        return
    _timing("validate duality", t0)
    with open(os.path.join(out_dir, "duality.csv"), "w") as fh:
        fh.write("i,k,estimate,stderr\n")
        for (i, k), est in np.ndenumerate(dual.matrix):
            fh.write(f"{i + 1},{k + 1},{float(est)!r},{float(dual.stderr[i, k])!r}\n")
    yield (
        "duality",
        dual.ok,
        f"max deviation from identity {dual.max_z:.2f} SE "
        f"({cfg.n_paths} paths, excluded {dual.excluded})",
    )


def cmd_validate(cfg: RunConfig, out_dir: str, workers: int) -> int:
    lines = []
    all_ok = True
    for name, ok, detail in _validate_checks(cfg, out_dir, workers):
        status = "PASS" if ok else "FAIL"
        line = f"{status} {name}: {detail}"
        print(line)
        lines.append(line)
        all_ok = all_ok and ok
    with open(os.path.join(out_dir, "validation.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write(f"overall: {'PASS' if all_ok else 'FAIL'}\n")
    with _summary_open(out_dir, "validate", cfg) as summary:
        for line in lines:
            summary.write(f"  {line}\n")
        summary.write(f"  overall: {'PASS' if all_ok else 'FAIL'}\n")
    return 0 if all_ok else 1


COMMANDS = {
    "score": cmd_score,
    "validate": cmd_validate,
    "reverse": cmd_reverse,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pathscore",
        description="Monte Carlo score estimation for nonlinear diffusions "
        "via pathwise variation processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--workers", type=int, default=1, help="parallel path workers")
    args = parser.parse_args(argv)
    timings = logging.StreamHandler(sys.stderr)
    timings.setFormatter(logging.Formatter("[timing] %(message)s"))
    log.addHandler(timings)
    log.setLevel(logging.INFO)
    try:
        cfg = load_config(args.config)
        out_dir = args.out if args.out is not None else cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        return COMMANDS[args.command](cfg, out_dir, max(1, args.workers))
    except (ConfigError, ScoreProviderGap, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(timings)


if __name__ == "__main__":
    sys.exit(main())
