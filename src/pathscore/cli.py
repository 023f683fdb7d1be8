"""Config-driven command surface.

Commands: score, validate, reverse, simulate, duality. Each takes
--config <file>, --out <dir>, --workers <n>. Exit codes: 0 success,
1 validation failure, 2 config error. Output files are pure functions of
(config, seed): timings go to stderr, never into artifacts.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .estimator import (
    AnalyticScoreProvider,
    ScoreProviderGap,
    TableScoreProvider,
    analytic_score_linear,
    chunk_size,
    estimate_score,
    read_score_csv,
    reverse_time_sample,
    write_score_csv,
)
from .malliavin import compute_bundle_batch, skorokhod_batch
from .models import check_derivatives, make_model
from .oracles import (
    covering_inner_product,
    dt_first_variation,
    duality_report,
    fd_malliavin,
    malliavin_derivative_state,
)
from .paths import TimeGrid, sample_brownian_block, simulate_variation_batch, write_trajectories_csv

BREAKDOWN_HEADER = "path,k,ito,A,B,C,total,gamma_cond"


def _timing(label: str, t0: float) -> None:
    print(f"[timing] {label}: {time.time() - t0:.2f}s", file=sys.stderr)


def _versions() -> str:
    import scipy
    import yaml

    py = ".".join(str(v) for v in sys.version_info[:3])
    return (
        f"python {py}, numpy {np.__version__}, scipy {scipy.__version__}, "
        f"pyyaml {yaml.__version__}, pathscore {__version__}"
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
    model = make_model(cfg.model_name, cfg.model_params)
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
    linear = model.name in ("ornstein_uhlenbeck", "linear_multidim")
    with _summary_open(out_dir, "score", cfg) as summary:
        for node in nodes:
            t = grid.dt * node
            t0 = time.time()
            table, harvest = estimate_score(
                model,
                grid,
                x0,
                t,
                points,
                cfg.n_paths,
                cfg.seed,
                bandwidth=cfg.bandwidth,
                workers=workers,
                knn=cfg.knn,
            )
            _timing(f"score node {node}", t0)
            fname = f"score_n{node:04d}.csv"
            with open(os.path.join(out_dir, fname), "w") as fh:
                write_score_csv(fh, table)
            summary.write(
                f"  node {node} (t={t!r}): file {fname}, paths {cfg.n_paths}, "
                f"excluded {table.excluded} (simulation {harvest.n_sim_invalid}, "
                f"singular {harvest.n_singular}), flagged points "
                f"{int(table.flagged.sum())}, bandwidth "
                f"{'knn' if cfg.knn else np.array2string(table.bandwidth, precision=6)}\n"
            )
            if linear:
                summary.write("  analytic comparison (k=1..m):\n")
                ana = analytic_score_linear(model, t, x0, points)
                for q in range(points.shape[0]):
                    ys = ",".join(repr(float(v)) for v in points[q])
                    for k in range(model.m):
                        dev = abs(float(table.scores[q, k]) - float(ana[q, k]))
                        summary.write(
                            f"    y=({ys}) k={k + 1} est={float(table.scores[q, k])!r} "
                            f"analytic={float(ana[q, k])!r} |dev|={dev!r} "
                            f"3SE={3 * float(table.stderr[q, k])!r}\n"
                        )
                finite = np.isfinite(table.scores) & np.isfinite(table.stderr)
                beyond = np.abs(table.scores - ana)[finite] > 3 * table.stderr[finite]
                summary.write(
                    f"    beyond 3 SE: {int(beyond.sum())} of {int(finite.sum())} finite entries\n"
                )
            if cfg.dump_breakdown:
                bname = f"breakdown_n{node:04d}.csv"
                with open(os.path.join(out_dir, bname), "w") as fh:
                    fh.write(BREAKDOWN_HEADER + "\n")
                    for p in range(harvest.total.shape[0]):
                        if not harvest.valid[p]:
                            continue
                        for k in range(model.m):
                            fh.write(
                                f"{p},{k + 1},{float(harvest.ito[p, k])!r},"
                                f"{float(harvest.a[p, k])!r},{float(harvest.b[p, k])!r},"
                                f"{float(harvest.c[p, k])!r},{float(harvest.total[p, k])!r},"
                                f"{float(harvest.cond[p])!r}\n"
                            )
                summary.write(f"  breakdown dump: {bname}\n")
    return 0


def cmd_simulate(cfg: RunConfig, out_dir: str, workers: int) -> int:
    model, grid, x0 = _build(cfg)
    t0 = time.time()
    ch = chunk_size(model.m)
    n_invalid = 0
    dumped = 0
    traj_path = os.path.join(out_dir, "trajectories.csv")
    traj_fh = open(traj_path, "w") if cfg.dump_paths > 0 else None
    for lo in range(0, cfg.n_paths, ch):
        hi = min(cfg.n_paths, lo + ch)
        inc = sample_brownian_block(grid, model.d, cfg.seed, lo, hi - lo)
        batch = simulate_variation_batch(model, grid, inc, x0)
        n_invalid += int(np.count_nonzero(~batch.valid))
        if traj_fh is not None and dumped < cfg.dump_paths:
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


def cmd_duality(cfg: RunConfig, out_dir: str, workers: int) -> int:
    model, grid, x0 = _build(cfg)
    t0 = time.time()
    rep = duality_report(
        model, grid, x0, cfg.n_paths, cfg.seed, workers=workers, flip_b_term=cfg.flip_b_term
    )
    _timing("duality", t0)
    with open(os.path.join(out_dir, "duality.csv"), "w") as fh:
        fh.write("i,k,estimate,stderr\n")
        for i in range(model.m):
            for k in range(model.m):
                fh.write(
                    f"{i + 1},{k + 1},{float(rep.matrix[i, k])!r},{float(rep.stderr[i, k])!r}\n"
                )
    with _summary_open(out_dir, "duality", cfg) as summary:
        summary.write(
            f"  paths {rep.n_paths}, excluded {rep.excluded}, mode "
            f"{'state_independent' if model.state_independent_diffusion else 'general'}\n"
        )
        summary.write(
            f"  max |estimate - identity| in standard errors: {rep.max_z!r} "
            f"({'within' if rep.ok else 'OUTSIDE'} 3 SE)\n"
        )
    return 0


def cmd_reverse(cfg: RunConfig, out_dir: str, workers: int) -> int:
    model, grid, x0 = _build(cfg)
    if cfg.reverse_provider == "analytic":
        provider = AnalyticScoreProvider(model, x0)
    else:
        if not cfg.reverse_tables_dir:
            raise ConfigError("reverse.tables_dir: required when provider is 'tables'")
        tables = {}
        pat = re.compile(r"score_n(\d+)\.csv$")
        if not os.path.isdir(cfg.reverse_tables_dir):
            raise ConfigError(f"reverse.tables_dir: no such directory {cfg.reverse_tables_dir}")
        for name in sorted(os.listdir(cfg.reverse_tables_dir)):
            hit = pat.match(name)
            if hit:
                with open(os.path.join(cfg.reverse_tables_dir, name)) as fh:
                    tables[int(hit.group(1))] = read_score_csv(fh)
        if not tables:
            raise ConfigError(
                f"reverse.tables_dir: no score_n*.csv tables in {cfg.reverse_tables_dir}"
            )
        provider = TableScoreProvider(tables, grid)
    t0 = time.time()
    samples = reverse_time_sample(
        model, provider, grid, cfg.reverse_samples, cfg.seed, x0
    )
    _timing("reverse", t0)
    with open(os.path.join(out_dir, "reverse_samples.csv"), "w") as fh:
        cols = ",".join(f"x_{j + 1}" for j in range(model.m))
        fh.write(f"sample,{cols}\n")
        for p in range(samples.shape[0]):
            vals = ",".join(repr(float(v)) for v in samples[p])
            fh.write(f"{p},{vals}\n")
    mean = samples.mean(axis=0)
    std = samples.std(axis=0, ddof=1)
    with _summary_open(out_dir, "reverse", cfg) as summary:
        summary.write(f"  samples {cfg.reverse_samples}, provider {cfg.reverse_provider}\n")
        summary.write(f"  mean at t=0: {np.array2string(mean, precision=8)}\n")
        summary.write(f"  std  at t=0: {np.array2string(std, precision=8)}\n")
        summary.write(f"  x0: {np.array2string(x0, precision=8)}\n")
    return 0


def _validate_checks(cfg: RunConfig, workers: int):
    """Run the oracle suite on the configured model; yields (name, ok, detail)."""
    model, grid, x0 = _build(cfg)
    rng = np.random.default_rng(cfg.seed)

    rep = check_derivatives(model, seed=cfg.seed)
    worst_der = max(rep.max_rel_error.values())
    yield (
        "coefficient-derivatives",
        rep.ok,
        f"max relative error {worst_der:.3e} (tolerance {rep.tol})",
    )

    n_small = min(cfg.validate_paths, 256)
    inc = sample_brownian_block(grid, model.d, cfg.seed, 0, n_small)
    batch = simulate_variation_batch(model, grid, inc, x0)
    eye = np.eye(model.m)
    bundle = compute_bundle_batch(batch)
    usable = batch.valid & ~bundle.singular
    worst = 0.0
    idx = np.flatnonzero(usable)[:32]
    for p in idx:
        for i_comp in range(model.m):
            for k in range(model.m):
                val = covering_inner_product(batch, int(p), i_comp, k)
                worst = max(worst, abs(val - eye[i_comp, k]))
    yield (
        "covering-condition",
        bool(worst <= 1e-10),
        f"max |<DX_T, u_k> - identity| = {worst:.3e} over {idx.size} paths",
    )

    if model.state_independent_diffusion:
        # The same batch under a cleared flag runs the general assembly.
        general = replace(batch, model=replace(model, state_independent_diffusion=False))
        res_g = skorokhod_batch(general, bundle)
        res_c = skorokhod_batch(batch, bundle)
        dev = np.abs(res_g["total"][usable] - res_c["total"][usable])
        lim = 1e-12 * np.maximum(1.0, np.abs(res_g["total"][usable]))
        yield (
            "corollary-equivalence",
            bool(np.all(dev <= lim)),
            f"max |general - reduced| = {dev.max() if dev.size else 0.0:.3e}",
        )

    eps = 1e-4 * math.sqrt(grid.dt)
    probes = []
    for _ in range(cfg.bump_probes):
        p = int(rng.integers(0, 1 << 30))
        i = int(rng.integers(0, grid.steps - 1))
        l = int(rng.integers(0, model.d))
        w = sample_brownian_block(grid, model.d, cfg.seed + 1, p, 1)[0]
        probes.append((w, i, l))
    paths = simulate_variation_batch(model, grid, np.stack([w for w, _, _ in probes]), x0)
    meds = []
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
            scale = max(1.0, float(np.abs(ana).max()), float(np.abs(fd).max()))
            errs.append(float(np.abs(np.asarray(fd).reshape(ana.shape) - ana).max()) / scale)
        meds.append(float(np.median(errs)))
    yield (
        "bump-probes",
        bool(max(meds) <= 5e-2),
        f"median relative error state={meds[0]:.3e} firstvar={meds[1]:.3e} "
        f"({cfg.bump_probes} probes, eps={eps:.2e})",
    )

    t0 = time.time()
    dual = duality_report(
        model,
        grid,
        x0,
        cfg.validate_paths,
        cfg.seed,
        workers=workers,
        flip_b_term=cfg.flip_b_term,
    )
    _timing("validate duality", t0)
    yield (
        "duality",
        dual.ok,
        f"max deviation from identity {dual.max_z:.2f} SE "
        f"({cfg.validate_paths} paths, excluded {dual.excluded})",
    )


def cmd_validate(cfg: RunConfig, out_dir: str, workers: int) -> int:
    lines = []
    all_ok = True
    for name, ok, detail in _validate_checks(cfg, workers):
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
    "duality": cmd_duality,
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
    try:
        cfg = load_config(args.config)
        out_dir = args.out if args.out is not None else cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        return COMMANDS[args.command](cfg, out_dir, max(1, args.workers))
    except (ConfigError, ScoreProviderGap, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
