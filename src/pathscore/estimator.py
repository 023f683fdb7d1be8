"""Score estimation from simulated paths, and the reverse-time sampler.

The score at (t, y) is estimated as

  s_k(y) = -E[ delta_k | X_t = y ]

where delta_k is the anticipating integral of the k-th covering field on the
subgrid [0, t]. The conditional expectation uses Nadaraya-Watson weights with
a Gaussian product kernel (bandwidth per dimension, Silverman by default) or
an optional k-nearest-neighbor window. Standard errors come from the delta
method for the weighted ratio.

Path blocks are processed in fixed-size chunks whose size depends only on the
model dimension, and every path draws its noise from a counter-based stream
keyed on (seed, path_index); outputs are therefore byte-identical for any
worker count and chunk execution order.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, fields

import numpy as np

from .malliavin import compute_bundle_batch, skorokhod_batch
from .models import SdeModel, divergence_sigma_sigma_T
from .paths import TimeGrid, euler_state_batch, sample_brownian_block, simulate_variation_batch

# Noise-stream offsets: the reverse sampler must not reuse the forward
# score-estimation paths at the same seed.
REVERSE_TERMINAL_OFFSET = 2**48
REVERSE_BACKWARD_OFFSET = 2**49


class ScoreProviderGap(RuntimeError):
    """A score lookup fell outside the available tables."""


def chunk_size(m: int) -> int:
    """Fixed path-block size; a function of the model dimension only."""
    return 4096 if m == 1 else 2048


@dataclass
class PathHarvest:
    """Raw per-path quantities of one chunk, or of all chunks merged."""

    X_t: np.ndarray  # (n, m) state at the evaluation node
    ito: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    total: np.ndarray  # (n, m) anticipating integrals per direction
    valid: np.ndarray  # (n,)
    cond: np.ndarray  # (n,)
    n_sim_invalid: int
    n_singular: int

    @property
    def n_excluded(self) -> int:
        return int(np.sum(~self.valid))


def _harvest_chunk(model, grid, x0, seed, lo, hi) -> PathHarvest:
    inc = sample_brownian_block(grid, model.d, seed, lo, hi - lo)
    batch = simulate_variation_batch(model, grid, inc, x0)
    bundle = compute_bundle_batch(batch)
    out = skorokhod_batch(batch, bundle)
    return PathHarvest(
        X_t=batch.X[:, -1],
        **out,
        valid=batch.valid & ~bundle.singular,
        cond=bundle.cond,
        n_sim_invalid=int(np.sum(~batch.valid)),
        n_singular=int(np.sum(batch.valid & bundle.singular)),
    )


# (model, grid, x0, seed) of the harvest that forked the worker pool.
_FORK_STATE: tuple | None = None


def _run_fork_chunk(bounds: tuple[int, int]):
    return _harvest_chunk(*_FORK_STATE, *bounds)


def harvest_paths(
    model: SdeModel,
    grid: TimeGrid,
    x0,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> PathHarvest:
    """Simulate n_paths and collect terminal states plus integral breakdowns.

    Chunk boundaries depend only on (n_paths, model dimension); with
    workers > 1 the same chunks run in forked processes and are merged in
    index order, so the result is bit-identical to the serial run.
    """
    ch = chunk_size(model.m)
    chunks = [(lo, min(n_paths, lo + ch)) for lo in range(0, n_paths, ch)]
    state = (model, grid, np.asarray(x0, dtype=float), seed)
    global _FORK_STATE
    if workers > 1 and len(chunks) > 1:
        _FORK_STATE = state
        try:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=min(workers, len(chunks))) as pool:
                results = pool.map(_run_fork_chunk, chunks)
        finally:
            _FORK_STATE = None
    else:
        results = [_harvest_chunk(*state, lo, hi) for lo, hi in chunks]

    # Per-path arrays concatenate in chunk order; counts add up.
    merged = {}
    for f in fields(PathHarvest):
        vals = [getattr(r, f.name) for r in results]
        merged[f.name] = np.concatenate(vals) if isinstance(vals[0], np.ndarray) else sum(vals)
    return PathHarvest(**merged)


def silverman_bandwidth(X: np.ndarray) -> np.ndarray:
    """Per-dimension rule-of-thumb bandwidth for a Gaussian product kernel."""
    n, m = X.shape
    std = X.std(axis=0, ddof=1)
    if not np.all(std > 0):
        raise ValueError("degenerate sample (zero variance); cannot pick a bandwidth")
    return (4.0 / (m + 2.0)) ** (1.0 / (m + 4.0)) * n ** (-1.0 / (m + 4.0)) * std


MIN_EFFECTIVE_SAMPLES = 5.0


@dataclass
class ScoreTable:
    """Kernel-regression score estimates on a set of evaluation points.

    scores[q, k] estimates the k-th partial of log density at points[q];
    rows with effective sample size below MIN_EFFECTIVE_SAMPLES are flagged
    and left nan rather than extrapolated.
    """

    t: float
    node: int
    points: np.ndarray  # (Q, m)
    scores: np.ndarray  # (Q, m)
    stderr: np.ndarray  # (Q, m)
    n_eff: np.ndarray  # (Q,)
    flagged: np.ndarray  # (Q,) bool
    bandwidth: np.ndarray | None
    knn: int | None
    n_paths: int
    excluded: int


def _nw_tables(X, delta, points, h):
    Q, m = points.shape[0], X.shape[1]
    scores = np.full((Q, m), np.nan)
    stderr = np.full((Q, m), np.nan)
    n_eff = np.zeros(Q)
    for q in range(Q):
        z = (X - points[q]) / h
        w = np.exp(-0.5 * np.sum(z * z, axis=1))
        den = w.sum()
        wsq = float(w @ w)
        if den > 0 and wsq > 0:
            n_eff[q] = den * den / wsq
        if n_eff[q] < MIN_EFFECTIVE_SAMPLES:
            continue
        ratio = (w[:, None] * delta).sum(axis=0) / den
        resid = w[:, None] * (delta - ratio)
        scores[q] = -ratio
        stderr[q] = np.sqrt(np.sum(resid * resid, axis=0)) / den
    return scores, stderr, n_eff


def _knn_tables(X, delta, points, k):
    Q, m = points.shape[0], X.shape[1]
    k = min(k, X.shape[0])
    scores = np.full((Q, m), np.nan)
    stderr = np.full((Q, m), np.nan)
    n_eff = np.full(Q, float(k))
    for q in range(Q):
        d2 = np.sum((X - points[q]) ** 2, axis=1)
        idx = np.argpartition(d2, k - 1)[:k]
        sel = delta[idx]
        scores[q] = -sel.mean(axis=0)
        stderr[q] = sel.std(axis=0, ddof=1) / math.sqrt(k)
    return scores, stderr, n_eff


def estimate_score(
    model: SdeModel,
    grid: TimeGrid,
    x0,
    t: float,
    points,
    n_paths: int,
    seed: int,
    bandwidth="auto",
    workers: int = 1,
    knn: int | None = None,
) -> tuple[ScoreTable, PathHarvest]:
    """Monte Carlo score estimate at time t on the given evaluation points.

    t must lie on the grid (strictly after the first node); the simulation
    runs on the truncated subgrid [0, t]. Returns the ScoreTable together
    with the raw per-path harvest it was regressed from.
    """
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    node = grid.node_index(t)
    if node < 1:
        raise ValueError(f"t={t} is below the first grid node {grid.dt}")
    subgrid = grid.truncated(node)

    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1) if model.m == 1 else points.reshape(1, -1)
    if points.ndim != 2 or points.shape[1] != model.m:
        raise ValueError(f"evaluation points must have shape (Q, {model.m})")

    harvest = harvest_paths(model, subgrid, x0, n_paths, seed, workers=workers)
    X = harvest.X_t[harvest.valid]
    delta = harvest.total[harvest.valid]
    if X.shape[0] < 100:
        raise ValueError(f"only {X.shape[0]} valid paths survived; estimate unreliable")

    h = None
    if knn is None:
        if isinstance(bandwidth, str):
            if bandwidth != "auto":
                raise ValueError(f"bandwidth must be a positive number or 'auto', got {bandwidth!r}")
            h = silverman_bandwidth(X)
        else:
            h = np.broadcast_to(np.asarray(bandwidth, dtype=float), (model.m,)).copy()
            if not np.all(h > 0):
                raise ValueError("bandwidth must be positive")
        scores, stderr, n_eff = _nw_tables(X, delta, points, h)
    else:
        if knn < MIN_EFFECTIVE_SAMPLES:
            raise ValueError(f"knn must be at least {int(MIN_EFFECTIVE_SAMPLES)}")
        scores, stderr, n_eff = _knn_tables(X, delta, points, int(knn))

    table = ScoreTable(
        t=node * grid.dt,
        node=node,
        points=points,
        scores=scores,
        stderr=stderr,
        n_eff=n_eff,
        flagged=n_eff < MIN_EFFECTIVE_SAMPLES,
        bandwidth=h,
        knn=knn,
        n_paths=n_paths,
        excluded=harvest.n_excluded,
    )
    return table, harvest


def score_table_header(m: int) -> str:
    ys = ",".join(f"y_{j + 1}" for j in range(m))
    return f"t,{ys},k,score,stderr,n_eff,excluded"


def write_score_csv(fh, table: ScoreTable) -> None:
    """Long-format dump: one row per (evaluation point, direction)."""
    m = table.points.shape[1]
    fh.write(score_table_header(m) + "\n")
    for q in range(table.points.shape[0]):
        ys = ",".join(repr(float(v)) for v in table.points[q])
        for k in range(m):
            fh.write(
                f"{table.t!r},{ys},{k + 1},{float(table.scores[q, k])!r},"
                f"{float(table.stderr[q, k])!r},{float(table.n_eff[q])!r},{table.excluded}\n"
            )


def read_score_csv(fh) -> ScoreTable:
    """Inverse of write_score_csv (used by the table-backed score provider)."""
    header = fh.readline().strip().split(",")
    try:
        m = header.index("k") - 1
    except ValueError as e:
        raise ScoreProviderGap(f"malformed score table header: {header}") from e
    rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise ScoreProviderGap("empty score table")
    t = float(rows[0][0])
    pts: dict[tuple, int] = {}
    data: dict[tuple, dict[int, tuple]] = {}
    for r in rows:
        y = tuple(float(v) for v in r[1 : 1 + m])
        k = int(r[1 + m])
        pts.setdefault(y, len(pts))
        data.setdefault(y, {})[k] = (float(r[2 + m]), float(r[3 + m]), float(r[4 + m]))
    Q = len(pts)
    points = np.array([list(y) for y in pts])
    scores = np.full((Q, m), np.nan)
    stderr = np.full((Q, m), np.nan)
    n_eff = np.zeros(Q)
    for y, q in pts.items():
        for k, (s, se, ne) in data[y].items():
            scores[q, k - 1] = s
            stderr[q, k - 1] = se
            n_eff[q] = ne
    excluded = int(rows[0][-1])
    return ScoreTable(
        t=t,
        node=-1,
        points=points,
        scores=scores,
        stderr=stderr,
        n_eff=n_eff,
        flagged=n_eff < MIN_EFFECTIVE_SAMPLES,
        bandwidth=None,
        knn=None,
        n_paths=0,
        excluded=excluded,
    )


def analytic_score_linear(model: SdeModel, t: float, x0, y) -> np.ndarray:
    """Closed-form Gaussian score for the linear builtins.

    The marginal law from a point start is Gaussian with mean exp(A t) x0 and
    covariance solving the Lyapunov integral; the score is -cov^{-1}(y - mean).
    Refuses t <= 0 (degenerate point mass) and nonlinear models.
    """
    if t <= 0.0:
        raise ValueError(f"analytic score undefined at t={t} (needs t > 0)")
    y = np.asarray(y, dtype=float)
    x0 = np.asarray(x0, dtype=float).reshape(model.m)

    if model.name == "ornstein_uhlenbeck":
        theta, sigma0 = model.params["theta"], model.params["sigma0"]
        mean = x0 * math.exp(-theta * t)
        if theta == 0.0:
            var = sigma0**2 * t
        else:
            var = sigma0**2 * (1.0 - math.exp(-2.0 * theta * t)) / (2.0 * theta)
        return -(y - mean) / var
    if model.name == "linear_multidim":
        from scipy.linalg import expm

        A = np.array(model.params["A"])
        Sig = np.array(model.params["Sigma"])
        Q = Sig @ Sig.T
        m = model.m
        blk = np.zeros((2 * m, 2 * m))
        blk[:m, :m] = -A
        blk[:m, m:] = Q
        blk[m:, m:] = A.T
        E = expm(blk * t)
        cov = E[m:, m:].T @ E[:m, m:]
        mean = expm(A * t) @ x0
        return -np.einsum("ij,...j->...i", np.linalg.inv(cov), y - mean)
    raise ValueError(f"no closed-form score for model '{model.name}'")


class AnalyticScoreProvider:
    """Score lookups backed by the closed-form Gaussian marginals."""

    def __init__(self, model: SdeModel, x0):
        self.model = model
        self.x0 = np.asarray(x0, dtype=float)
        # fail fast on unsupported models
        analytic_score_linear(model, 1.0, self.x0, np.zeros(model.m))

    def score(self, t: float, x: np.ndarray) -> np.ndarray:
        return analytic_score_linear(self.model, t, self.x0, x)


class TableScoreProvider:
    """Score lookups interpolated from per-node ScoreTables.

    Tables must cover every node the reverse loop visits; a missing node or
    a query outside a table's point hull aborts with the node named.
    """

    def __init__(self, tables: dict[int, ScoreTable], grid: TimeGrid):
        self.grid = grid
        self.tables = dict(tables)
        self._interp: dict[int, object] = {}

    def _build(self, node: int):
        table = self.tables[node]
        m = table.points.shape[1]
        if m == 1:
            x = table.points[:, 0]
            order = np.argsort(x)
            self._interp[node] = ("1d", x[order], table.scores[order])
        else:
            from scipy.interpolate import RegularGridInterpolator

            axes = [np.unique(table.points[:, j]) for j in range(m)]
            shape = tuple(len(a) for a in axes)
            if int(np.prod(shape)) != table.points.shape[0]:
                raise ScoreProviderGap(
                    f"score table at node {node} is not a full regular grid"
                )
            order = np.lexsort(tuple(table.points[:, j] for j in reversed(range(m))))
            grids = table.scores[order].reshape(shape + (m,))
            self._interp[node] = (
                "nd",
                RegularGridInterpolator(axes, grids, bounds_error=True),
            )

    def score(self, t: float, x: np.ndarray) -> np.ndarray:
        node = self.grid.node_index(t)
        if node not in self.tables:
            raise ScoreProviderGap(f"no score table for node {node} (t={t})")
        if node not in self._interp:
            self._build(node)
        kind, *rest = self._interp[node]
        if kind == "1d":
            xs, scores = rest
            q = x[:, 0]
            if np.any(q < xs[0]) or np.any(q > xs[-1]):
                raise ScoreProviderGap(
                    f"reverse state left the score table range [{xs[0]}, {xs[-1]}] at node {node}"
                )
            out = np.empty((x.shape[0], 1))
            out[:, 0] = np.interp(q, xs, scores[:, 0])
        else:
            (interp,) = rest
            try:
                out = interp(x)
            except ValueError as e:
                raise ScoreProviderGap(f"reverse state left the score table hull at node {node}") from e
        if not np.all(np.isfinite(out)):
            raise ScoreProviderGap(f"score table at node {node} has gaps (flagged points) in the queried region")
        return out


def reverse_time_sample(
    model: SdeModel,
    provider,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    x0,
) -> np.ndarray:
    """Integrate the score-driven reverse-time dynamics from T down to 0.

    Terminal states come from a fresh forward Euler run (noise streams offset
    from the score-estimation paths). Stepping toward zero:

      X_{t-dt} = X_t + [b - div(sigma sigma^T) + sigma . s(t, X_t)] dt
                 + sigma sqrt(dt) xi

    Returns the samples at t = 0, shape (n_samples, m).
    """
    ch = chunk_size(model.m)
    dt = grid.dt
    out = np.empty((n_samples, model.m))
    for lo in range(0, n_samples, ch):
        hi = min(n_samples, lo + ch)
        fwd = sample_brownian_block(grid, model.d, seed, REVERSE_TERMINAL_OFFSET + lo, hi - lo)
        x = euler_state_batch(model, grid, fwd, x0)
        bwd = sample_brownian_block(grid, model.d, seed, REVERSE_BACKWARD_OFFSET + lo, hi - lo)
        for k in range(grid.steps, 0, -1):
            t = k * dt
            s = provider.score(t, x)
            drift = model.b(t, x) - divergence_sigma_sigma_T(model, t, x) + np.einsum(
                "bil,bl->bi", model.sigma(t, x), s
            )
            x = x + drift * dt + np.einsum("bil,bl->bi", model.sigma(t, x), bwd[:, k - 1])
        out[lo:hi] = x
    return out
