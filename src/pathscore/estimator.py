"""Score estimation from simulated paths, and the reverse-time sampler.

The score at (t, y) is estimated as

  s_k(y) = -E[ delta_k | X_t = y ]

where delta_k is the anticipating integral of the k-th covering field with t
as the terminal time. One simulation to the latest requested time yields
delta at every requested time: the Euler loop folds each step into running
sums, and skorokhod_batch contracts the sums kept at each time.
The conditional expectation uses Nadaraya-Watson weights with a Gaussian
product kernel, whose per-dimension bandwidth is Silverman's rule on each
time's valid sample, or an optional k-nearest-neighbor window, fitted
separately at each time. Standard errors come from the delta method for the
weighted ratio, and from the window's sample standard deviation for k-NN.
Nadaraya-Watson costs O(Q n m) for n paths and Q points; it takes the points
in blocks of _GATHER // n rows and works on (rows, n) arrays, so its memory
is O(n) whatever Q is. At m = 1
the k-NN windows come from one sort of X_t per time, O(n log n + Q k): equal
X values keep path-index order, and at an equal-distance boundary the window
keeps the lower X. At m >= 2 k-NN uses the same blocks, O(Q n).

Path blocks are processed in fixed-size chunks whose size depends only on the
model dimension, and every path draws its noise from a counter-based stream
keyed on (seed, path_index); outputs are therefore byte-identical for any
worker count and chunk execution order.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .malliavin import skorokhod_batch
from .models import SdeModel, divergence_sigma_sigma_T
from .paths import TimeGrid, euler_state_batch, sample_brownian_block, simulate_variation_batch

# Noise-stream offset: the reverse sampler must not reuse the forward
# score-estimation paths at the same seed.
REVERSE_OFFSET = 2**48

# Stage timings, at INFO; the CLI prints them to stderr.
log = logging.getLogger(__name__)


class ScoreProviderGap(RuntimeError):
    """A score lookup fell outside the available tables."""


def chunk_size(m: int) -> int:
    """Fixed path-block size; a function of the model dimension only."""
    return 4096 if m == 1 else 2048


@dataclass
class PathHarvest:
    """What the regression reads of each path at each requested node.

    Axis 0 runs over paths (chunks in index order), axis 1 over the
    requested nodes. The exclusion causes are per-path masks: ``finite`` is
    False once a path has left the finite domain by the node, and
    ``singular`` marks finite paths whose gamma is near-singular there (or
    whose integrals overflowed). The per-term split of ``total`` is
    skorokhod_batch's.
    """

    X_t: np.ndarray  # (n, K, m) state at each node
    total: np.ndarray  # (n, K, m) anticipating integrals per direction
    finite: np.ndarray  # (n, K)
    singular: np.ndarray  # (n, K)

    @property
    def valid(self) -> np.ndarray:
        return self.finite & ~self.singular

    @property
    def n_sim_invalid(self) -> np.ndarray:
        """Paths excluded because the simulation left the finite domain, per node."""
        return np.count_nonzero(~self.finite, axis=0)

    @property
    def n_singular(self) -> np.ndarray:
        """Paths excluded for a near-singular gamma, per node."""
        return np.count_nonzero(self.singular, axis=0)

    @property
    def n_excluded(self) -> np.ndarray:
        return np.count_nonzero(~self.valid, axis=0)


def _harvest_chunk(model, grid, x0, seed, nodes, lo, hi) -> PathHarvest:
    # The noise block is the chunk's one (paths, steps) array; nothing holds
    # it once the simulation has folded it in.
    inc = sample_brownian_block(grid, model.d, seed, lo, hi - lo)
    batch = simulate_variation_batch(model, grid, inc, x0, nodes=nodes)
    del inc
    X_t = batch.X[:, np.searchsorted(batch.nodes, nodes)]
    terms = skorokhod_batch(batch, nodes)
    return PathHarvest(X_t, terms["total"], terms["finite"], terms["singular"])


# (model, grid, x0, seed, nodes) of the harvest that forked the worker pool.
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
    nodes=None,
) -> PathHarvest:
    """Simulate n_paths once and collect states, integrals and masks at each node.

    ``nodes`` are grid indices in [1, steps], in any order (default: the
    last node); the harvest's node axis follows that order. The paths run
    to the latest node only. A node's exclusions are those of a harvest on
    the grid truncated there: a path that blows up after node n still counts
    at n.

    Chunk boundaries depend only on (n_paths, model dimension); with
    workers > 1 the same chunks run in forked processes. Each chunk is
    written into its rows of arrays allocated once, so the result is
    bit-identical to the serial run.
    """
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    nodes = [grid.steps] if nodes is None else [int(n) for n in nodes]
    if not nodes or min(nodes) < 1 or max(nodes) > grid.steps:
        raise ValueError(f"nodes must lie in [1, {grid.steps}], got {nodes}")
    ch = chunk_size(model.m)
    chunks = [(lo, min(n_paths, lo + ch)) for lo in range(0, n_paths, ch)]
    state = (model, grid.truncated(max(nodes)), np.asarray(x0, dtype=float), seed, nodes)
    shape = (n_paths, len(nodes))
    out = PathHarvest(
        X_t=np.empty(shape + (model.m,)),
        total=np.empty(shape + (model.m,)),
        finite=np.empty(shape, bool),
        singular=np.empty(shape, bool),
    )

    def fill(parts):
        for (lo, hi), part in zip(chunks, parts):
            for f in fields(PathHarvest):
                getattr(out, f.name)[lo:hi] = getattr(part, f.name)

    global _FORK_STATE
    if workers > 1 and len(chunks) > 1:
        import multiprocessing

        _FORK_STATE = state
        try:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=min(workers, len(chunks))) as pool:
                fill(pool.imap(_run_fork_chunk, chunks))
        finally:
            _FORK_STATE = None
    else:
        fill(_harvest_chunk(*state, lo, hi) for lo, hi in chunks)
    return out


def silverman_bandwidth(X: np.ndarray) -> np.ndarray:
    """Per-dimension rule-of-thumb bandwidth for a Gaussian product kernel."""
    n, m = X.shape
    std = X.std(axis=0, ddof=1)
    if not np.all(std > 0):
        raise ValueError("degenerate sample (zero variance); cannot pick a bandwidth")
    return (4.0 / (m + 2.0)) ** (1.0 / (m + 4.0)) * n ** (-1.0 / (m + 4.0)) * std


MIN_EFFECTIVE_SAMPLES = 5.0
# The regressions handle at most this many (point, path) pairs at a time, so
# their memory stays O(n) in the number of paths whatever the point count.
_GATHER = 2**18


@dataclass
class ScoreTable:
    """Kernel-regression score estimates at K times on one set of evaluation points.

    scores[j, q, k] estimates the k-th partial of log density at time t[j]
    and point points[q]; rows with effective sample size below
    MIN_EFFECTIVE_SAMPLES are flagged and left nan rather than extrapolated.
    A table read back from CSV holds one time.
    """

    t: np.ndarray  # (K,)
    points: np.ndarray  # (Q, m)
    scores: np.ndarray  # (K, Q, m)
    stderr: np.ndarray  # (K, Q, m)
    n_eff: np.ndarray  # (K, Q)
    flagged: np.ndarray  # (K, Q) bool
    bandwidth: np.ndarray | None  # (K, m); None for k-NN windows
    excluded: np.ndarray  # (K,) paths excluded at each time


def _sq_distances(X, points, scale=None):
    """Squared (scaled) distances (Q, n) from each point to each sample, one axis at a time."""
    d2 = None
    for j in range(X.shape[1]):
        z = np.subtract.outer(points[:, j], X[:, j])
        if scale is not None:
            z /= scale[j]
        z *= z
        if d2 is None:
            d2 = z
        else:
            d2 += z
    return d2


def _nw_tables(X, delta, points, h):
    """Nadaraya-Watson means of -delta at each point, with delta-method SEs.

    The points are taken in blocks of _GATHER // n rows, so at most a few
    (rows, n) arrays are alive at once. Points with effective sample size
    (sum w)^2 / sum(w^2) below MIN_EFFECTIVE_SAMPLES are left nan.
    """
    Q, (n, m) = points.shape[0], X.shape
    scores = np.empty((Q, m))
    stderr = np.empty((Q, m))
    n_eff = np.empty(Q)
    rows = max(1, _GATHER // n)
    for lo in range(0, Q, rows):
        hi = min(Q, lo + rows)
        scores[lo:hi], stderr[lo:hi], n_eff[lo:hi] = _nw_block(X, delta, points[lo:hi], h)
    low = n_eff < MIN_EFFECTIVE_SAMPLES
    scores[low] = np.nan
    stderr[low] = np.nan
    return scores, stderr, n_eff


def _nw_block(X, delta, points, h):
    """One block of _nw_tables, from the (rows, n) Gaussian product-kernel weights w.

    The ratio is w @ delta / sum(w), and its SE per direction k is
    |w (delta_k - ratio_k)| / sum(w), from the centred residual.
    """
    w = _sq_distances(X, points, h)
    w *= -0.5
    np.exp(w, out=w)
    den = w.sum(axis=1)
    wsq = np.einsum("qi,qi->q", w, w)
    stderr = np.empty((points.shape[0], X.shape[1]))
    resid = np.empty_like(w)
    # A point far from every sample has zero kernel mass; _nw_tables flags
    # its row, so the 0/0 it meets here is never read.
    with np.errstate(divide="ignore", invalid="ignore"):
        n_eff = np.where((den > 0) & (wsq > 0), den * den / wsq, 0.0)
        ratio = (w @ delta) / den[:, None]
        for k in range(X.shape[1]):
            np.subtract(delta[:, k], ratio[:, k, None], out=resid)
            resid *= w
            stderr[:, k] = np.sqrt(np.einsum("qi,qi->q", resid, resid)) / den
    return -ratio, stderr, n_eff


def _knn_tables(X, delta, points, k):
    """Means of -delta over each point's k nearest samples, with their SEs.

    At m = 1 the k nearest samples of y form a contiguous window [s, s + k)
    of the sample sorted by X: one stable sort per node and one binary
    search for all points, O(n log n + Q k). The window starts at the
    smallest s with xs[s] + xs[s + k] >= 2y, so at an equal-distance
    boundary it keeps the lower X, and equal X values keep path-index order.
    Points beyond the sample get its end windows. At m >= 2 the points are
    taken in blocks of _GATHER // n rows: the squared distances to every
    sample, one axis at a time, then one argpartition per block, O(Q n).
    """
    Q, (n, m) = points.shape[0], X.shape
    n_eff = np.full(Q, float(k))
    scores, stderr = np.empty((Q, m)), np.empty((Q, m))
    if m == 1:
        order = np.argsort(X[:, 0], kind="stable")
        xs, ds = X[order, 0], delta[order]
        start = np.searchsorted(xs[:-k] + xs[k:], 2.0 * points[:, 0])
        # Gather at most _GATHER samples at a time, so memory stays O(n).
        rows = max(1, _GATHER // k)
        for lo in range(0, Q, rows):
            sel = ds[start[lo : lo + rows, None] + np.arange(k)]
            scores[lo : lo + rows] = -sel.mean(axis=1)
            stderr[lo : lo + rows] = sel.std(axis=1, ddof=1) / math.sqrt(k)
        return scores, stderr, n_eff
    rows = max(1, _GATHER // n)
    for lo in range(0, Q, rows):
        d2 = _sq_distances(X, points[lo : lo + rows])
        sel = delta[np.argpartition(d2, k - 1, axis=1)[:, :k]]
        scores[lo : lo + rows] = -sel.mean(axis=1)
        stderr[lo : lo + rows] = sel.std(axis=1, ddof=1) / math.sqrt(k)
    return scores, stderr, n_eff


def estimate_score(
    model: SdeModel,
    grid: TimeGrid,
    x0,
    times,
    points,
    n_paths: int,
    seed: int,
    workers: int = 1,
    knn: int | None = None,
) -> tuple[ScoreTable, PathHarvest]:
    """Monte Carlo score estimates at each of the given times on the evaluation points.

    Each time must lie on the grid, strictly after the first node. One
    harvest simulates the paths to the latest time and yields the
    anticipating integrals at every time; the regression then runs once per
    distinct time, on that time's valid paths: Nadaraya-Watson with
    Silverman's bandwidth, or with knn set, the mean over the knn nearest
    paths. A time with fewer than 100 valid paths, or with knn or fewer, is
    refused.
    Returns the ScoreTable, whose node axis follows ``times``, together with
    the raw per-path harvest it was regressed from.
    """
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    nodes = [grid.node_index(t) for t in times]
    for t, node in zip(times, nodes):
        if node < 1:
            raise ValueError(f"t={t} is below the first grid node {grid.dt}")

    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1) if model.m == 1 else points.reshape(1, -1)
    if points.ndim != 2 or points.shape[1] != model.m:
        raise ValueError(f"evaluation points must have shape (Q, {model.m})")

    if knn is not None and knn < MIN_EFFECTIVE_SAMPLES:
        raise ValueError(f"knn must be at least {int(MIN_EFFECTIVE_SAMPLES)}")
    # A k-NN window over every valid path would be their mean, flat in y.
    need = 100 if knn is None else max(100, knn + 1)

    t0 = time.perf_counter()
    harvest = harvest_paths(model, grid, x0, n_paths, seed, workers=workers, nodes=nodes)
    log.info("harvest to node %d: %.2fs", max(nodes), time.perf_counter() - t0)

    K, Q, m = len(nodes), points.shape[0], model.m
    scores = np.empty((K, Q, m))
    stderr = np.empty((K, Q, m))
    n_eff = np.empty((K, Q))
    bws = np.empty((K, m))
    # A repeated node is regressed at its first entry and copied to the rest.
    first = [nodes.index(node) for node in nodes]
    for j, node in enumerate(nodes):
        if first[j] < j:
            continue
        t0 = time.perf_counter()
        ok = harvest.valid[:, j]
        X, delta = harvest.X_t[ok, j], harvest.total[ok, j]
        if X.shape[0] < need:
            raise ValueError(f"only {X.shape[0]} valid paths survived at node {node}; need {need}")
        if knn is None:
            bws[j] = silverman_bandwidth(X)
            scores[j], stderr[j], n_eff[j] = _nw_tables(X, delta, points, bws[j])
        else:
            scores[j], stderr[j], n_eff[j] = _knn_tables(X, delta, points, int(knn))
        log.info("node %d regression: %.2fs", node, time.perf_counter() - t0)

    n_eff = n_eff[first]
    table = ScoreTable(
        t=np.array(nodes) * grid.dt,
        points=points,
        scores=scores[first],
        stderr=stderr[first],
        n_eff=n_eff,
        flagged=n_eff < MIN_EFFECTIVE_SAMPLES,
        bandwidth=None if knn is not None else bws[first],
        excluded=harvest.n_excluded,
    )
    return table, harvest


def score_table_header(m: int) -> str:
    ys = ",".join(f"y_{j + 1}" for j in range(m))
    return f"t,{ys},k,score,stderr,n_eff,excluded"


def write_score_csv(fh, table: ScoreTable, j: int) -> None:
    """Long-format dump of time t[j]: one row per (evaluation point, direction)."""
    m = table.points.shape[1]
    t, excluded = float(table.t[j]), int(table.excluded[j])
    fh.write(score_table_header(m) + "\n")
    # Python floats from tolist(), whose repr is the value's shortest round trip.
    columns = (table.points, table.scores[j], table.stderr[j], table.n_eff[j])
    for point, scores, stderr, n_eff in zip(*(a.tolist() for a in columns)):
        ys = ",".join(map(repr, point))
        for k in range(m):
            fh.write(f"{t!r},{ys},{k + 1},{scores[k]!r},{stderr[k]!r},{n_eff!r},{excluded}\n")


def read_score_csv(fh) -> ScoreTable:
    """Inverse of write_score_csv (used by the table-backed score provider).

    Only write_score_csv's layout is read: one row per (point, direction),
    each point's rows in order k = 1..m. Anything else is refused as malformed.
    """
    header = fh.readline().strip()
    m = header.count(",") - 5
    if m < 1 or header != score_table_header(m):
        raise ScoreProviderGap(f"malformed score table header: {header!r}")
    rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise ScoreProviderGap("empty score table")
    try:
        data = np.array([[float(v) for v in r] for r in rows])
    except ValueError as e:  # a field that is not a number, or rows of unequal length
        raise ScoreProviderGap(f"malformed score table: {e}") from e
    Q = len(rows) // m
    if data.shape != (Q * m, m + 6):
        raise ScoreProviderGap(f"malformed score table: {data.shape} fields for m={m}")
    # (Q, m, columns): point q's row for direction k is data[q, k - 1].
    data = data.reshape(Q, m, m + 6)
    t, y, k = data[..., 0], data[..., 1 : 1 + m], data[..., 1 + m]
    if np.any(t != t[0, 0]) or np.any(y != y[:, :1]) or np.any(k != np.arange(1, m + 1)):
        raise ScoreProviderGap("malformed score table: not one t, or a point's rows not k = 1..m")
    n_eff = data[:, 0, 4 + m]
    return ScoreTable(
        t=data[:1, 0, 0],
        points=data[:, 0, 1 : 1 + m],
        scores=data[None, :, :, 2 + m],
        stderr=data[None, :, :, 3 + m],
        n_eff=n_eff[None],
        flagged=n_eff[None] < MIN_EFFECTIVE_SAMPLES,
        bandwidth=None,
        excluded=data[:1, 0, 5 + m].astype(int),
    )


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential: a degree-18 Taylor polynomial with scaling and squaring.

    a is scaled by 2^-s so that its 1-norm is at most 1, where the
    truncation error of the polynomial (below e / 19!) lies under the
    rounding error; the result is squared s times.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm))) if norm > 0.0 else 0
    a = a / 2.0**s
    eye = out = np.eye(a.shape[0])
    for k in range(18, 0, -1):  # Horner: I + a (I + a/2 (I + ... a/18))
        out = eye + a @ out / k
    for _ in range(s):
        out = out @ out
    return out


def analytic_score_linear(model: SdeModel, t: float, x0, y) -> np.ndarray:
    """Closed-form Gaussian score at time t of a ``linear`` model from a point start.

    A = db and Sigma = sigma are read at the origin. If they are the same at
    times 0 and t and b(t, 0) = 0, X_t has mean exp(A t) x0 and a covariance
    that one exponential of [[-A, Sigma Sigma^T], [0, A^T]] gives for every
    m (Van Loan 1978); the score is -cov^{-1}(y - mean). Refuses t <= 0
    (degenerate point mass) and every other model.
    """
    if t <= 0.0:
        raise ValueError(f"analytic score undefined at t={t} (needs t > 0)")
    if not model.linear:
        raise ValueError(f"no closed-form score for model '{model.name}'")
    m = model.m
    origin = np.zeros(m)
    A, Sig = model.db(0.0, origin), model.sigma(0.0, origin)
    if (
        np.any(model.b(t, origin))
        or not np.array_equal(model.db(t, origin), A)
        or not np.array_equal(model.sigma(t, origin), Sig)
    ):
        raise ValueError(
            f"no closed-form score for model '{model.name}': "
            "b(t, 0) != 0, or db or sigma depends on t"
        )
    y = np.asarray(y, dtype=float)
    x0 = np.asarray(x0, dtype=float).reshape(m)
    blk = np.zeros((2 * m, 2 * m))
    blk[:m, :m] = -A
    blk[:m, m:] = Sig @ Sig.T
    blk[m:, m:] = A.T
    E = _expm(blk * t)
    cov = E[m:, m:].T @ E[:m, m:]
    mean = _expm(A * t) @ x0
    return -np.einsum("ij,...j->...i", np.linalg.inv(cov), y - mean)


def _multilinear(axes, values, x):
    """Multilinear interpolation of values (n_1, ..., n_m, k) on the grid axes at x (Q, m).

    Each query lies in the cell whose lower corner is the last grid value
    at or below it (the last cell for the upper end), and the result sums
    the cell's 2^m corner values times their weights. The arithmetic and
    its order are those of scipy's RegularGridInterpolator, so a nan corner
    spreads to every query in its cells, weight zero or not. x must lie
    within the axes.
    """
    corners = []
    for j, g in enumerate(axes):
        q = x[:, j]
        lo = np.clip(np.searchsorted(g, q, side="right") - 1, 0, max(len(g) - 2, 0))
        hi = np.minimum(lo + 1, len(g) - 1)
        # A one-point axis has no width; its query sits on the point.
        width = g[hi] - g[lo]
        w = (q - g[lo]) / np.where(width > 0, width, 1.0)
        corners.append(((lo, 1.0 - w), (hi, w)))
    out = 0.0
    for corner in itertools.product(*corners):
        idx, weights = zip(*corner)
        weight = 1.0
        for w in weights:
            weight = weight * w
        out = out + values[idx] * weight[:, None]
    return out


class TableScoreProvider:
    """Score lookups interpolated from one-time ScoreTables, keyed by node.

    Each table must hold the time of its node on the grid and a full
    regular grid of points; ``score`` interpolates it with _multilinear.
    A missing node, a query outside a table's point hull or of another
    dimension, or a flagged point in the queried cells aborts with the node
    named.
    """

    def __init__(self, tables: dict[int, ScoreTable], grid: TimeGrid):
        self.grid = grid
        # node -> (sorted distinct values per axis, scores on that grid)
        self.tables: dict[int, tuple[list[np.ndarray], np.ndarray]] = {}
        for node, table in tables.items():
            if table.t.shape != (1,):
                raise ValueError(f"score table for node {node} holds {table.t.size} times, not one")
            t = float(table.t[0])
            try:
                on_grid = grid.node_index(t) == node
            except ValueError:
                on_grid = False
            if not on_grid:
                raise ScoreProviderGap(
                    f"score table for node {node} holds t={t}, not the node's time {node * grid.dt}"
                )
            points = table.points
            m = points.shape[1]
            # A set, since np.unique would import numpy.ma into the request.
            axes = [np.array(sorted(set(points[:, j].tolist()))) for j in range(m)]
            shape = tuple(len(a) for a in axes)
            order = np.lexsort(points.T[::-1])  # row-major: the first axis varies slowest
            full = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
            if not np.array_equal(points[order], full):
                raise ScoreProviderGap(f"score table at node {node} is not a full regular grid")
            self.tables[node] = (axes, table.scores[0][order].reshape(shape + (m,)))

    def score(self, t: float, x: np.ndarray) -> np.ndarray:
        node = self.grid.node_index(t)
        if node not in self.tables:
            raise ScoreProviderGap(f"no score table for node {node} (t={t})")
        axes, values = self.tables[node]
        if x.shape[1] != len(axes):
            raise ScoreProviderGap(
                f"score table at node {node} has dimension {len(axes)}, the state {x.shape[1]}"
            )
        if not all(np.all((g[0] <= x[:, j]) & (x[:, j] <= g[-1])) for j, g in enumerate(axes)):
            ranges = [(float(g[0]), float(g[-1])) for g in axes]
            raise ScoreProviderGap(
                f"reverse state left the score table hull at node {node} (axis ranges {ranges})"
            )
        out = _multilinear(axes, values, x)
        if not np.all(np.isfinite(out)):
            raise ScoreProviderGap(f"score table at node {node} has gaps (flagged points) in the queried region")
        return out


def reverse_time_sample(
    model: SdeModel,
    score,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    x0,
) -> np.ndarray:
    """Integrate the score-driven reverse-time dynamics from T down to 0.

    ``score(t, x)`` maps a grid time and states (B, m) to scores (B, m): a
    closure over analytic_score_linear, or TableScoreProvider(...).score.
    Terminal states come from a fresh forward Euler run; one noise stream per
    sample, offset from the score-estimation paths, drives it and then the
    reverse steps. Stepping toward zero:

      X_{t-dt} = X_t + [b - div(sigma sigma^T) + sigma . s(t, X_t)] dt
                 + sigma sqrt(dt) xi

    Returns the samples at t = 0, shape (n_samples, m).
    """
    ch = chunk_size(model.m)
    dt = grid.dt
    twice = TimeGrid(2 * grid.horizon, 2 * grid.steps)
    out = np.empty((n_samples, model.m))
    for lo in range(0, n_samples, ch):
        hi = min(n_samples, lo + ch)
        # One stream per sample over twice the steps, at the same dt: the
        # first N increments drive the forward run, the next N the reverse.
        inc = sample_brownian_block(twice, model.d, seed, REVERSE_OFFSET + lo, hi - lo)
        x = euler_state_batch(model, grid, inc[:, : grid.steps], x0)
        bwd = inc[:, grid.steps :]
        for k in range(grid.steps, 0, -1):
            t = k * dt
            s = score(t, x)
            sig = model.sigma(t, x)
            drift = model.b(t, x) - divergence_sigma_sigma_T(model, t, x, sig) + np.einsum(
                "bil,bl->bi", sig, s
            )
            x = x + drift * dt + np.einsum("bil,bl->bi", sig, bwd[:, k - 1])
        out[lo:hi] = x
    return out
