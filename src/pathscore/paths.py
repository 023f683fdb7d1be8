"""Euler-Maruyama simulation of the state together with its variation processes.

For dX = b dt + sigma dB the simulator propagates, on one uniform grid and
with shared increments:

  X_t    state                                  (m,)
  Y_t    first variation dX_t/dx0               (m, m)   Y_0 = I
  Z_t    second variation d^2X_t/dx0^2          (m, m, m) Z[i, p, q], Z_0 = 0

The inverse first variation Yinv_t = Y_t^{-1} is not simulated: it is
computed from Y once the Euler loop is done, so Y_t Yinv_t = I to rounding.
On a model flagged ``affine_coefficients`` Z stays at its zero start.

Everything is vectorized over a leading batch-of-paths axis, and a single
path is a row slice of a batch (TrajectoryBatch.take). Noise is
counter-based (Philox keyed on (seed, path_index)) so any path can be
regenerated independently of execution order or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .models import SdeModel


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with nodes t_i = i * horizon / steps, i = 0..steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"need at least 1 step, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def node_index(self, t: float) -> int:
        """Map a time to its grid node; one more than 1e-9 * max(1, horizon) off is refused."""
        i = int(round(t / self.dt))
        i = min(max(i, 0), self.steps)
        if abs(t - i * self.dt) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(
                f"t={t} is not a grid node (nearest node is t={i * self.dt} at index {i})"
            )
        return i

    def truncated(self, node: int) -> "TimeGrid":
        """The subgrid [0, t_node] with the same spacing."""
        if not 1 <= node <= self.steps:
            raise ValueError(f"truncation node must be in [1, {self.steps}], got {node}")
        return TimeGrid(horizon=node * self.dt, steps=node)


def sample_brownian_block(
    grid: TimeGrid, noise_dim: int, seed: int, first_path: int, n_paths: int
) -> np.ndarray:
    """Increments for paths [first_path, first_path + n_paths), shape (n, steps, d).

    Row j comes from the Philox stream keyed on (seed, first_path + j) alone,
    so it is bit-identical to the single row drawn with first_path + j,
    n_paths=1. One generator serves the block: its state is reset to the
    fresh state under each row's key.
    """
    out = np.empty((n_paths, grid.steps, noise_dim))
    root = math.sqrt(grid.dt)
    bits = np.random.Philox(key=np.array([seed, first_path], dtype=np.uint64))
    gen = np.random.Generator(bits)
    fresh = bits.state
    for j in range(n_paths):
        fresh["state"]["key"] = np.array([seed, first_path + j], dtype=np.uint64)
        bits.state = fresh
        out[j] = gen.standard_normal((grid.steps, noise_dim))
    out *= root
    return out


@dataclass
class TrajectoryBatch:
    """A block of simulated paths with their variation processes.

    Shapes: X (B, N+1, m); Y, Yinv (B, N+1, m, m); Z (B, N+1, m, m, m);
    dB (B, N, d); valid (B,) marks paths that stayed finite.
    """

    model: SdeModel
    grid: TimeGrid
    X: np.ndarray
    Y: np.ndarray
    Yinv: np.ndarray
    Z: np.ndarray
    dB: np.ndarray
    valid: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]

    def finite_prefix(self) -> np.ndarray:
        """(B, N+1) mask: the path is finite at every node up to and including n."""
        return _finite_prefix(self.X, self.Y, self.Yinv, self.Z)

    def take(self, idx) -> "TrajectoryBatch":
        """The paths selected by ``idx`` (index list, slice or mask) as a batch."""
        return replace(
            self,
            X=self.X[idx],
            Y=self.Y[idx],
            Yinv=self.Yinv[idx],
            Z=self.Z[idx],
            dB=self.dB[idx],
            valid=self.valid[idx],
        )


def simulate_variation_batch(
    model: SdeModel,
    grid: TimeGrid,
    increments: np.ndarray,
    x0,
) -> TrajectoryBatch:
    """Propagate (X, Y, Z) for a block of paths sharing a grid, then invert Y.

    ``increments`` has shape (B, steps, d). Yinv is the matrix inverse of Y
    at every node (the reciprocal when m = 1).

    Paths that leave the finite domain or whose Y turns singular are flagged
    invalid, never raised.
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 3 or inc.shape[1] != grid.steps or inc.shape[2] != model.d:
        raise ValueError(f"increments must have shape (B, {grid.steps}, {model.d})")
    B = inc.shape[0]
    m, N, dt = model.m, grid.steps, grid.dt
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (B, m))

    X = np.empty((B, N + 1, m))
    Y = np.empty((B, N + 1, m, m))
    Z = np.zeros((B, N + 1, m, m, m))
    X[:, 0] = x0
    Y[:, 0] = np.eye(m)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(N):
            t = n * dt
            x = X[:, n]
            y, z = Y[:, n], Z[:, n]
            dW = inc[:, n]

            b = model.b(t, x)
            sig = model.sigma(t, x)
            db = model.db(t, x)
            dsig = model.dsigma(t, x)

            X[:, n + 1] = x + b * dt + np.einsum("bil,bl->bi", sig, dW)

            dbY = np.einsum("bij,bjk->bik", db, y)
            dsY = np.einsum("blij,bjk->blik", dsig, y)
            Y[:, n + 1] = y + dbY * dt + np.einsum("blik,bl->bik", dsY, dW)

            if model.affine_coefficients:
                continue
            # dZ[i,j,k]: Hessian of the flow; both drift and noise have a
            # curvature term d2(coeff):(Y x Y) plus a linear transport term.
            d2b = model.d2b(t, x)
            d2sig = model.d2sigma(t, x)
            zdrift = np.einsum("bipq,bpj,bqk->bijk", d2b, y, y) + np.einsum(
                "bir,brjk->bijk", db, z
            )
            znoise = np.einsum("blipq,bpj,bqk->blijk", d2sig, y, y) + np.einsum(
                "blir,brjk->blijk", dsig, z
            )
            Z[:, n + 1] = z + zdrift * dt + np.einsum("blijk,bl->bijk", znoise, dW)

        if m == 1:
            Yinv = 1.0 / Y
        else:
            # inv raises on a singular matrix, so invert only the finite Y
            # with a finite nonzero determinant; the rest stay nan and flag
            # their path invalid below.
            Yinv = np.full_like(Y, np.nan)
            ok = np.all(np.isfinite(Y), axis=(2, 3))
            det = np.linalg.det(Y[ok])
            ok[ok] = np.isfinite(det) & (det != 0.0)
            Yinv[ok] = np.linalg.inv(Y[ok])

    valid = _finite_prefix(X, Y, Yinv, Z)[:, -1]
    return TrajectoryBatch(model=model, grid=grid, X=X, Y=Y, Yinv=Yinv, Z=Z, dB=inc, valid=valid)


def _finite_prefix(X, Y, Yinv, Z) -> np.ndarray:
    finite = (
        np.all(np.isfinite(X), axis=2)
        & np.all(np.isfinite(Y), axis=(2, 3))
        & np.all(np.isfinite(Yinv), axis=(2, 3))
        & np.all(np.isfinite(Z), axis=(2, 3, 4))
    )
    return np.logical_and.accumulate(finite, axis=1)


def euler_state_batch(model: SdeModel, grid: TimeGrid, increments: np.ndarray, x0) -> np.ndarray:
    """State-only Euler scheme (no variation processes), returns X_T (B, m)."""
    inc = np.asarray(increments, dtype=float)
    B = inc.shape[0]
    x = np.broadcast_to(np.asarray(x0, dtype=float), (B, model.m)).copy()
    dt = grid.dt
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(grid.steps):
            t = n * dt
            x = x + model.b(t, x) * dt + np.einsum("bil,bl->bi", model.sigma(t, x), inc[:, n])
    return x


def trajectory_csv_header(m: int) -> str:
    cols = ["path", "i", "t"]
    cols += [f"X_{i + 1}" for i in range(m)]
    cols += [f"Y_{i + 1}{j + 1}" for i in range(m) for j in range(m)]
    cols += [f"Yinv_{i + 1}{j + 1}" for i in range(m) for j in range(m)]
    cols += [f"Z_{i + 1}{p + 1}{q + 1}" for i in range(m) for p in range(m) for q in range(m)]
    return ",".join(cols)


def write_trajectories_csv(fh, batch: TrajectoryBatch, path_ids=None, header: bool = True) -> None:
    """Dump a trajectory block as CSV, one row per (path, node)."""
    m = batch.model.m
    nodes = batch.grid.nodes()
    if path_ids is None:
        path_ids = range(batch.n_paths)
    if header:
        fh.write(trajectory_csv_header(m) + "\n")
    for b, pid in enumerate(path_ids):
        for i, t in enumerate(nodes):
            vals = [
                *batch.X[b, i].ravel(),
                *batch.Y[b, i].ravel(),
                *batch.Yinv[b, i].ravel(),
                *batch.Z[b, i].ravel(),
            ]
            fh.write(
                f"{pid},{i},{float(t)!r}," + ",".join(repr(float(v)) for v in vals) + "\n"
            )
