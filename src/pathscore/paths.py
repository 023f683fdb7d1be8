"""Euler-Maruyama simulation of the state together with its variation processes.

For dX = b dt + sigma dB the simulator propagates, on one uniform grid and
with shared increments:

  X_t    state                                  (m,)
  Y_t    first variation dX_t/dx0               (m, m)   Y_0 = I
  Z_t    second variation d^2X_t/dx0^2          (m, m, m) Z[i, p, q], Z_0 = 0

The inverse first variation Yinv_t = Y_t^{-1} is not simulated: each step
inverts the current Y, so Y_t Yinv_t = I to rounding. The same pass folds
the step into the running sums from which malliavin.skorokhod_batch
reads the anticipating integrals, so it is the only pass over the path,
and keeps both only at the requested nodes. On a model declared ``linear``
Y is deterministic and Z stays 0, so the loop carries one row of Y and never
evaluates dsigma, d2b or d2sigma. Every other model runs the full updates, at
m = d = 1 as a flat step on (B,) arrays with the einsum step's bits: untraced
(4096 paths by 256 steps, 2 shared cores) tanh took 50-53 ms there against
72-80 ms. The einsum step copies each step's increments out of the noise
block: OU took 28-29 ms, not 33-35 ms.

Everything is vectorized over a leading batch-of-paths axis, and a single
path is a row slice of a batch (TrajectoryBatch.take). Noise is
counter-based (Philox keyed on (seed, path_index)) so any path can be
regenerated independently of execution order or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# numpy loads numpy.random on first use; importing it here keeps that cost
# in start-up, not in the first request that draws noise.
import numpy.random

from .malliavin import _fold_step, _zero_sums
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
    fresh state under each row's key, and the row is drawn straight into
    the output. The state setter validates the whole dict and copies it into
    the generator on every row, so the loop keeps one fresh-state dict and
    only rewrites its key entry in place; the copy means the write never
    reaches a generator already in use.
    """
    out = np.empty((n_paths, grid.steps, noise_dim))
    root = math.sqrt(grid.dt)
    bits = np.random.Philox(key=np.array([seed, first_path], dtype=np.uint64))
    gen = np.random.Generator(bits)
    fresh = bits.state
    key = fresh["state"]["key"]
    for j in range(n_paths):
        key[1] = first_path + j
        bits.state = fresh
        gen.standard_normal(out=out[j])
    out *= root
    return out


@dataclass
class TrajectoryBatch:
    """A block of simulated paths with their variation processes.

    The node quantities are kept at the grid indices ``nodes`` (K of them,
    ascending, node 0 first): X (B, K, m); Y, Yinv (B, K, m, m);
    Z (B, K, m, m, m); finite (B, K) marks paths that stayed finite at every
    node up to and including the kept one; ``sums`` holds the running sums
    of malliavin._zero_sums over the steps before each kept node, each
    (B, K, ...).
    valid (B,) marks paths finite to the end. The increments are not kept.
    """

    model: SdeModel
    grid: TimeGrid
    nodes: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    Yinv: np.ndarray
    Z: np.ndarray
    finite: np.ndarray
    sums: dict
    valid: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]

    def take(self, idx) -> "TrajectoryBatch":
        """The paths selected by ``idx`` (index list, slice or mask) as a batch."""
        return replace(
            self,
            X=self.X[idx],
            Y=self.Y[idx],
            Yinv=self.Yinv[idx],
            Z=self.Z[idx],
            finite=self.finite[idx],
            sums={name: s[idx] for name, s in self.sums.items()},
            valid=self.valid[idx],
        )


def simulate_variation_batch(
    model: SdeModel,
    grid: TimeGrid,
    increments: np.ndarray,
    x0,
    nodes=None,
) -> TrajectoryBatch:
    """One Euler pass over (X, Y, Z) that also folds in delta's running sums.

    ``increments`` has shape (B, steps, d). Each step evaluates the model's
    coefficients once at the left node, forms Yinv_n (the reciprocal when
    m = 1, else the matrix inverse), adds the step to the running sums of
    malliavin._fold_step and advances the state. The node quantities
    and the sums are kept at node 0 and at the grid indices ``nodes``
    (default: every node), so a score run holds no per-step array.

    On a ``linear`` model Y, Yinv and Z (= 0) are shared by every path on a
    batch axis of length 1, db is read once at the origin (it cannot depend on
    x), and Yinv_n, V_n and S_n are formed once per step, while P and Gamma
    accumulate per path by broadcasting. Any other model with m = d = 1 runs
    _flat_steps, with the einsum step's bits. The kept node arrays have B rows
    either way. Paths that leave the finite domain or whose Y turns singular
    are flagged invalid, never raised.
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 3 or inc.shape[1] != grid.steps or inc.shape[2] != model.d:
        raise ValueError(f"increments must have shape (B, {grid.steps}, {model.d})")
    N = grid.steps
    if nodes is None:
        keep = np.arange(N + 1)
    else:
        # A set, not np.union1d, which would import numpy.ma into the request.
        keep = np.array(sorted({0, *np.asarray(nodes, dtype=int).ravel().tolist()}))
    if keep.min() < 0 or keep.max() > N:
        raise ValueError(f"nodes must lie in [0, {N}], got {nodes}")
    steps = _flat_steps if model.m == model.d == 1 and not model.linear else _einsum_steps
    kept, alive = steps(model, grid, inc, np.asarray(x0, dtype=float), keep)
    node_fields = {name: kept.pop(name) for name in ("X", "Y", "Yinv", "Z", "finite")}
    return TrajectoryBatch(model=model, grid=grid, nodes=keep, sums=kept, valid=alive, **node_fields)


def _einsum_steps(model: SdeModel, grid: TimeGrid, inc: np.ndarray, x0: np.ndarray, keep):
    """simulate_variation_batch's loop as einsums: the kept arrays by name, and valid."""
    B, m, N, dt = inc.shape[0], model.m, grid.steps, grid.dt
    slot = dict(zip(keep.tolist(), range(len(keep))))
    # A linear model's Y solves a deterministic ODE, so one row serves every
    # path, with db read at the origin, which stays finite when a path blows up.
    shared = model.linear
    origin = np.zeros((1, m))

    kept = {}
    x = np.array(np.broadcast_to(x0, (B, m)))
    y = np.array(np.broadcast_to(np.eye(m), (1 if shared else B, m, m)))
    z = np.zeros(y.shape + (m,))
    alive = np.ones(B, dtype=bool)
    sums = _zero_sums(model, B)
    # Each step's increments, copied once out of the block, where they are strided.
    dW = np.empty((B, model.d))

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(N + 1):
            yinv = _inverse(y)
            alive &= (
                np.all(np.isfinite(x), axis=1)
                & np.all(np.isfinite(y), axis=(1, 2))
                & np.all(np.isfinite(yinv), axis=(1, 2))
                & np.all(np.isfinite(z), axis=(1, 2, 3))
            )
            if n in slot:
                for name, value in dict(X=x, Y=y, Yinv=yinv, Z=z, finite=alive, **sums).items():
                    shape = (B, len(keep)) + value.shape[1:]
                    kept.setdefault(name, np.empty(shape, value.dtype))[:, slot[n]] = value
            if n == N:
                break

            t = n * dt
            np.copyto(dW, inc[:, n])
            b = model.b(t, x)
            sig = model.sigma(t, x)
            db = model.db(t, origin if shared else x)
            x_next = _state_step(x, b, sig, dW, dt)
            y_next = y + np.einsum("bij,bjk->bik", db, y) * dt
            if shared:
                _fold_step(sums, dt, yinv, sig[:1], z, None, dW)
            else:
                dsig = model.dsigma(t, x)
                dsY = np.einsum("blij,bjk->blik", dsig, y)
                _fold_step(sums, dt, yinv, sig, z, dsY, dW)
                y_next += np.einsum("blik,bl->bik", dsY, dW)
                # dZ[i,j,k]: Hessian of the flow; both drift and noise have a
                # curvature term d2(coeff):(Y x Y) plus a linear transport term.
                zdrift = np.einsum("bipq,bpj,bqk->bijk", model.d2b(t, x), y, y) + np.einsum(
                    "bir,brjk->bijk", db, z
                )
                znoise = np.einsum("blipq,bpj,bqk->blijk", model.d2sigma(t, x), y, y) + np.einsum(
                    "blir,brjk->blijk", dsig, z
                )
                z = z + zdrift * dt + np.einsum("blijk,bl->bijk", znoise, dW)
            x, y = x_next, y_next
    return kept, alive


def _flat_steps(model: SdeModel, grid: TimeGrid, inc: np.ndarray, x0: np.ndarray, keep):
    """_einsum_steps at m = d = 1 for a model not declared ``linear``, on (B,) arrays.

    The loop updates (B,) views of the state and the sums in place with
    ufuncs into buffers made once. It evaluates the same coefficients and
    keeps the einsum step's association order, so the bits match, each
    update reading left-node values: x <- (x + b dt) + sigma dW,
    y <- (y + (db y) dt) + dsY dW with dsY = dsigma y, z <- (z + ((d2b y) y +
    db z) dt) + ((d2sigma y) y + dsigma z) dW, and the sums of _fold_step
    from V = yinv sigma, S = dt (V V), R = (yinv z) S - dt (V (yinv dsY)).
    """
    B, N, dt = inc.shape[0], grid.steps, grid.dt
    x = np.array(np.broadcast_to(x0, (B, 1)))
    alive = np.ones(B, dtype=bool)
    state = dict(X=x, Y=np.ones((B, 1, 1)), Yinv=np.empty((B, 1, 1)), Z=np.zeros((B, 1, 1, 1)))
    state.update(finite=alive, **_zero_sums(model, B))
    kept = {name: np.empty((B, len(keep)) + v.shape[1:], v.dtype) for name, v in state.items()}
    slot = dict(zip(keep.tolist(), range(len(keep))))
    s = {name: v.reshape(B) for name, v in state.items()}  # views
    xs, ys, yi, zs = s["X"], s["Y"], s["Yinv"], s["Z"]
    dW, V, S, R, dsY, u, v, w = (np.empty(B) for _ in range(8))
    ok = np.empty(B, dtype=bool)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(N + 1):
            np.divide(1.0, ys, out=yi)
            for arr in (xs, ys, yi, zs):
                alive &= np.isfinite(arr, out=ok)
            if n in slot:
                for name, value in state.items():
                    kept[name][:, slot[n]] = value
            if n == N:
                break

            t = n * dt
            np.copyto(dW, inc[:, n, 0])
            b, sig, db, dsig = (
                f(t, x).reshape(B) for f in (model.b, model.sigma, model.db, model.dsigma)
            )
            np.multiply(dsig, ys, out=dsY)
            np.multiply(yi, sig, out=V)
            np.multiply(V, V, out=S)
            S *= dt
            s["P"] += np.multiply(V, dW, out=u)
            s["B1"] += np.multiply(S, s["Gam"], out=u)
            np.multiply(yi, zs, out=R)
            R *= S
            np.multiply(yi, dsY, out=u)
            u *= V
            R -= np.multiply(u, dt, out=u)
            s["A"] += R
            s["B2"] += np.multiply(R, s["Gam"], out=u)
            s["C2"] += np.multiply(S, s["R_tot"], out=u)
            s["R_tot"] += R
            s["Gam"] += S

            np.multiply(model.d2sigma(t, x).reshape(B), ys, out=v)
            v *= ys
            v += np.multiply(dsig, zs, out=w)
            v *= dW
            np.multiply(model.d2b(t, x).reshape(B), ys, out=u)
            u *= ys
            u += np.multiply(db, zs, out=w)
            zs += np.multiply(u, dt, out=u)
            zs += v
            np.multiply(db, ys, out=u)
            ys += np.multiply(u, dt, out=u)
            ys += np.multiply(dsY, dW, out=u)
            # b and sigma may be views of x, so both terms are formed first.
            np.multiply(sig, dW, out=v)
            xs += np.multiply(b, dt, out=u)
            xs += v
    return kept, alive


def _inverse(y: np.ndarray) -> np.ndarray:
    """Yinv of a stack of Y: the reciprocal when m = 1, else the matrix inverse.

    inv raises on a singular matrix, so only the finite Y with a finite
    nonzero determinant are inverted; the rest stay nan and flag their path.
    """
    if y.shape[-1] == 1:
        return 1.0 / y
    yinv = np.full_like(y, np.nan)
    ok = np.all(np.isfinite(y), axis=(1, 2))
    det = np.linalg.det(y[ok])
    ok[ok] = np.isfinite(det) & (det != 0.0)
    yinv[ok] = np.linalg.inv(y[ok])
    return yinv


def _state_step(x, b, sig, dW, dt):
    """One Euler step of the state."""
    return x + b * dt + np.einsum("bil,bl->bi", sig, dW)


def euler_state_batch(model: SdeModel, grid: TimeGrid, increments: np.ndarray, x0) -> np.ndarray:
    """State-only Euler scheme (no variation processes), returns X_T (B, m)."""
    inc = np.asarray(increments, dtype=float)
    B = inc.shape[0]
    x = np.broadcast_to(np.asarray(x0, dtype=float), (B, model.m)).copy()
    dt = grid.dt
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(grid.steps):
            t = n * dt
            x = _state_step(x, model.b(t, x), model.sigma(t, x), inc[:, n], dt)
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
    if header:
        fh.write(trajectory_csv_header(batch.model.m) + "\n")
    fields = (batch.X, batch.Y, batch.Yinv, batch.Z)
    rows = np.concatenate([f.reshape(f.shape[:2] + (-1,)) for f in fields], axis=2).tolist()
    times = batch.grid.nodes()[batch.nodes].tolist()
    for pid, path in zip(range(batch.n_paths) if path_ids is None else path_ids, rows):
        for i, t, vals in zip(batch.nodes.tolist(), times, path):
            fh.write(f"{pid},{i},{t!r}," + ",".join(map(repr, vals)) + "\n")
