"""Independent numerical oracles used to validate the pathwise formulas.

Nothing here feeds the estimator; these are slower, structurally different
computations of the same quantities:

  covering_products  the quadrature of <DX_T^i, u_k> = delta_ik on every path
  per-node formulas  direct O(N^2) noise derivatives of one path of a batch
  fd_malliavin       re-simulation under a bumped Brownian increment
  kde_score          gradient of a Gaussian kernel density estimate
  fokker_planck_1d   Crank-Nicolson solve of the forward density PDE (m = 1)
  duality_report     Monte Carlo check of E[X_T^i delta(u_k)] = delta_ik
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import harvest_paths, silverman_bandwidth
from .malliavin import compute_bundle_batch
from .models import SdeModel
from .paths import TimeGrid, TrajectoryBatch, simulate_variation_batch

FD_TARGETS = ("state", "firstvar", "invvar", "gamma")
# A kernel or PDE density this small gives no usable log-gradient.
DENSITY_FLOOR = 1e-12
# Largest drift of total probability mass the density solver tolerates.
MASS_TOL = 1e-3


def covering_products(batch: TrajectoryBatch) -> np.ndarray:
    """Left-point quadrature of <DX_T^i, u_k> on every path, shape (B, m, m).

    Each path's matrix equals the identity. A singular path's rows are nan,
    as its gamma inverse is.
    """
    bundle = compute_bundle_batch(batch)
    return batch.grid.dt * np.einsum("bnil,bnjl,bjk->bik", bundle.W, bundle.V, bundle.F)


# Direct per-node formulas. Each reads path p of a batch and evaluates one
# node (pair) at a time, quadratic in N over a whole path; the O(N) assembly
# in malliavin.py must reproduce them.


def _node_coeff(batch: TrajectoryBatch, p: int, i: int, what: str) -> np.ndarray:
    t = batch.grid.nodes()[i]
    return getattr(batch.model, what)(t, batch.X[p, i])


def malliavin_derivative_state(batch: TrajectoryBatch, p: int, i: int) -> np.ndarray:
    """Sensitivity of X_T to the noise at node i: Y_N Yinv_i sigma(t_i, X_i)."""
    N = batch.grid.steps
    if not 0 <= i <= N:
        raise IndexError(f"node {i} outside [0, {N}]")
    return batch.Y[p, N] @ batch.Yinv[p, i] @ _node_coeff(batch, p, i, "sigma")


def _dt_first_variation_to(batch: TrajectoryBatch, p: int, i: int, s: int) -> np.ndarray:
    """Noise-derivative of Y_s with respect to node i <= s, shape (d, m, m).

    Channel l: Z_s . v - Y_s Yinv_i (Z_i . v) + Y_s Yinv_i dsigma_i^l Y_i,
    where v = Yinv_i sigma_i^l and "." contracts the third index of Z.
    """
    Y, Yinv, Z = batch.Y[p], batch.Yinv[p], batch.Z[p]
    v = Yinv[i] @ _node_coeff(batch, p, i, "sigma")  # (m, d)
    dsig_i = _node_coeff(batch, p, i, "dsigma")
    YsYinv_i = Y[s] @ Yinv[i]
    out = np.empty((batch.model.d, batch.model.m, batch.model.m))
    for l in range(batch.model.d):
        zs_v = Z[s] @ v[:, l]
        zi_v = Z[i] @ v[:, l]
        out[l] = zs_v - YsYinv_i @ zi_v + YsYinv_i @ dsig_i[l] @ Y[i]
    return out


def dt_first_variation(batch: TrajectoryBatch, p: int, i: int) -> np.ndarray:
    """Noise-derivative of the terminal first variation Y_N, shape (d, m, m)."""
    N = batch.grid.steps
    if not 0 <= i < N:
        raise IndexError(f"node {i} outside [0, {N})")
    return _dt_first_variation_to(batch, p, i, N)


def dt_inverse_variation(batch: TrajectoryBatch, p: int, i: int, s: int) -> np.ndarray:
    """Noise-derivative of Yinv_s; zero for i > s, else -Yinv_s (D_i Y_s) Yinv_s."""
    N = batch.grid.steps
    if not (0 <= i < N and 0 <= s <= N):
        raise IndexError(f"(i={i}, s={s}) outside the grid")
    if i > s:
        return np.zeros((batch.model.d, batch.model.m, batch.model.m))
    dY = _dt_first_variation_to(batch, p, i, s)
    Yinv_s = batch.Yinv[p, s]
    return -np.einsum("ij,ljk,kr->lir", Yinv_s, dY, Yinv_s)


def theta(batch: TrajectoryBatch, p: int, i: int, s: int) -> np.ndarray:
    """Noise-derivative kernel of Yinv_s sigma_s for i <= s, shape (d, m, d).

    Channel l:
      -Yinv_s [Z_s . v - Y_s Yinv_i (Z_i . v) + Y_s Yinv_i dsigma_i^l Y_i]
        Yinv_s sigma_s
      + Yinv_s (dsigma_s . (Y_s v^l))
    with v = Yinv_i sigma_i^l.
    """
    N = batch.grid.steps
    if not (0 <= i < N and 0 <= s < N):
        raise IndexError(f"(i={i}, s={s}) outside left nodes [0, {N})")
    if i > s:
        raise ValueError(f"theta needs i <= s, got i={i} > s={s}")
    m, d = batch.model.m, batch.model.d
    Y, Yinv = batch.Y[p], batch.Yinv[p]
    v = Yinv[i] @ _node_coeff(batch, p, i, "sigma")
    dsig_s = _node_coeff(batch, p, s, "dsigma")
    Vs = Yinv[s] @ _node_coeff(batch, p, s, "sigma")
    dY = _dt_first_variation_to(batch, p, i, s)  # channel-wise D_i Y_s
    out = np.empty((d, m, d))
    for l in range(d):
        first = -Yinv[s] @ dY[l] @ Vs
        w = Y[s] @ v[:, l]
        second = Yinv[s] @ np.einsum("cjq,q->jc", dsig_s, w)
        out[l] = first + second
    return out


def dt_gamma_split(batch: TrajectoryBatch, p: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Noise-derivative of gamma at node i, split by quadrature node s.

    Returns (lower, upper), each (d, m, m): lower collects s < i where only
    the Y_N factor of W_s = Y_N Yinv_s sigma_s feels the perturbation; upper
    collects s >= i where Yinv_s and sigma_s respond as well.
    """
    N, dt = batch.grid.steps, batch.grid.dt
    if not 0 <= i < N:
        raise IndexError(f"node {i} outside [0, {N})")
    m, d = batch.model.m, batch.model.d
    bundle = compute_bundle_batch(batch.take([p]))
    V, W = bundle.V[0], bundle.W[0]
    Om = dt_first_variation(batch, p, i)
    YN = batch.Y[p, N]

    lower = np.zeros((d, m, m))
    if i > 0:
        asym = np.einsum("lpa,nac,nqc->lpq", Om, V[:i], W[:i]) * dt
        lower = asym + np.swapaxes(asym, -1, -2)

    dW = np.empty((N - i, d, m, d))
    for s in range(i, N):
        th = theta(batch, p, i, s)
        dW[s - i] = np.einsum("lpa,ac->lpc", Om, V[s]) + np.einsum("pa,lac->lpc", YN, th)
    asym = np.einsum("nlpc,nqc->lpq", dW, W[i:N]) * dt
    upper = asym + np.swapaxes(asym, -1, -2)
    return lower, upper


def dt_gamma(batch: TrajectoryBatch, p: int, i: int) -> np.ndarray:
    """Total noise-derivative of gamma at node i, shape (d, m, m)."""
    lower, upper = dt_gamma_split(batch, p, i)
    return lower + upper


def _fd_extract(batch, target: str, s: int | None):
    if target == "state":
        return batch.X[:, -1]
    if target == "firstvar":
        return batch.Y[:, -1]
    if target == "invvar":
        return batch.Yinv[:, s]
    return compute_bundle_batch(batch).gamma


def fd_malliavin(
    target: str,
    model: SdeModel,
    grid: TimeGrid,
    probes: list,
    eps: float,
    x0,
) -> list:
    """Central-difference bump oracle for the pathwise derivative formulas.

    Probes are (increments, i, l) or (increments, i, l, s) tuples with
    increments of shape (steps, d). All paths with the (i, l) increment
    shifted by +-eps are re-simulated as one block; returns one centered
    difference of the target quantity (X_T, Y_T, Yinv_s or gamma) per probe,
    None where a bumped path blew up. The invvar target requires the node s.
    """
    if target not in FD_TARGETS:
        raise ValueError(f"unknown target '{target}' (want one of {FD_TARGETS})")
    if eps <= 0:
        raise ValueError("eps must be positive")
    rows, nodes = [], []
    for w, i, l, *s in probes:
        if target == "invvar" and not s:
            raise ValueError("invvar target requires the observation node s")
        if not 0 <= i < grid.steps:
            raise IndexError(f"bump node {i} outside [0, {grid.steps})")
        plus = np.array(w, dtype=float)
        minus = plus.copy()
        plus[i, l] += eps
        minus[i, l] -= eps
        rows += [plus, minus]
        nodes.append(s[0] if s else None)
    batch = simulate_variation_batch(model, grid, np.stack(rows), x0)
    out = []
    for j, s in enumerate(nodes):
        pair = batch.take(slice(2 * j, 2 * j + 2))
        if not np.all(pair.valid):
            out.append(None)
            continue
        vals = _fd_extract(pair, target, s)
        out.append((vals[0] - vals[1]) / (2.0 * eps))
    return out


@dataclass
class KdeScoreResult:
    """Gradient of a log kernel density estimate at one point."""

    score: np.ndarray
    stderr: np.ndarray
    density: float
    reliable: bool


def kde_score(samples: np.ndarray, y, bandwidth="auto") -> KdeScoreResult:
    """Score estimate from samples alone: gradient of log of a Gaussian KDE.

    For a product kernel, grad log p_hat(y) = (weighted mean of x - y) / h^2
    with kernel weights centered at y. Standard errors use the delta method
    on the weighted ratio. Flagged unreliable when the KDE mass at y is
    below DENSITY_FLOOR.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, m = X.shape
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    y = np.asarray(y, dtype=float).reshape(m)
    h = silverman_bandwidth(X) if isinstance(bandwidth, str) else np.broadcast_to(
        np.asarray(bandwidth, dtype=float), (m,)
    )

    z = (X - y) / h
    w = np.exp(-0.5 * np.sum(z * z, axis=1))
    den = w.sum()
    density = den / (n * np.prod(h) * (2.0 * math.pi) ** (m / 2.0))
    g = z / h  # (x - y)/h^2 rows
    if den <= 0:
        return KdeScoreResult(
            score=np.full(m, np.nan), stderr=np.full(m, np.nan), density=0.0, reliable=False
        )
    ratio = (w[:, None] * g).sum(axis=0) / den
    resid = w[:, None] * (g - ratio)
    stderr = np.sqrt(np.sum(resid * resid, axis=0)) / den
    return KdeScoreResult(
        score=ratio, stderr=stderr, density=float(density), reliable=bool(density >= DENSITY_FLOOR)
    )


class MassLeakageError(RuntimeError):
    """Probability mass left the finite-difference domain."""


@dataclass
class FokkerPlanckSolution:
    """Density evolution of a scalar diffusion on a uniform mesh.

    p has shape (n_stored, n_cells + 1); times are the stored time nodes.
    """

    x: np.ndarray
    times: np.ndarray
    p: np.ndarray
    mass: np.ndarray

    def score(self, row: int = -1) -> np.ndarray:
        """Central-difference d/dx log p at a stored time; nan where p <= DENSITY_FLOOR."""
        p = self.p[row]
        dx = self.x[1] - self.x[0]
        out = np.full_like(p, np.nan)
        interior = slice(1, -1)
        pi = p[interior]
        good = pi > DENSITY_FLOOR
        grad = (p[2:] - p[:-2]) / (2.0 * dx)
        vals = np.full(pi.shape, np.nan)
        vals[good] = grad[good] / pi[good]
        out[interior] = vals
        return out

    def score_at(self, y: np.ndarray, row: int = -1) -> np.ndarray:
        s = self.score(row)
        ok = np.isfinite(s)
        return np.interp(np.asarray(y, dtype=float), self.x[ok], s[ok])


def fokker_planck_1d(
    model: SdeModel,
    x0: float,
    horizon: float,
    x_min: float,
    x_max: float,
    n_cells: int = 2400,
    n_steps: int = 2000,
    store_stride: int = 0,
) -> FokkerPlanckSolution:
    """Crank-Nicolson solve of dp/dt = -(b p)' + ((sigma^2/2) p)'' for m = 1.

    The initial condition is a narrow Gaussian as wide as the mesh spacing.
    The first steps use implicit Euler to damp the oscillations
    Crank-Nicolson produces from near-delta data. Dirichlet zero boundaries;
    if total mass drifts from 1 by more than MASS_TOL the solve aborts, which
    is the signal to widen the mesh. Negative undershoots above -1e-12 are
    clipped to zero.

    store_stride = 0 stores only the first and final densities; k stores
    every k-th step. The coefficients are frozen at t = 0, so a model whose
    b or sigma on the mesh differs between t = 0 and t = horizon is refused.
    """
    # Imported here: scipy.linalg's package import costs more than a whole
    # score request, and no CLI command reaches this solver.
    from scipy.linalg import solve_banded

    if model.m != 1:
        raise ValueError("the density solver is one-dimensional")
    if not x_min < x0 < x_max:
        raise ValueError(f"x0={x0} outside mesh [{x_min}, {x_max}]")
    x = np.linspace(x_min, x_max, n_cells + 1)
    dx = x[1] - x[0]
    dt = horizon / n_steps

    bvec = model.b(0.0, x[:, None])[:, 0]
    sig0 = model.sigma(0.0, x[:, None])[:, 0, 0]
    if not (
        np.array_equal(bvec, model.b(horizon, x[:, None])[:, 0])
        and np.array_equal(sig0, model.sigma(horizon, x[:, None])[:, 0, 0])
    ):
        raise ValueError(
            f"model '{model.name}' has time-dependent coefficients; "
            "the density solver freezes them at t=0"
        )
    avec = 0.5 * sig0**2

    # Row j of the generator acting on p (interior nodes only):
    #   lower: b_{j-1}/(2dx) + a_{j-1}/dx^2
    #   diag : -2 a_j/dx^2
    #   upper: -b_{j+1}/(2dx) + a_{j+1}/dx^2
    lower = bvec[:-2] / (2 * dx) + avec[:-2] / dx**2
    diag = -2.0 * avec[1:-1] / dx**2
    upper = -bvec[2:] / (2 * dx) + avec[2:] / dx**2

    p = np.exp(-0.5 * ((x - x0) / dx) ** 2)
    p /= np.trapezoid(p, x)
    p[0] = p[-1] = 0.0

    def apply_L(q):
        out = np.zeros_like(q)
        out[1:-1] = lower * q[:-2] + diag * q[1:-1] + upper * q[2:]
        return out

    def banded(theta):
        n = n_cells - 1
        ab = np.zeros((3, n))
        ab[0, 1:] = -theta * dt * upper[:-1]
        ab[1, :] = 1.0 - theta * dt * diag
        ab[2, :-1] = -theta * dt * lower[1:]
        return ab

    ab_cn = banded(0.5)
    ab_ie = banded(1.0)

    stored = [p.copy()]
    stored_t = [0.0]
    mass = [float(np.trapezoid(p, x))]
    n_startup = 4
    for step in range(n_steps):
        t = (step + 1) * dt
        if step < n_startup:
            rhs = p[1:-1]
            ab = ab_ie
        else:
            rhs = (p + 0.5 * dt * apply_L(p))[1:-1]
            ab = ab_cn
        p_new = np.zeros_like(p)
        p_new[1:-1] = solve_banded((1, 1), ab, rhs)
        neg = p_new < 0.0
        p_new[neg & (p_new >= -1e-12)] = 0.0
        p = p_new
        mval = float(np.trapezoid(p, x))
        if abs(mval - 1.0) > MASS_TOL:
            raise MassLeakageError(
                f"mass {mval:.6f} at t={t:.4f} (step {step + 1}) deviates from 1 by more "
                f"than {MASS_TOL}; widen the mesh [{x_min}, {x_max}] or refine the grid"
            )
        mass.append(mval)
        if store_stride and (step + 1) % store_stride == 0 and step + 1 != n_steps:
            stored.append(p.copy())
            stored_t.append(t)
    stored.append(p.copy())
    stored_t.append(horizon)
    return FokkerPlanckSolution(
        x=x, times=np.array(stored_t), p=np.array(stored), mass=np.array(mass)
    )


@dataclass
class DualityReport:
    """Monte Carlo integration-by-parts check E[X_T^i delta(u_k)] = delta_ik."""

    matrix: np.ndarray
    stderr: np.ndarray
    n_paths: int
    excluded: int
    max_z: float

    @property
    def ok(self) -> bool:
        return bool(self.max_z <= 3.0)


def duality_report(
    model: SdeModel,
    grid: TimeGrid,
    x0,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> DualityReport:
    """Estimate the duality matrix and its distance from the identity in SEs."""
    harvest = harvest_paths(model, grid, x0, n_paths, seed, workers=workers)
    ok = harvest.valid[:, 0]
    n_ok = int(ok.sum())
    if n_ok < 100:
        raise ValueError(f"only {n_ok} valid paths; duality estimate unreliable")
    delta = harvest.total[ok, 0]
    X = harvest.X_t[ok, 0]
    prod = X[:, :, None] * delta[:, None, :]
    est = prod.mean(axis=0)
    se = prod.std(axis=0, ddof=1) / math.sqrt(n_ok)
    dev = np.abs(est - np.eye(model.m))
    max_z = float((dev / se).max())
    return DualityReport(
        matrix=est, stderr=se, n_paths=n_paths, excluded=int(harvest.n_excluded[0]), max_z=max_z
    )
