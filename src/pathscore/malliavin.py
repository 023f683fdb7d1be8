"""Pathwise derivative tables and the anticipating integral behind the score.

Built from a simulated trajectory (X, Y, Yinv, Z) on a uniform grid:

  W_i  = Y_N Yinv_i sigma_i          sensitivity of X_T to dB_i      (m, d)
  gamma = sum_i W_i W_i^T dt         terminal sensitivity Gram matrix (m, m)
  u_k(i) = sigma_i^T Yinv_i^T F_k    covering field, F_k = Y_N^T gamma^{-1} e_k

The anticipating integral of u_k splits into an Ito part evaluated at the
frozen vector F_k minus a correction that accounts for F_k itself depending
on the whole path. The correction has three pieces (breakdown fields a, b, c):

  a: from the path-derivative of Y_N^T  (the omega kernel)
  b: from the path-derivative of gamma restricted to s < t
  c: from the path-derivative of gamma restricted to s >= t

  total = ito - a + b + c

All quadratures are left-point sums over nodes 0..N-1, matching the Euler
scheme. The batched assembly runs in O(N) per path by pre-accumulating
prefix/suffix sums in which the t-dependence of the two-time kernels has
been factored out; the direct O(N^2) per-node formulas it reproduces live
with the oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import TrajectoryBatch

# Paths whose Gram matrix has a condition number at or above this are singular.
COND_LIMIT = 1e8


@dataclass
class BundleBatch:
    """Per-path sensitivity tables for a trajectory block.

    V and W have shape (B, N, m, d): row i is V_i = Yinv_i sigma_i and
    W_i = Y_N V_i at the left node i. F has shape (B, m, m) with columns
    F[:, k]. Paths whose gamma is near-singular (condition number >=
    COND_LIMIT) or non-finite are flagged in ``singular`` and their inverse
    entries are unusable.
    """

    gamma: np.ndarray
    gamma_inv: np.ndarray
    cond: np.ndarray
    V: np.ndarray
    W: np.ndarray
    F: np.ndarray
    singular: np.ndarray


def _left_eval(batch: TrajectoryBatch, what: str) -> np.ndarray:
    """Evaluate a model coefficient at all left nodes, shape (B, N, ...)."""
    N = batch.grid.steps
    t_left = batch.grid.nodes()[:N]
    fn = getattr(batch.model, what)
    return fn(t_left[None, :], batch.X[:, :N])


def compute_bundle_batch(batch: TrajectoryBatch) -> BundleBatch:
    """Sensitivity tables, Gram matrix and its inverse for a block of paths."""
    grid = batch.grid
    N, m, dt = grid.steps, batch.model.m, grid.dt
    YN = batch.Y[:, N]

    sig_left = _left_eval(batch, "sigma")
    V = np.einsum("bnij,bnjl->bnil", batch.Yinv[:, :N], sig_left)
    W = np.einsum("bij,bnjl->bnil", YN, V)
    gamma = dt * np.einsum("bnil,bnjl->bij", W, W)

    finite = np.all(np.isfinite(gamma), axis=(1, 2)) & batch.valid
    cond = np.full(batch.n_paths, np.inf)
    if np.any(finite):
        cond[finite] = np.linalg.cond(gamma[finite])
    singular = ~finite | ~np.isfinite(cond) | (cond >= COND_LIMIT)

    gamma_solve = gamma.copy()
    gamma_solve[singular] = np.eye(m)
    gamma_inv = np.linalg.inv(gamma_solve)
    gamma_inv[singular] = np.nan

    F = np.einsum("bji,bjk->bik", YN, gamma_inv)
    return BundleBatch(
        gamma=gamma,
        gamma_inv=gamma_inv,
        cond=cond,
        V=V,
        W=W,
        F=F,
        singular=singular,
    )


def _correction_arrays(batch: TrajectoryBatch, bundle: BundleBatch, prune: bool = False) -> dict:
    """Shared O(N)-per-path arrays for the correction terms.

    With ``prune`` the diffusion-derivative terms are skipped entirely; for
    state-independent models they are exact zeros, so pruned and unpruned
    assemblies agree bitwise.

    Keys: Om, M (B,N,d,m,m); Glow, Gup (B,N,m,m); Hup (B,N,m,m,m);
    Eup (B,N,m,m,m,m).
    """
    grid = batch.grid
    N, dt = grid.steps, grid.dt
    Yl, Yinvl, Zl = batch.Y[:, :N], batch.Yinv[:, :N], batch.Z[:, :N]
    YN, ZN = batch.Y[:, N], batch.Z[:, N]
    V, W = bundle.V, bundle.W

    # Omega: channel-l derivative of Y_N through node n.
    Zv_N = np.einsum("bipq,bnql->bnlip", ZN, V)
    Zv_t = np.einsum("bnipq,bnql->bnlip", Zl, V)
    YNYinv = np.einsum("bij,bnjr->bnir", YN, Yinvl)
    Om = Zv_N - np.einsum("bnir,bnlrp->bnlip", YNYinv, Zv_t)
    M = np.einsum("bnij,bnjpq,bnql->bnlip", Yinvl, Zl, V)
    T = -np.einsum("bnij,bnjpq,bnpc->bnicq", Yinvl, Zl, V)
    if not prune:
        dsig_left = _left_eval(batch, "dsigma")
        Om = Om + np.einsum("bnir,bnlrs,bnsp->bnlip", YNYinv, dsig_left, Yl)
        M = M - np.einsum("bnij,bnljk,bnkq->bnliq", Yinvl, dsig_left, Yl)
        T = T + np.einsum("bnij,bncjk,bnkq->bnicq", Yinvl, dsig_left, Yl)

    # Two-time kernels factor into (s-local) x (t-local) pieces; accumulate
    # the s-sums once. G_s = V_s W_s^T; H carries the Z_s/dsigma_s response;
    # E carries the sandwich Y_N Yinv_s Y_s (x) G_s applied to M at t.
    G = np.einsum("bnal,bnql->bnaq", V, W)
    Gc = np.cumsum(G, axis=1) * dt
    Glow = Gc - G * dt
    Gup = Gc[:, N - 1 : N] - Glow

    YNT = np.einsum("bip,bnpcq->bnicq", YN, T)
    H = np.einsum("bnpcr,bnqc->bnpqr", YNT, W)
    Hc = np.cumsum(H, axis=1) * dt
    Hup = Hc[:, N - 1 : N] - (Hc - H * dt)

    S = np.einsum("bnia,bnar->bnir", YNYinv, Yl)  # Y_N Yinv_s Y_s
    E = np.einsum("bnia,bnxq->bniaxq", S, G)
    Ec = np.cumsum(E, axis=1) * dt
    Eup = Ec[:, N - 1 : N] - (Ec - E * dt)

    return {"Om": Om, "M": M, "Glow": Glow, "Gup": Gup, "Hup": Hup, "Eup": Eup}


def skorokhod_batch(batch: TrajectoryBatch, bundle: BundleBatch, prune: bool = False) -> dict:
    """Anticipating integrals for all covering directions on a path block.

    Returns arrays of shape (B, m): ito, a, b, c, total with
    total = ito - a + b + c. Entries for singular/invalid paths are nan.
    ``prune`` skips the diffusion-derivative terms, which vanish only for
    state-independent diffusion; other models refuse it.
    """
    if prune and not batch.model.state_independent_diffusion:
        raise ValueError(
            f"model '{batch.model.name}' has state-dependent diffusion; use the general form"
        )
    grid = batch.grid
    N, dt = grid.steps, grid.dt
    gi = bundle.gamma_inv
    F = bundle.F

    # Invalid/singular paths carry nan or inf through the einsums and are
    # masked below; silence the arithmetic warnings they would trigger.
    with np.errstate(invalid="ignore", over="ignore"):
        parts = _correction_arrays(batch, bundle, prune=prune)
        V, Om, M = bundle.V, parts["Om"], parts["M"]

        v_ito = np.einsum("bnil,bnl->bi", V, batch.dB)
        ito = np.einsum("bik,bi->bk", F, v_ito)

        a = dt * np.einsum("bnjl,bnlpj,bpk->bk", V, Om, gi)

        lower = np.einsum("bnlpa,bnaq->bnlpq", Om, parts["Glow"])
        lower = lower + np.swapaxes(lower, -1, -2)

        upper = (
            np.einsum("bnlpa,bnaq->bnlpq", Om, parts["Gup"])
            + np.einsum("bniaxq,bnlax->bnliq", parts["Eup"], M)
            + np.einsum("bnpqr,bnrl->bnlpq", parts["Hup"], V)
        )
        upper = upper + np.swapaxes(upper, -1, -2)

        VF = np.einsum("bnjl,bja->bnal", V, F)
        b = dt * np.einsum("bnal,bnlaq,bqk->bk", VF, lower, gi)
        c = dt * np.einsum("bnal,bnlaq,bqk->bk", VF, upper, gi)

        total = ito - a + b + c
    bad = bundle.singular | ~batch.valid
    for arr in (ito, a, b, c, total):
        arr[bad] = np.nan
    return {"ito": ito, "a": a, "b": b, "c": c, "total": total}
