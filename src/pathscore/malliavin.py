"""Pathwise derivative tables and the anticipating integral behind the score.

Built from a simulated trajectory (X, Y, Yinv, Z) on a uniform grid:

  V_i  = Yinv_i sigma_i              noise loading at node i          (m, d)
  W_i  = Y_N V_i                     sensitivity of X_T to dB_i      (m, d)
  gamma = sum_i W_i W_i^T dt         terminal sensitivity Gram matrix (m, m)
  u_k(i) = sigma_i^T Yinv_i^T F_k    covering field, F_k = Y_N^T gamma^{-1} e_k

The anticipating integral of u_k splits into an Ito part evaluated at the
frozen vector F_k minus a correction that accounts for F_k itself depending
on the whole path. The correction has three pieces (breakdown fields a, b, c):

  a: from the path-derivative of Y_N^T
  b: from the path-derivative of gamma restricted to s < t
  c: from the path-derivative of gamma restricted to s >= t

  total = ito - a + b + c

All quadratures are left-point sums over nodes 0..N-1, matching the Euler
scheme. Every term contracts (Y_N, Z_N, F, gamma^{-1}) with a few per-path
sums of two per-step tensors, dt included,

  S_n = V_n V_n^T dt                                   (m, m)
  R_n[j, r, e] = sum_l V_n[j, l] M_n[l, r, e] dt        (m, m, m)

where M_n[l] = Yinv_n (Z_n V_n^l - dsigma_n^l Y_n) is the response at node n
to noise channel l, and of their exclusive prefix sums Gamma_<n = sum_{s<n} S_s
and R_<n = sum_{s<n} R_s:

  P = sum_n V_n dB_n,   Gamma = sum_n S_n,   R_tot = sum_n R_n,
  A_r = sum_n sum_j R_n[j, r, j],
  B1 = sum_n S_n (x) Gamma_<n,   B2 = sum_n R_n . Gamma_<n,   C2 = sum_n S_n . R_<n.

Then ito = F^T P and a = gamma^{-T} (Z_N : Gamma - Y_N A), while b and c are
F : sym(K) gamma^{-1}, with sym adding the transpose of K's last two indices:

  K_b = (Z_N : B1 - Y_N B2) Y_N^T
  K_c = Z_N : (Gamma (x) Gamma - B1) Y_N^T - (Y_N (x) Y_N) : (Gamma . R_tot - C2)

(index order as in the einsums of skorokhod_batch). The s >= t sums of c are
totals minus prefixes, so the assembly is O(N) per path; the direct O(N^2)
per-node formulas it reproduces live with the oracles. K_c holds only because
Yinv_s = Y_s^{-1} at the same node s; any other Yinv (say Y_{s+1}^{-1})
changes the s >= t kernel, which must then be derived again.
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


def _prefix_sums(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exclusive prefix sums over the step axis (axis 1), and the total."""
    before = np.zeros_like(a)
    np.cumsum(a[:, :-1], axis=1, out=before[:, 1:])
    return before, before[:, -1] + a[:, -1]


def skorokhod_batch(batch: TrajectoryBatch, bundle: BundleBatch) -> dict:
    """Anticipating integrals for all covering directions on a path block.

    Returns arrays of shape (B, m): ito, a, b, c, total with
    total = ito - a + b + c. Entries for singular/invalid paths are nan.
    The diffusion-derivative terms are skipped exactly when the model is
    flagged ``state_independent_diffusion``.
    """
    grid = batch.grid
    N, dt = grid.steps, grid.dt
    gi, F, V = bundle.gamma_inv, bundle.F, bundle.V
    Yinvl = batch.Yinv[:, :N]
    YN, ZN = batch.Y[:, N], batch.Z[:, N]

    # Invalid/singular paths carry nan or inf through the einsums and are
    # masked below; silence the arithmetic warnings they would trigger.
    with np.errstate(invalid="ignore", over="ignore"):
        v_ito = np.einsum("bnil,bnl->bi", V, batch.dB)
        ito = np.einsum("bik,bi->bk", F, v_ito)

        # Per-step tensors, dt included: S_n = V_n V_n^T and R_n = V_n M_n.
        S = dt * np.einsum("bnjl,bnql->bnjq", V, V)
        R = np.einsum("bnri,bnieq,bnjq->bnjre", Yinvl, batch.Z[:, :N], S)
        if not batch.model.state_independent_diffusion:
            dsig = _left_eval(batch, "dsigma")
            R -= dt * np.einsum("bnjl,bnri,bnlik,bnke->bnjre", V, Yinvl, dsig, batch.Y[:, :N])
            del dsig
        Gam_before, Gam = _prefix_sums(S)
        R_before, R_tot = _prefix_sums(R)

        A = np.einsum("bnjrj->br", R)
        B1 = np.einsum("bnjy,bnxe->bjyxe", S, Gam_before)
        B2 = np.einsum("bnjrx,bnxe->bjre", R, Gam_before)
        C2 = np.einsum("bnjr,bnexr->bjex", S, R_before)

        a_vec = np.einsum("bpxy,bxy->bp", ZN, Gam) - np.einsum("bpr,br->bp", YN, A)
        a = np.einsum("bp,bpk->bk", a_vec, gi)

        # Kernels K[j, p, q] of the s < t (b) and s >= t (c) parts of D gamma.
        Kb = np.einsum("bpxy,bjyxe->bjpe", ZN, B1) - np.einsum("bpr,bjre->bjpe", YN, B2)
        Kb = np.einsum("bjpe,bqe->bjpq", Kb, YN)
        GG = np.einsum("bjy,bxe->bjyxe", Gam, Gam) - B1
        GR = np.einsum("bjr,bexr->bjex", Gam, R_tot) - C2
        Kc = np.einsum("bpxy,bjyxe,bqe->bjpq", ZN, GG, YN) - np.einsum(
            "bpx,bqe,bjex->bjpq", YN, YN, GR
        )
        b = np.einsum("bja,bjaq,bqk->bk", F, Kb + np.swapaxes(Kb, -1, -2), gi)
        c = np.einsum("bja,bjaq,bqk->bk", F, Kc + np.swapaxes(Kc, -1, -2), gi)

        total = ito - a + b + c
    bad = bundle.singular | ~batch.valid
    for arr in (ito, a, b, c, total):
        arr[bad] = np.nan
    return {"ito": ito, "a": a, "b": b, "c": c, "total": total}
