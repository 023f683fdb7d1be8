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

Then gamma = Y_N Gamma Y_N^T, ito = F^T P and a = gamma^{-T} (Z_N : Gamma - Y_N A),
while b and c are F : sym(K) gamma^{-1}, with sym adding the transpose of K's
last two indices:

  K_b = (Z_N : B1 - Y_N B2) Y_N^T
  K_c = Z_N : (Gamma (x) Gamma - B1) Y_N^T - (Y_N (x) Y_N) : (Gamma . R_tot - C2)

(index order as in the einsums of _fold_step and _terms_at_node). The s >= t
sums of c are totals minus prefixes, so the assembly is O(N) per path; the
direct O(N^2) per-node formulas it reproduces live with the oracles. K_c
holds only because Yinv_s = Y_s^{-1} at the same node s; any other Yinv
(say Y_{s+1}^{-1}) changes the s >= t kernel, which must then be derived
again.

Nothing above depends on N being the last grid node: with any node n as the
terminal time, the sums run over steps 0..n-1. The Euler loop of
simulate_variation_batch therefore folds each step into the sums as it goes
(_fold_step, with O(m^4) state per path) and keeps them, with (Y, Z), at the
nodes it is asked for. On a model declared ``linear`` Z = 0 and
dsigma = 0, so R_n = 0 and B1 multiplies only Z: P and Gamma are the only
sums kept, and a, b and c are exact zeros. skorokhod_batch only
contracts the sums kept at each requested node n with (Y_n, Z_n) and
gamma = Y_n Gamma Y_n^T, every node in one pass over (node, path) rows in
blocks of _BLOCK rows times m^4 (one node at least), each contraction an
einsum. At m = 1 gamma is inverted as a reciprocal: untraced, with 4096 paths
on 2 shared cores, skorokhod_batch took 3-4.5 ms (tanh, 8 nodes), 7-9 ms
(bounded, 32) and 3.5-4.5 ms (OU, 32), against 8-9, 22 and 19.5 ms via LAPACK.
One simulation to the last requested node serves every earlier one, and no
per-step array of the whole path is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .models import SdeModel
    from .paths import TrajectoryBatch

# Paths whose Gram matrix has a condition number at or above this are singular.
COND_LIMIT = 1e8
# At most this many rows times m^4 per skorokhod_batch block, whatever the node count.
_BLOCK = 2**14


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


def _invert_gram(gamma: np.ndarray, usable: np.ndarray):
    """Condition numbers, singular flags and inverses of a stack of Gram matrices.

    The condition number of the symmetric gamma is max|lambda| / min|lambda|
    over its eigenvalues; a zero eigenvalue makes it inf. A
    matrix is singular when its path is not usable, it is non-finite, or its
    condition number is at or above COND_LIMIT; its inverse is nan. At m = 1
    that is cond 1 and the reciprocal, or cond inf when gamma is zero.
    """
    if gamma.shape[-1] == 1:
        g = gamma[:, 0, 0]
        ok = usable & np.isfinite(g) & (g != 0.0)
        gamma_inv = np.divide(1.0, g, out=np.full_like(g, np.nan), where=ok)
        return np.where(ok, 1.0, np.inf), ~ok, gamma_inv[:, None, None]
    finite = np.all(np.isfinite(gamma), axis=(1, 2)) & usable
    cond = np.full(gamma.shape[0], np.inf)
    if np.any(finite):
        lam = np.abs(np.linalg.eigvalsh(gamma[finite]))
        lo, hi = lam.min(axis=1), lam.max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond[finite] = np.where(lo > 0, hi / lo, np.inf)
    singular = ~finite | ~np.isfinite(cond) | (cond >= COND_LIMIT)

    gamma_solve = gamma.copy()
    gamma_solve[singular] = np.eye(gamma.shape[-1])
    gamma_inv = np.linalg.inv(gamma_solve)
    gamma_inv[singular] = np.nan
    return cond, singular, gamma_inv


def compute_bundle_batch(batch: TrajectoryBatch) -> BundleBatch:
    """Sensitivity tables, Gram matrix and its inverse for a block of paths.

    Needs the batch at every grid node (simulated without ``nodes``).
    """
    N, dt = batch.grid.steps, batch.grid.dt
    if len(batch.nodes) != N + 1:
        raise ValueError("compute_bundle_batch needs a batch kept at every grid node")
    YN = batch.Y[:, N]

    sig = batch.model.sigma(batch.grid.nodes()[None, :N], batch.X[:, :N])
    V = np.einsum("bnij,bnjl->bnil", batch.Yinv[:, :N], sig)
    W = np.einsum("bij,bnjl->bnil", YN, V)
    gamma = dt * np.einsum("bnil,bnjl->bij", W, W)
    cond, singular, gamma_inv = _invert_gram(gamma, batch.valid)
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


def _zero_sums(model: SdeModel, B: int) -> dict:
    """The running sums over no steps: all seven, or P and Gam on a ``linear`` model.

    There R_n (summed into A, R_tot, B2 and C2) and Z (B1's only factor) are zero.
    """
    ranks = dict(P=1, Gam=2)
    if not model.linear:
        ranks.update(B1=4, A=1, R_tot=3, B2=3, C2=3)
    return {name: np.zeros((B,) + (model.m,) * rank) for name, rank in ranks.items()}


def _fold_step(sums: dict, dt: float, yinv, sig, z, dsY, dW) -> None:
    """Add Euler step n to the running sums of _zero_sums, in place.

    yinv, sig and z are Yinv_n, sigma_n and Z_n at the left node, dsY is
    dsigma_n . Y_n and dW the increment of the step. With only P and Gam
    kept (a ``linear`` model) z and dsY are not read.
    """
    V = np.einsum("bij,bjl->bil", yinv, sig)
    S = dt * np.einsum("bjl,bql->bjq", V, V)
    sums["P"] += np.einsum("bil,bl->bi", V, dW)
    if "R_tot" in sums:
        sums["B1"] += np.einsum("bjy,bxe->bjyxe", S, sums["Gam"])
        R = np.einsum("bri,bieq,bjq->bjre", yinv, z, S)
        # Two fixed pairwise steps: dsigma . Y (already formed for the Y
        # update) with Yinv, then with V.
        R -= dt * np.einsum("bjl,blre->bjre", V, np.einsum("bri,blie->blre", yinv, dsY))
        sums["A"] += np.einsum("bjrj->br", R)
        sums["B2"] += np.einsum("bjrx,bxe->bjre", R, sums["Gam"])
        sums["C2"] += np.einsum("bjr,bexr->bjex", S, sums["R_tot"])
        sums["R_tot"] += R
    sums["Gam"] += S


def skorokhod_batch(batch: TrajectoryBatch, nodes=None) -> dict:
    """Anticipating integrals for all covering directions, at each requested node.

    ``nodes`` are grid indices in [1, N] that the batch was kept at, in any
    order and possibly repeated; the default is the last node N. Node n
    takes t_n as the terminal time, using only the steps before it. The
    returned arrays carry a node axis in the order of ``nodes``:

      ito, a, b, c, total   (B, K, m), total = ito - a + b + c
      cond                  (B, K) condition number of gamma at the node
      finite                (B, K) the path is finite at every node up to n
      singular              (B, K) finite, but gamma is near-singular at n
                            (or an integral overflowed there)

    The integrals of paths that are not finite or singular are nan. The
    running sums come from the simulation, which keeps only P and Gamma on
    a ``linear`` model.
    """
    grid = batch.grid
    wanted = [grid.steps] if nodes is None else [int(n) for n in nodes]
    if not wanted or min(wanted) < 1 or max(wanted) > grid.steps:
        raise ValueError(f"nodes must lie in [1, {grid.steps}], got {nodes}")
    # A set, not np.setdiff1d, which would import numpy.ma into the request.
    missing = sorted(set(wanted) - set(batch.nodes.tolist()))
    if missing:
        raise ValueError(f"nodes {missing} were not kept by the simulation")
    cols = np.searchsorted(batch.nodes, wanted)
    B, K = batch.n_paths, len(cols)
    step = max(1, _BLOCK // max(1, B * batch.model.m**4))
    kept = dict(Yn=batch.Y, Zn=batch.Z, finite=batch.finite, **batch.sums)
    out = {}
    # Paths that are not finite carry nan or inf through the einsums and are
    # masked in _terms_at_node; silence the arithmetic warnings they trigger.
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, K, step):
            sel = cols[lo : lo + step]
            # The block's node columns, copied once into contiguous (node, path) rows.
            rows = {k: a.swapaxes(0, 1)[sel].reshape((-1,) + a.shape[2:]) for k, a in kept.items()}
            for key, v in _terms_at_node(**rows).items():
                v = v.reshape((len(sel), B) + v.shape[1:])
                out.setdefault(key, np.empty((K,) + v.shape[1:], v.dtype))[lo : lo + step] = v
    return {key: v.swapaxes(0, 1) for key, v in out.items()}


def _terms_at_node(Yn, Zn, finite, P, Gam, A=None, R_tot=None, B1=None, B2=None, C2=None) -> dict:
    """Contract the running sums with (Y_n, Z_n) and gamma, one row per (node, path).

    Without the sums of R_n and B1 (a ``linear`` model, where they are zero),
    a, b and c are exact zeros.
    """
    gamma = np.einsum("bpx,bxy,bqy->bpq", Yn, Gam, Yn)
    cond, singular, gi = _invert_gram(gamma, finite)
    F = np.einsum("bji,bjk->bik", Yn, gi)
    ito = np.einsum("bik,bi->bk", F, P)
    if R_tot is None:
        a, b, c = (np.zeros_like(ito) for _ in range(3))
    else:
        # a_vec, and the kernels K[j, p, q] of the s < t (b) and s >= t (c)
        # parts of D gamma: the Z_n terms minus the R_n terms.
        a_vec = np.einsum("bpxy,bxy->bp", Zn, Gam) - np.einsum("bpr,br->bp", Yn, A)
        Kb = np.einsum("bpxy,bjyxe->bjpe", Zn, B1) - np.einsum("bpr,bjre->bjpe", Yn, B2)
        GG = np.einsum("bjy,bxe->bjyxe", Gam, Gam) - B1
        GR = np.einsum("bjr,bexr->bjex", Gam, R_tot) - C2
        Kc = np.einsum("bpxy,bjyxe,bqe->bjpq", Zn, GG, Yn) - np.einsum(
            "bpx,bqe,bjex->bjpq", Yn, Yn, GR
        )
        a = np.einsum("bp,bpk->bk", a_vec, gi)
        Kb = np.einsum("bjpe,bqe->bjpq", Kb, Yn)
        b = np.einsum("bja,bjaq,bqk->bk", F, Kb + np.swapaxes(Kb, -1, -2), gi)
        c = np.einsum("bja,bjaq,bqk->bk", F, Kc + np.swapaxes(Kc, -1, -2), gi)

    total = ito - a + b + c
    # On an extreme path a finite gamma can still leave an integral overflowed;
    # such a path is excluded with the singular ones.
    singular |= ~np.all(np.isfinite(total), axis=1)
    for arr in (ito, a, b, c, total):
        arr[singular] = np.nan
    return dict(
        ito=ito, a=a, b=b, c=c, total=total, cond=cond, finite=finite, singular=singular & finite
    )
