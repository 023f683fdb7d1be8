"""Coefficient models for Ito diffusions dX_t = b(t, X_t) dt + sigma(t, X_t) dB_t.

Array layout conventions, with arbitrary leading batch axes on ``x``:

==========  =================  ==========================================
quantity    shape              meaning
==========  =================  ==========================================
b           (..., m)           drift vector
sigma       (..., m, d)        diffusion matrix, d noise channels
db          (..., m, m)        db[i, j] = d b^i / d x_j
dsigma      (..., d, m, m)     dsigma[l, i, j] = d sigma^{i l} / d x_j
d2b         (..., m, m, m)     d2b[i, p, q] = d^2 b^i / d x_p d x_q
d2sigma     (..., d, m, m, m)  d2sigma[l, i, p, q]
==========  =================  ==========================================

Evaluators are pure functions of (t, x) and broadcast over the batch axes.
``t`` may be a scalar or an array broadcastable against ``x.shape[:-1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class SdeModel:
    """An SDE coefficient bundle with first and second state derivatives."""

    name: str
    m: int
    d: int
    params: dict
    b: Callable
    sigma: Callable
    db: Callable
    dsigma: Callable
    d2b: Callable
    d2sigma: Callable
    state_independent_diffusion: bool = False
    # b and sigma are affine in x (d2b = d2sigma = 0), so the second
    # variation Z stays 0 and its terms are skipped. With
    # state_independent_diffusion also set the model is ``linear``.
    affine_coefficients: bool = False

    @property
    def linear(self) -> bool:
        """Both flags set: b = A(t) x + c(t) and sigma = Sigma(t).

        Y is then deterministic, from db read at the origin (db must not
        depend on x), and the law from a point start is Gaussian.
        """
        return self.affine_coefficients and self.state_independent_diffusion


def _bcast(const: np.ndarray, x: np.ndarray, trailing: int) -> np.ndarray:
    """Broadcast a constant coefficient over the batch axes of x.

    ``trailing`` is the number of trailing non-batch axes of ``const``.
    Returns a read-only view; evaluator outputs are never written to.
    """
    batch = x.shape[:-1]
    return np.broadcast_to(const, batch + const.shape[-trailing:] if trailing else batch)


def _zeros_like_batch(x: np.ndarray, shape: tuple) -> np.ndarray:
    return np.broadcast_to(np.zeros(shape), x.shape[:-1] + shape)


def _linear(name: str, A, Sigma, params: dict) -> SdeModel:
    """Linear drift b = A x with constant diffusion matrix Sigma (m x d)."""
    A, Sigma = np.asarray(A, dtype=float), np.asarray(Sigma, dtype=float)
    m, d = Sigma.shape
    return SdeModel(
        name=name,
        m=m,
        d=d,
        params=params,
        b=lambda t, x: np.einsum("ij,...j->...i", A, x),
        sigma=lambda t, x: _bcast(Sigma, x, 2),
        db=lambda t, x: _bcast(A, x, 2),
        dsigma=lambda t, x: _zeros_like_batch(x, (d, m, m)),
        d2b=lambda t, x: _zeros_like_batch(x, (m, m, m)),
        d2sigma=lambda t, x: _zeros_like_batch(x, (d, m, m, m)),
        state_independent_diffusion=True,
        affine_coefficients=True,
    )


def ornstein_uhlenbeck(theta: float = 1.0, sigma0: float = 1.0) -> SdeModel:
    """Linear drift -theta*x with constant scalar diffusion, m = d = 1."""
    theta, sigma0 = float(theta), float(sigma0)
    return _linear("ornstein_uhlenbeck", [[-theta]], [[sigma0]], {"theta": theta, "sigma0": sigma0})


def bounded_nonlinear_drift(k: float = 1.0, a: float = 0.0, sigma0: float = 1.0) -> SdeModel:
    """Drift -k*u/(1+u^2), u = x - a: bounded, C^2-bounded, nonconvex tails."""
    k, a, sigma0 = float(k), float(a), float(sigma0)
    sig = np.array([[sigma0]])

    def b(t, x):
        u = x - a
        return -k * u / (1.0 + u * u)

    def db(t, x):
        u = x - a
        return (-k * (1.0 - u * u) / (1.0 + u * u) ** 2)[..., None]

    def d2b(t, x):
        u = x - a
        return (-2.0 * k * u * (u * u - 3.0) / (1.0 + u * u) ** 3)[..., None, None]

    return SdeModel(
        name="bounded_nonlinear_drift",
        m=1,
        d=1,
        params={"k": k, "a": a, "sigma0": sigma0},
        b=b,
        sigma=lambda t, x: _bcast(sig, x, 2),
        db=db,
        dsigma=lambda t, x: _zeros_like_batch(x, (1, 1, 1)),
        d2b=d2b,
        d2sigma=lambda t, x: _zeros_like_batch(x, (1, 1, 1, 1)),
        state_independent_diffusion=True,
    )


def state_dependent_tanh(theta: float = 1.0, sigma0: float = 1.0, alpha: float = 0.5) -> SdeModel:
    """Linear drift with smooth state-dependent diffusion sigma0*(1 + alpha*tanh x).

    Uniformly elliptic for |alpha| < 1.
    """
    theta, sigma0, alpha = float(theta), float(sigma0), float(alpha)
    if not abs(alpha) < 1.0:
        raise ValueError("need |alpha| < 1 for uniform ellipticity")
    dbm = np.array([[-theta]])

    def sigma(t, x):
        return (sigma0 * (1.0 + alpha * np.tanh(x)))[..., None]

    def dsigma(t, x):
        th = np.tanh(x)
        return (sigma0 * alpha * (1.0 - th * th))[..., None, None]

    def d2sigma(t, x):
        th = np.tanh(x)
        return (-2.0 * sigma0 * alpha * th * (1.0 - th * th))[..., None, None, None]

    return SdeModel(
        name="state_dependent_tanh",
        m=1,
        d=1,
        params={"theta": theta, "sigma0": sigma0, "alpha": alpha},
        b=lambda t, x: -theta * x,
        sigma=sigma,
        db=lambda t, x: _bcast(dbm, x, 2),
        dsigma=dsigma,
        d2b=lambda t, x: _zeros_like_batch(x, (1, 1, 1)),
        d2sigma=d2sigma,
        state_independent_diffusion=False,
    )


_LINEAR_A_DEFAULT = [[-1.0, 0.3], [-0.2, -0.8]]
_LINEAR_SIGMA_DEFAULT = [[0.8, 0.1], [0.0, 0.7]]


def linear_multidim(A=None, Sigma=None) -> SdeModel:
    """Linear drift b = A x with constant full diffusion matrix, m = d = 2."""
    A = np.array(_LINEAR_A_DEFAULT if A is None else A, dtype=float)
    Sigma = np.array(_LINEAR_SIGMA_DEFAULT if Sigma is None else Sigma, dtype=float)
    if A.shape != (2, 2) or Sigma.shape != (2, 2):
        raise ValueError("linear_multidim expects 2x2 matrices A and Sigma")
    return _linear("linear_multidim", A, Sigma, {"A": A.tolist(), "Sigma": Sigma.tolist()})


BUILTIN_MODELS = {
    "ornstein_uhlenbeck": ornstein_uhlenbeck,
    "bounded_nonlinear_drift": bounded_nonlinear_drift,
    "state_dependent_tanh": state_dependent_tanh,
    "linear_multidim": linear_multidim,
}


def make_model(name: str, params: dict | None = None) -> SdeModel:
    """Build a registered model by name; unknown names list the registry."""
    if name not in BUILTIN_MODELS:
        known = ", ".join(sorted(BUILTIN_MODELS))
        raise ValueError(f"unknown model '{name}'; builtins: {known}")
    try:
        return BUILTIN_MODELS[name](**(params or {}))
    except TypeError as exc:
        raise ValueError(f"bad parameters for model '{name}': {exc}") from exc


def divergence_sigma_sigma_T(model: SdeModel, t, x, sig) -> np.ndarray:
    """Row divergence of sigma sigma^T: out[i] = sum_j d_{x_j} (sigma sigma^T)_{ij}.

    sig is model.sigma(t, x), which the caller has already evaluated.
    Appears in the drift of the reverse-time equation; identically zero for
    state-independent diffusion.
    """
    x = np.asarray(x, dtype=float)
    if model.state_independent_diffusion:
        return np.zeros(x.shape[:-1] + (model.m,))
    dsig = model.dsigma(t, x)
    term1 = np.einsum("...lij,...jl->...i", dsig, sig)
    term2 = np.einsum("...il,...ljj->...i", sig, dsig)
    return term1 + term2


@dataclass(frozen=True)
class DerivativeReport:
    """Result of the central-difference self-check of model derivatives."""

    max_rel_error: dict
    flagged: list
    n_points: int
    step: float
    tol: float

    @property
    def ok(self) -> bool:
        return not self.flagged


def check_derivatives(model: SdeModel, seed: int = 0) -> DerivativeReport:
    """Compare analytic derivatives against central differences at 100 random states.

    db and dsigma are differenced from b and sigma; d2b and d2sigma are
    differenced from the analytic db and dsigma (second differences of the
    raw coefficients would lose too many digits at step 1e-5). Relative
    error uses max(1, |analytic|, |fd|) in the denominator. Entries whose
    max relative error exceeds 1e-4 are flagged, never raised. States are
    drawn from [-2, 2]^m.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    n_points, step, tol = 100, 1e-5, 1e-4
    x = rng.uniform(-2.0, 2.0, size=(n_points, model.m))
    t = rng.uniform(0.0, 1.0, size=(n_points,))
    m = model.m

    fd_db = np.empty((n_points, m, m))
    fd_dsig = np.empty((n_points, model.d, m, m))
    fd_d2b = np.empty((n_points, m, m, m))
    fd_d2sig = np.empty((n_points, model.d, m, m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = step
        xp, xm = x + e, x - e
        fd_db[:, :, j] = (model.b(t, xp) - model.b(t, xm)) / (2 * step)
        # sigma has shape (n, m, d); dsigma layout is (n, d, m, j)
        dsg = (model.sigma(t, xp) - model.sigma(t, xm)) / (2 * step)
        fd_dsig[:, :, :, j] = np.swapaxes(dsg, -1, -2)
        fd_d2b[:, :, :, j] = (model.db(t, xp) - model.db(t, xm)) / (2 * step)
        fd_d2sig[:, :, :, :, j] = (model.dsigma(t, xp) - model.dsigma(t, xm)) / (2 * step)

    def rel(ana, fd):
        scale = np.maximum(1.0, np.maximum(np.abs(ana), np.abs(fd)))
        return float(np.max(np.abs(ana - fd) / scale)) if ana.size else 0.0

    errs = {
        "db": rel(model.db(t, x), fd_db),
        "dsigma": rel(model.dsigma(t, x), fd_dsig),
        "d2b": rel(model.d2b(t, x), fd_d2b),
        "d2sigma": rel(model.d2sigma(t, x), fd_d2sig),
    }
    flagged = sorted(name for name, v in errs.items() if v > tol)
    return DerivativeReport(max_rel_error=errs, flagged=flagged, n_points=n_points, step=step, tol=tol)
