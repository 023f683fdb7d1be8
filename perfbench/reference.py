"""Reference laws the benchmark checks pathscore's outputs against.

Everything here is computed apart from the program under test: a
Crank-Nicolson Fokker-Planck solve for the 1-D models, the Gaussian law of the
linear 2-D model from its Lyapunov equation, and the exact large-sample limits
of the two regression estimators (Nadaraya-Watson with a Gaussian kernel, and
k nearest neighbours) given a reference density. Nothing is imported from
pathscore.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm, solve_banded


def tanh_coefficients(theta: float, sigma0: float, alpha: float):
    """Drift and diffusion of dX = -theta X dt + sigma0 (1 + alpha tanh X) dB."""
    return (lambda x: -theta * x), (lambda x: sigma0 * (1.0 + alpha * np.tanh(x)))


def bounded_coefficients(k: float, a: float, sigma0: float):
    """Drift and diffusion of dX = -k u / (1 + u^2) dt + sigma0 dB, u = X - a."""
    return (lambda x: -k * (x - a) / (1.0 + (x - a) ** 2)), (lambda x: sigma0 + 0.0 * x)


def ou_coefficients(theta: float, sigma0: float):
    return (lambda x: -theta * x), (lambda x: sigma0 + 0.0 * x)


class Density1D:
    """Densities p(t_j, x) on a uniform x grid at the requested times."""

    def __init__(self, x: np.ndarray, times, dens: np.ndarray):
        self.x = x
        self.dx = float(x[1] - x[0])
        self.times = [float(t) for t in times]
        self.dens = dens  # (len(times), len(x))

    def at(self, t: float) -> np.ndarray:
        j = int(np.argmin([abs(t - s) for s in self.times]))
        if abs(self.times[j] - t) > 1e-9:
            raise KeyError(f"no reference density at t={t}")
        return self.dens[j]

    def score(self, t: float, y) -> np.ndarray:
        """d/dx log p at y, from central differences of p."""
        p = self.at(t)
        dp = np.gradient(p, self.dx)
        return np.interp(y, self.x, dp) / np.interp(y, self.x, p)

    def nw_limit(self, t: float, y, h: float) -> np.ndarray:
        """Score of p smoothed by a Gaussian kernel of bandwidth h.

        This is the large-sample limit of the Nadaraya-Watson estimate of
        -E[delta | X_t = y]: the kernel-weighted mean of p'/p equals
        (K_h * p)' / (K_h * p), and (K_h * p)' = K_h' * p needs no derivative
        of p.
        """
        p = self.at(t)
        u = (np.asarray(y, dtype=float)[:, None] - self.x[None, :]) / h
        w = np.exp(-0.5 * u * u) * p[None, :]
        return -(w * u).sum(axis=1) / (h * w.sum(axis=1))

    def knn_limit(self, t: float, y, frac: float) -> np.ndarray:
        """Large-sample limit of the k-nearest-neighbour mean of -delta.

        The k nearest of n samples fill the window [y - r, y + r] that holds
        probability frac = k / n; the mean of p'/p over that window is
        (p(y + r) - p(y - r)) / frac.
        """
        p = self.at(t)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * self.dx)])
        y = np.asarray(y, dtype=float)
        r = np.arange(0.0, self.x[-1] - self.x[0], self.dx / 4)
        mass = np.interp(y[:, None] + r, self.x, cdf) - np.interp(y[:, None] - r, self.x, cdf)
        out = np.empty(y.shape)
        for q in range(y.size):
            rq = np.interp(frac, mass[q], r)
            out[q] = (np.interp(y[q] + rq, self.x, p) - np.interp(y[q] - rq, self.x, p)) / frac
        return out


def fokker_planck_1d(
    drift,
    diffusion,
    x0: float,
    times,
    lo: float = -8.0,
    hi: float = 8.0,
    nx: int = 3201,
    tau: float = 2.0**-12,
) -> Density1D:
    """Law of dX = drift(X) dt + diffusion(X) dB from X_0 = x0.

    Conservative central differences in x, Crank-Nicolson in t with four
    backward-Euler half steps to damp the narrow start (Rannacher). The solve
    starts at t = tau from the Gaussian short-time law and needs every
    requested time to be a multiple of tau.
    """
    x = np.linspace(lo, hi, nx)
    dx = x[1] - x[0]
    b = drift(x)
    a = diffusion(x) ** 2
    # dp_i/dt = sum_j L[i, j] p_j, tridiagonal: flux form of -(b p)' + (a p)''/2
    lower = b[:-1] / (2 * dx) + a[:-1] / (2 * dx * dx)  # coefficient of p_{i-1}
    diag = -a / (dx * dx)
    upper = -b[1:] / (2 * dx) + a[1:] / (2 * dx * dx)  # coefficient of p_{i+1}

    def banded(c: float) -> np.ndarray:
        """Bands of I - c L for solve_banded."""
        ab = np.zeros((3, nx))
        ab[0, 1:] = -c * upper
        ab[1] = 1.0 - c * diag
        ab[2, :-1] = -c * lower
        return ab

    def apply(p: np.ndarray, c: float) -> np.ndarray:
        """(I + c L) p."""
        out = p + c * diag * p
        out[1:] += c * lower * p[:-1]
        out[:-1] += c * upper * p[1:]
        return out

    steps = []
    for t in times:
        k = t / tau
        if abs(k - round(k)) > 1e-9 or round(k) < 1:
            raise ValueError(f"time {t} is not a positive multiple of {tau}")
        steps.append(int(round(k)))
    b0, s0 = float(drift(np.array([x0]))[0]), float(diffusion(np.array([x0]))[0])
    mean, std = x0 + b0 * tau, s0 * math.sqrt(tau)
    p = np.exp(-0.5 * ((x - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))

    # I - (tau/2) L is both the Crank-Nicolson left side and a backward-Euler
    # half step; the first two steps are four such half steps.
    lhs = banded(tau / 2)
    out = np.empty((len(times), nx))
    done = 1
    for j in np.argsort(steps):
        while done < steps[j]:
            if done < 3:
                p = solve_banded((1, 1), lhs, solve_banded((1, 1), lhs, p))
            else:
                p = solve_banded((1, 1), lhs, apply(p, tau / 2))
            done += 1
        out[j] = p
    return Density1D(x, times, out)


def check_fokker_planck(tol: float = 2e-3) -> float:
    """Solve OU with this solver and compare with its closed-form score.

    Returns the largest score error over |y - mean| <= 3 std at several
    times, scaled by 1/std; raises if it exceeds tol.
    """
    theta, sigma0, x0 = 1.0, 1.0, 0.5
    times = [2.0**-5, 0.25, 1.0]
    drift, diffusion = ou_coefficients(theta, sigma0)
    sol = fokker_planck_1d(drift, diffusion, x0, times)
    worst = 0.0
    for t in times:
        mean = x0 * math.exp(-theta * t)
        var = sigma0**2 * (1.0 - math.exp(-2.0 * theta * t)) / (2.0 * theta)
        std = math.sqrt(var)
        y = mean + np.linspace(-3.0, 3.0, 61) * std
        err = np.abs(sol.score(t, y) + (y - mean) / var).max() * std
        worst = max(worst, float(err))
    if not worst <= tol:
        raise AssertionError(f"Fokker-Planck self-check failed: scaled score error {worst:.3e}")
    return worst


def linear_gaussian(A, Sigma, x0, t: float):
    """Mean and covariance at time t of dX = A X dt + Sigma dB, X_0 = x0.

    The covariance solves C' = A C + C A^T + Sigma Sigma^T, C(0) = 0; in
    vectorised form vec C(t) = K^{-1} (e^{K t} - I) vec(Sigma Sigma^T) with
    K = I (x) A + A (x) I.
    """
    A = np.asarray(A, dtype=float)
    S = np.asarray(Sigma, dtype=float)
    m = A.shape[0]
    K = np.kron(np.eye(m), A) + np.kron(A, np.eye(m))
    q = (S @ S.T).reshape(-1, order="F")
    vec = np.linalg.solve(K, (expm(K * t) - np.eye(m * m)) @ q)
    cov = vec.reshape(m, m, order="F")
    mean = expm(A * t) @ np.asarray(x0, dtype=float)
    return mean, 0.5 * (cov + cov.T)


def gaussian_nw_limit(mean, cov, h, y) -> np.ndarray:
    """Score of N(mean, cov) smoothed by a Gaussian product kernel: the
    smoothed law is N(mean, cov + diag(h^2))."""
    smoothed = np.asarray(cov) + np.diag(np.asarray(h, dtype=float) ** 2)
    return -np.linalg.solve(smoothed, (np.asarray(y) - mean).T).T
