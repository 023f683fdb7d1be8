"""Tests for the independent numerical oracles.

The oracles cross-check the pathwise machinery from three directions:
bump-and-resimulate differences, a deterministic density PDE solve, and
sample-based kernel density scores.  Each oracle is itself pinned here
against exactly solvable cases before being trusted elsewhere.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from pathscore import estimator
from pathscore.estimator import silverman_bandwidth
from pathscore.models import SdeModel, make_model
from pathscore.oracles import (
    FD_TARGETS,
    MassLeakageError,
    dt_first_variation,
    dt_gamma,
    dt_inverse_variation,
    duality_report,
    fd_malliavin,
    fokker_planck_1d,
    kde_score,
    malliavin_derivative_state,
)
from pathscore.paths import TimeGrid, sample_brownian_block, simulate_variation_batch

GAMMA_UNIT_OU = (1.0 - math.exp(-2.0)) / 2.0


class TestBumpOracle:
    def test_targets_registry(self):
        assert FD_TARGETS == ("state", "firstvar", "invvar", "gamma")

    def test_input_validation(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=16)
        w = sample_brownian_block(grid, 1, 0, 0, 1)[0]
        with pytest.raises(ValueError, match="eps"):
            fd_malliavin("state", model, grid, [(w, 3, 0)], 0.0, [0.0])
        with pytest.raises(ValueError, match="requires"):
            fd_malliavin("invvar", model, grid, [(w, 3, 0)], 1e-4, [0.0])
        with pytest.raises(IndexError, match="bump node"):
            fd_malliavin("state", model, grid, [(w, 16, 0)], 1e-4, [0.0])
        with pytest.raises(ValueError, match="unknown target"):
            fd_malliavin("hessian", model, grid, [(w, 3, 0)], 1e-4, [0.0])

    def test_blowup_refused(self):
        model = make_model("ornstein_uhlenbeck", {"theta": 600.0})
        grid = TimeGrid(horizon=1.0, steps=256)
        w = sample_brownian_block(grid, 1, 0, 0, 1)[0]
        assert fd_malliavin("state", model, grid, [(w, 10, 0)], 1e-4, [1e300]) == [None]

    def test_state_bump_is_exact_for_linear_dynamics(self):
        # X_T is linear in every increment, so the centered difference equals
        # the exact discrete sensitivity sigma0 (1 - theta dt)^{N-1-i} at any
        # bump size; the continuous-time tables sit O(dt) away from it.
        theta, sigma0 = 1.0, 0.8
        model = make_model("ornstein_uhlenbeck", {"theta": theta, "sigma0": sigma0})
        grid = TimeGrid(horizon=1.0, steps=128)
        inc = sample_brownian_block(grid, 1, 5, 1, 1)
        batch = simulate_variation_batch(model, grid, inc, x0=[0.2])
        nodes = (0, 64, 127)
        fds = fd_malliavin("state", model, grid, [(inc[0], i, 0) for i in nodes], 1e-3, [0.2])
        for i, fd in zip(nodes, fds):
            exact = sigma0 * (1.0 - theta * grid.dt) ** (grid.steps - 1 - i)
            npt.assert_allclose(fd[0], exact, rtol=1e-9)
            table = malliavin_derivative_state(batch, 0, i)[0, 0]
            assert abs(fd[0] - table) <= 2.5 * grid.dt

    def test_bump_matches_derivative_tables_on_nonlinear_drift(self):
        model = make_model("bounded_nonlinear_drift")
        grid = TimeGrid(horizon=1.0, steps=256)
        inc = sample_brownian_block(grid, 1, 41, 3, 1)
        batch = simulate_variation_batch(model, grid, inc, x0=[0.3])
        eps = 1e-4 * math.sqrt(grid.dt)
        i = 100
        probe = [(inc[0], i, 0, 200)]

        (fd_y,) = fd_malliavin("firstvar", model, grid, probe, eps, [0.3])
        ana_y = dt_first_variation(batch, 0, i)
        assert abs(fd_y[0, 0] - ana_y[0, 0, 0]) <= 5e-2 * max(1.0, abs(ana_y[0, 0, 0]))

        (fd_yi,) = fd_malliavin("invvar", model, grid, probe, eps, [0.3])
        ana_yi = dt_inverse_variation(batch, 0, i, 200)
        assert abs(fd_yi[0, 0] - ana_yi[0, 0, 0]) <= 5e-2 * max(1.0, abs(ana_yi[0, 0, 0]))

        (fd_g,) = fd_malliavin("gamma", model, grid, probe, eps, [0.3])
        ana_g = dt_gamma(batch, 0, i)
        assert abs(fd_g[0, 0] - ana_g[0, 0, 0]) <= 5e-2 * max(1.0, abs(ana_g[0, 0, 0]))

    def test_probe_batch_matches_single_calls(self):
        model = make_model("state_dependent_tanh")
        grid = TimeGrid(horizon=1.0, steps=64)
        inc = sample_brownian_block(grid, 1, 9, 0, 3)
        probes = [(inc[0], 5, 0), (inc[1], 30, 0), (inc[2], 63, 0)]
        eps = 1e-4 * math.sqrt(grid.dt)
        got = fd_malliavin("state", model, grid, probes, eps, [0.2])
        for probe, row in zip(probes, got):
            (single,) = fd_malliavin("state", model, grid, [probe], eps, [0.2])
            npt.assert_array_equal(row, single)

    def test_probe_batch_reports_blowups_as_none(self):
        model = make_model("ornstein_uhlenbeck", {"theta": 600.0})
        grid = TimeGrid(horizon=1.0, steps=256)
        ok = sample_brownian_block(grid, 1, 2, 0, 1)[0]
        boom = np.full((grid.steps, 1), 1e300)
        got = fd_malliavin("state", model, grid, [(ok, 3, 0), (boom, 3, 0)], 1e-4, [0.0])
        assert got[0] is not None and np.all(np.isfinite(got[0]))
        assert got[1] is None


class TestKdeScore:
    def test_gaussian_samples_give_smoothed_gaussian_score(self):
        # The KDE of N(0,1) samples converges to N(0, 1 + h^2), whose score
        # at y is -y/(1 + h^2).
        rng = np.random.default_rng(7)
        samples = rng.normal(size=100000)
        res = kde_score(samples, 0.5)
        h = silverman_bandwidth(samples[:, None])[0]
        want = -0.5 / (1.0 + h * h)
        assert res.reliable
        assert abs(res.score[0] - want) < max(3 * res.stderr[0], 0.02)
        pdf = math.exp(-0.25 / (2 * (1 + h * h))) / math.sqrt(2 * math.pi * (1 + h * h))
        assert abs(res.density - pdf) < 0.05 * pdf

    def test_explicit_bandwidth_and_2d_shapes(self):
        rng = np.random.default_rng(8)
        samples = rng.normal(size=(5000, 2))
        res = kde_score(samples, [0.0, 0.0], bandwidth=0.3)
        assert res.score.shape == (2,) and res.stderr.shape == (2,)
        assert res.reliable
        assert np.all(np.abs(res.score) < 0.2)

    def test_far_tail_flagged_unreliable(self):
        rng = np.random.default_rng(9)
        samples = rng.normal(size=1000)
        res = kde_score(samples, 100.0)
        assert not res.reliable
        assert res.density < 1e-12

    def test_small_sample_refused(self):
        with pytest.raises(ValueError, match="at least 100"):
            kde_score(np.zeros(50), 0.0)


class TestDensitySolver:
    def test_mean_reverting_density_and_score(self):
        model = make_model("ornstein_uhlenbeck")
        sol = fokker_planck_1d(model, 0.0, 1.0, -5.0, 5.0, n_cells=1200, n_steps=800)
        exact = np.exp(-sol.x**2 / (2 * GAMMA_UNIT_OU)) / math.sqrt(2 * math.pi * GAMMA_UNIT_OU)
        assert np.abs(sol.p[-1] - exact).max() < 1e-4
        mask = np.abs(sol.x) <= 2.0
        score_exact = -sol.x / GAMMA_UNIT_OU
        assert np.nanmax(np.abs(sol.score()[mask] - score_exact[mask])) < 2e-3
        assert np.abs(sol.mass - 1.0).max() < 1e-6
        assert sol.p.min() >= -1e-12

    def test_heat_kernel(self):
        model = make_model("ornstein_uhlenbeck", {"theta": 0.0, "sigma0": 1.0})
        sol = fokker_planck_1d(model, 0.3, 1.0, -6.0, 6.0, n_cells=1200, n_steps=800)
        exact = np.exp(-((sol.x - 0.3) ** 2) / 2.0) / math.sqrt(2 * math.pi)
        assert np.abs(sol.p[-1] - exact).max() < 1e-4

    def test_score_interpolation(self):
        model = make_model("ornstein_uhlenbeck")
        sol = fokker_planck_1d(model, 0.0, 1.0, -5.0, 5.0, n_cells=400, n_steps=200)
        ys = np.array([-1.0, 0.0, 0.7])
        vals = sol.score_at(ys)
        npt.assert_allclose(vals, -ys / GAMMA_UNIT_OU, atol=0.02)

    def test_narrow_domain_aborts_with_mass_error(self):
        model = make_model("ornstein_uhlenbeck", {"theta": 0.0, "sigma0": 1.0})
        with pytest.raises(MassLeakageError, match="widen the mesh"):
            fokker_planck_1d(model, 0.0, 1.0, -1.0, 1.0, n_cells=200, n_steps=200)

    def test_store_stride_keeps_intermediate_rows(self):
        model = make_model("ornstein_uhlenbeck")
        sol = fokker_planck_1d(
            model, 0.0, 1.0, -5.0, 5.0, n_cells=300, n_steps=100, store_stride=30
        )
        npt.assert_allclose(sol.times, [0.0, 0.3, 0.6, 0.9, 1.0])
        assert sol.p.shape == (5, 301)

    def test_rejects_bad_setup(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            fokker_planck_1d(make_model("linear_multidim"), 0.0, 1.0, -5.0, 5.0)
        with pytest.raises(ValueError, match="outside mesh"):
            fokker_planck_1d(make_model("ornstein_uhlenbeck"), 7.0, 1.0, -5.0, 5.0)

    def test_time_dependent_coefficients_refused(self):
        ou = make_model("ornstein_uhlenbeck")
        model = SdeModel(
            name="ou_speeding_up",
            m=1,
            d=1,
            params={},
            b=lambda t, x: -(1.0 + t) * x,
            sigma=ou.sigma,
            db=lambda t, x: np.broadcast_to(-(1.0 + t), x.shape + (1,)),
            dsigma=ou.dsigma,
            d2b=ou.d2b,
            d2sigma=ou.d2sigma,
            state_independent_diffusion=True,
        )
        with pytest.raises(ValueError, match="ou_speeding_up.*time-dependent"):
            fokker_planck_1d(model, 0.0, 1.0, -5.0, 5.0, n_cells=100, n_steps=100)


class TestDualityReport:
    def test_identity_within_errors_scalar(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=64)
        rep = duality_report(model, grid, [0.0], 2000, seed=31)
        assert rep.ok
        assert rep.max_z < 3.0
        assert abs(rep.matrix[0, 0] - 1.0) < 0.1
        assert rep.excluded == 0
        assert rep.n_paths == 2000

    def test_identity_within_errors_multidim(self):
        model = make_model("linear_multidim")
        grid = TimeGrid(horizon=1.0, steps=64)
        rep = duality_report(model, grid, [0.3, -0.2], 2000, seed=32)
        assert rep.ok
        assert rep.matrix.shape == (2, 2)
        assert abs(rep.matrix[0, 1]) < 3 * rep.stderr[0, 1]
        assert abs(rep.matrix[1, 0]) < 3 * rep.stderr[1, 0]

    def test_sign_flip_control_is_caught(self, monkeypatch):
        # Recombining the breakdown with a wrong sign must blow the check
        # far past 3 SEs; this guards the validation pipeline itself.
        model = make_model("bounded_nonlinear_drift")
        grid = TimeGrid(horizon=1.0, steps=64)
        good = duality_report(model, grid, [0.5], 4000, seed=33)
        real = estimator.skorokhod_batch

        def flipped(*args, **kwargs):
            out = real(*args, **kwargs)
            return {**out, "total": out["ito"] - out["a"] - out["b"] + out["c"]}

        monkeypatch.setattr(estimator, "skorokhod_batch", flipped)
        bad = duality_report(model, grid, [0.5], 4000, seed=33)
        assert good.ok
        assert good.max_z < 3.0 < bad.max_z
        assert bad.max_z > 6.0

    def test_too_few_paths_refused(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=16)
        with pytest.raises(ValueError):
            duality_report(model, grid, [0.0], 50, seed=0)
