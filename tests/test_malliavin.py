"""Sensitivity-table and anticipating-integral tests.

Two independent code paths exist for every correction term: direct per-node
formulas in the oracle layer (quadratic in the step count) and the factored
batched assembly (linear in the step count).  The heart of this file checks
that they agree to near machine precision, and that on an exactly solvable
linear model the whole pipeline reduces to a short pure-python recursion.
"""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from pathscore.malliavin import compute_bundle_batch, skorokhod_batch
from pathscore.models import SdeModel, check_derivatives, make_model
from pathscore.oracles import (
    covering_inner_product,
    dt_first_variation,
    dt_gamma,
    dt_gamma_split,
    dt_inverse_variation,
    malliavin_derivative_state,
    theta,
)
from pathscore.paths import TimeGrid, sample_brownian_block, simulate_variation_batch


def _sheared_tanh_2d():
    """m = d = 2 with Z != 0 and dsigma != 0 together.

    Drift A x + beta (sin x_2, 0) and diffusion Sigma (1 + alpha tanh x_1),
    with A and Sigma the linear_multidim defaults.
    """
    beta, alpha = 0.5, 0.3
    params = make_model("linear_multidim").params
    A, Sig = np.array(params["A"]), np.array(params["Sigma"])

    def b(t, x):
        out = np.einsum("ij,...j->...i", A, x)
        out[..., 0] += beta * np.sin(x[..., 1])
        return out

    def db(t, x):
        out = np.broadcast_to(A, x.shape[:-1] + (2, 2)).copy()
        out[..., 0, 1] += beta * np.cos(x[..., 1])
        return out

    def d2b(t, x):
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 1, 1] = -beta * np.sin(x[..., 1])
        return out

    def sigma(t, x):
        return (1.0 + alpha * np.tanh(x[..., 0]))[..., None, None] * Sig

    # dsigma[l, i, j] and d2sigma[l, i, p, q] act through x_1 only.
    def dsigma(t, x):
        th = np.tanh(x[..., 0])
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0] = (alpha * (1.0 - th * th))[..., None, None] * Sig.T
        return out

    def d2sigma(t, x):
        th = np.tanh(x[..., 0])
        out = np.zeros(x.shape[:-1] + (2, 2, 2, 2))
        out[..., 0, 0] = (-2.0 * alpha * th * (1.0 - th * th))[..., None, None] * Sig.T
        return out

    return SdeModel("sheared_tanh_2d", 2, 2, {}, b, sigma, db, dsigma, d2b, d2sigma)


def _path(name, steps, seed, x0, params=None, path_index=0):
    """One simulated path, as a batch of one."""
    model = _sheared_tanh_2d() if name == "sheared_tanh_2d" else make_model(name, params)
    grid = TimeGrid(horizon=1.0, steps=steps)
    inc = sample_brownian_block(grid, model.d, seed, path_index, 1)
    return simulate_variation_batch(model, grid, inc, x0=x0)


def _flag_cleared(batch):
    """The same paths under a model that asks for the general assembly."""
    return replace(batch, model=replace(batch.model, state_independent_diffusion=False))


def _left_sigma(batch):
    N = batch.grid.steps
    t_left = batch.grid.nodes()[:N]
    return batch.model.sigma(t_left, batch.X[0, :N])


def _ou_pure_python(dt, inc, theta_, sigma0, x0):
    """Replicate the full pipeline for linear drift with scalar recursions."""
    N = len(inc)
    X, Y, Yi = [x0], [1.0], [1.0]
    for n in range(N):
        X.append(X[-1] + (-theta_ * X[-1]) * dt + sigma0 * inc[n])
        Y.append(Y[-1] + (-theta_ * Y[-1]) * dt)
        Yi.append(1.0 / Y[-1])
    V = [Yi[n] * sigma0 for n in range(N)]
    W = [Y[N] * v for v in V]
    gamma = dt * sum(w * w for w in W)
    ito = (Y[N] / gamma) * sum(V[n] * inc[n] for n in range(N))
    return np.array(X), np.array(Y), gamma, ito


class TestBundle:
    def test_linear_pipeline_matches_scalar_recursion(self):
        grid = TimeGrid(horizon=1.0, steps=8)
        inc = sample_brownian_block(grid, 1, 3, 0, 1)
        model = make_model("ornstein_uhlenbeck", {"theta": 1.3, "sigma0": 0.7})
        batch = simulate_variation_batch(model, grid, inc, x0=[0.4])
        X_ref, Y_ref, gamma_ref, ito_ref = _ou_pure_python(grid.dt, inc[0, :, 0], 1.3, 0.7, 0.4)
        npt.assert_allclose(batch.X[0, :, 0], X_ref, rtol=1e-13)
        npt.assert_allclose(batch.Y[0, :, 0, 0], Y_ref, rtol=1e-13)
        bundle = compute_bundle_batch(batch)
        npt.assert_allclose(bundle.gamma[0, 0, 0], gamma_ref, rtol=1e-12)
        out = skorokhod_batch(batch, bundle)
        npt.assert_allclose(out["total"][0, 0], ito_ref, rtol=1e-12)

    def test_terminal_row_of_sensitivity_table(self):
        batch = _path("state_dependent_tanh", 32, 5, [0.2])
        bundle = compute_bundle_batch(batch)
        N = batch.grid.steps
        assert bundle.W.shape == (1, N, 1, 1)
        for i in (0, 7, N - 1):
            npt.assert_allclose(
                bundle.W[0, i], malliavin_derivative_state(batch, 0, i), rtol=1e-14
            )
        with pytest.raises(IndexError, match="node"):
            malliavin_derivative_state(batch, 0, N + 1)

    def test_gram_matrix_symmetric_positive(self):
        bundle = compute_bundle_batch(_path("linear_multidim", 64, 9, [0.3, -0.2]))
        gamma = bundle.gamma[0]
        npt.assert_allclose(gamma, gamma.T, rtol=1e-12)
        eigs = np.linalg.eigvalsh(gamma)
        assert eigs.min() > 0
        npt.assert_allclose(gamma @ bundle.gamma_inv[0], np.eye(2), atol=1e-12)
        assert not bundle.singular[0]
        assert bundle.cond[0] < 1e4

    def test_discrete_gram_near_continuous_value(self):
        # For unit mean reversion and unit noise over unit time the continuous
        # Gram value is (1 - e^{-2})/2; the scheme sits within O(dt) of it.
        bundle = compute_bundle_batch(_path("ornstein_uhlenbeck", 256, 11, [0.0]))
        assert abs(bundle.gamma[0, 0, 0] - 0.43233235838169365) < 0.01

    def test_zero_noise_flags_singular(self):
        batch = _path("ornstein_uhlenbeck", 16, 1, [0.5], params={"sigma0": 0.0})
        with np.errstate(invalid="ignore", divide="ignore"):
            bundle = compute_bundle_batch(batch)
            out = skorokhod_batch(batch, bundle)
            with pytest.raises(ValueError, match="near-singular"):
                covering_inner_product(batch, 0, 0, 0)
        assert bundle.singular[0]
        assert np.all(np.isnan(bundle.gamma_inv))
        assert all(np.all(np.isnan(v)) for v in out.values())

    def test_blown_up_path_refused_for_integrals(self):
        model = make_model("ornstein_uhlenbeck", {"theta": 600.0})
        grid = TimeGrid(horizon=1.0, steps=256)
        inc = sample_brownian_block(grid, 1, 1, 0, 1)
        batch = simulate_variation_batch(model, grid, inc, x0=[1e308])
        assert not batch.valid[0]
        with np.errstate(invalid="ignore"):
            bundle = compute_bundle_batch(batch)
        assert bundle.singular[0]
        out = skorokhod_batch(batch, bundle)
        assert np.all(np.isnan(out["total"]))


class TestCoveringFields:
    @pytest.mark.parametrize(
        "name,x0",
        [
            ("ornstein_uhlenbeck", [0.0]),
            ("bounded_nonlinear_drift", [0.0]),
            ("state_dependent_tanh", [0.5]),
            ("linear_multidim", [0.3, -0.2]),
        ],
    )
    def test_inner_products_pick_out_components(self, name, x0):
        batch = _path(name, 64, 12, x0)
        m = batch.model.m
        for i_comp in range(m):
            for k in range(m):
                ip = covering_inner_product(batch, 0, i_comp, k)
                assert abs(ip - (1.0 if i_comp == k else 0.0)) < 1e-10


class TestNoiseDerivatives:
    def test_inverse_variation_derivative_is_causal(self):
        batch = _path("state_dependent_tanh", 24, 6, [0.3])
        assert np.all(dt_inverse_variation(batch, 0, 10, 4) == 0.0)
        got = dt_inverse_variation(batch, 0, 4, 10)
        assert got.shape == (1, 1, 1)
        assert np.any(got != 0.0)

    def test_inverse_variation_derivative_from_product_rule(self):
        # D(Yinv) must equal -Yinv (D Y) Yinv at the same node.
        batch = _path("state_dependent_tanh", 24, 7, [0.1])
        N = batch.grid.steps
        dY = dt_first_variation(batch, 0, 5)
        dYinv = dt_inverse_variation(batch, 0, 5, N)
        want = -batch.Yinv[0, N] @ dY[0] @ batch.Yinv[0, N]
        npt.assert_allclose(dYinv[0], want, rtol=1e-12)

    def test_index_validation(self):
        batch = _path("state_dependent_tanh", 16, 6, [0.3])
        with pytest.raises(IndexError):
            dt_first_variation(batch, 0, 16)
        with pytest.raises(IndexError):
            dt_inverse_variation(batch, 0, -1, 4)
        with pytest.raises(ValueError, match="i <= s"):
            theta(batch, 0, 8, 3)

    def test_gram_derivative_split_boundaries(self):
        batch = _path("bounded_nonlinear_drift", 16, 4, [0.5])
        lower0, upper0 = dt_gamma_split(batch, 0, 0)
        assert np.all(lower0 == 0.0)
        assert np.any(upper0 != 0.0)
        total = dt_gamma(batch, 0, 3)
        lo, up = dt_gamma_split(batch, 0, 3)
        npt.assert_allclose(total, lo + up, rtol=1e-14)
        # The Gram derivative inherits the symmetry of the Gram matrix.
        npt.assert_allclose(total[0], total[0].T, rtol=1e-12)


@pytest.mark.parametrize(
    "name,x0",
    [
        ("bounded_nonlinear_drift", [0.5]),
        ("state_dependent_tanh", [0.3]),
        # The only case with m = 2, Z != 0 and dsigma != 0 at once, so the
        # only one that tells the index order of R_n and the per-path sums apart.
        ("sheared_tanh_2d", [0.3, -0.2]),
    ],
)
def test_factored_corrections_match_direct_formulas(name, x0):
    """The O(N) assembly must reproduce per-node evaluation of every term."""
    batch = _path(name, 16, 42, x0)
    assert check_derivatives(batch.model).ok
    bundle = compute_bundle_batch(batch)
    out = skorokhod_batch(batch, bundle)

    N, dt = batch.grid.steps, batch.grid.dt
    gi, F = bundle.gamma_inv[0], bundle.F[0]
    V = np.einsum("nij,njl->nil", batch.Yinv[0, :N], _left_sigma(batch))

    a_direct = np.zeros(batch.model.m)
    b_direct = np.zeros(batch.model.m)
    c_direct = np.zeros(batch.model.m)
    for n in range(N):
        Om = dt_first_variation(batch, 0, n)
        a_direct += dt * np.einsum("jl,lpj,pk->k", V[n], Om, gi)
        lower, upper = dt_gamma_split(batch, 0, n)
        u_all = np.einsum("jl,ja->al", V[n], F)
        b_direct += dt * np.einsum("al,laq,qk->k", u_all, lower, gi)
        c_direct += dt * np.einsum("al,laq,qk->k", u_all, upper, gi)

    npt.assert_allclose(out["a"][0], a_direct, rtol=1e-10, atol=1e-13)
    npt.assert_allclose(out["b"][0], b_direct, rtol=1e-10, atol=1e-13)
    npt.assert_allclose(out["c"][0], c_direct, rtol=1e-10, atol=1e-13)
    npt.assert_allclose(
        out["total"][0],
        out["ito"][0] - a_direct + b_direct + c_direct,
        rtol=1e-9,
        atol=1e-12,
    )


class TestIntegralStructure:
    @pytest.mark.parametrize("name", ["ornstein_uhlenbeck", "linear_multidim"])
    def test_linear_models_have_no_corrections(self, name):
        # Zero flow curvature and constant noise kill every correction term.
        model = make_model(name)
        grid = TimeGrid(horizon=1.0, steps=32)
        inc = sample_brownian_block(grid, model.d, seed=14, first_path=0, n_paths=8)
        batch = simulate_variation_batch(model, grid, inc, x0=np.zeros(model.m))
        bb = compute_bundle_batch(batch)
        out = skorokhod_batch(batch, bb)
        assert np.all(out["a"] == 0.0)
        assert np.all(out["b"] == 0.0)
        assert np.all(out["c"] == 0.0)
        npt.assert_allclose(out["total"], out["ito"], rtol=0, atol=0)

    def test_drift_curvature_produces_corrections(self):
        batch = _path("bounded_nonlinear_drift", 32, 15, [0.5])
        out = skorokhod_batch(batch, compute_bundle_batch(batch))
        assert out["a"][0, 0] != 0.0

    def test_pruned_and_general_assembly_agree_when_noise_is_flat(self):
        model = make_model("bounded_nonlinear_drift")
        grid = TimeGrid(horizon=1.0, steps=64)
        inc = sample_brownian_block(grid, 1, seed=16, first_path=0, n_paths=16)
        batch = simulate_variation_batch(model, grid, inc, x0=[0.0])
        bb = compute_bundle_batch(batch)
        general = skorokhod_batch(_flag_cleared(batch), bb)
        reduced = skorokhod_batch(batch, bb)
        for key in ("ito", "a", "b", "c", "total"):
            npt.assert_array_equal(general[key], reduced[key])

    def test_single_path_breakdown_consistency(self):
        model = make_model("bounded_nonlinear_drift")
        grid = TimeGrid(horizon=1.0, steps=32)
        inc = sample_brownian_block(grid, 1, 17, 0, 8)
        one = simulate_variation_batch(model, grid, inc, [0.2]).take([5])
        bundle = compute_bundle_batch(one)
        general = skorokhod_batch(_flag_cleared(one), bundle)
        reduced = skorokhod_batch(one, bundle)
        assert general["total"][0, 0] == reduced["total"][0, 0]
        ito, a, b, c = (general[key][0, 0] for key in ("ito", "a", "b", "c"))
        assert general["total"][0, 0] == pytest.approx(ito - a + b + c, rel=1e-12)

    def test_flag_decides_whether_dsigma_is_evaluated(self):
        # Skipping the dsigma terms keeps every bit on a state-independent
        # model, so only the call count shows whether the shortcut is taken.
        def dsigma_calls(batch):
            calls = []

            def counted(t, x):
                calls.append(1)
                return batch.model.dsigma(t, x)

            probe = replace(batch, model=replace(batch.model, dsigma=counted))
            skorokhod_batch(probe, compute_bundle_batch(batch))
            return len(calls)

        ou = _path("ornstein_uhlenbeck", 16, 18, [0.3])
        assert dsigma_calls(ou) == 0
        assert dsigma_calls(_flag_cleared(ou)) >= 1
        assert dsigma_calls(_path("state_dependent_tanh", 16, 18, [0.3])) >= 1
