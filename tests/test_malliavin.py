"""Sensitivity-table and anticipating-integral tests.

Two independent code paths exist for every correction term: direct per-node
formulas in the oracle layer (quadratic in the step count) and the factored
batched assembly (linear in the step count).  The heart of this file checks
that they agree to near machine precision, and that on an exactly solvable
linear model the whole pipeline reduces to a short pure-python recursion.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from pathscore import malliavin
from pathscore.estimator import harvest_paths
from pathscore.malliavin import (
    COND_LIMIT,
    _invert_gram,
    _terms_at_node,
    compute_bundle_batch,
    skorokhod_batch,
)
from pathscore.models import SdeModel, _linear, check_derivatives, make_model
from pathscore.oracles import (
    covering_products,
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


def _explosive():
    """dX = X^2 dt + dB: from x0 = 0.6 over [0, 2], many paths overflow."""

    def const(x, value, *shape):
        return np.broadcast_to(np.full(shape, value), x.shape[:-1] + shape)

    return SdeModel(
        "explosive",
        1,
        1,
        {},
        b=lambda t, x: x * x,
        sigma=lambda t, x: const(x, 1.0, 1, 1),
        db=lambda t, x: (2.0 * x)[..., None],
        dsigma=lambda t, x: const(x, 0.0, 1, 1, 1),
        d2b=lambda t, x: const(x, 2.0, 1, 1, 1),
        d2sigma=lambda t, x: const(x, 0.0, 1, 1, 1, 1),
        state_independent_diffusion=True,
    )


def _geometric():
    """dX = 0.1 X dt + 0.4 X dB: affine coefficients with a state-dependent sigma."""
    return SdeModel(
        "geometric",
        1,
        1,
        {},
        b=lambda t, x: 0.1 * x,
        sigma=lambda t, x: 0.4 * x[..., None],
        db=lambda t, x: np.full(x.shape[:-1] + (1, 1), 0.1),
        dsigma=lambda t, x: np.full(x.shape[:-1] + (1, 1, 1), 0.4),
        d2b=lambda t, x: np.zeros(x.shape[:-1] + (1, 1, 1)),
        d2sigma=lambda t, x: np.zeros(x.shape[:-1] + (1, 1, 1, 1)),
        affine_coefficients=True,
    )


def _path(name, steps, seed, x0, params=None, path_index=0):
    """One simulated path, as a batch of one."""
    model = _sheared_tanh_2d() if name == "sheared_tanh_2d" else make_model(name, params)
    grid = TimeGrid(horizon=1.0, steps=steps)
    inc = sample_brownian_block(grid, model.d, seed, path_index, 1)
    return simulate_variation_batch(model, grid, inc, x0=x0)


TERMS = ("ito", "a", "b", "c", "total")


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
        out = skorokhod_batch(batch)
        npt.assert_allclose(out["total"][0, 0, 0], ito_ref, rtol=1e-12)

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
            out = skorokhod_batch(batch, [8, 16])
            products = covering_products(batch)
        assert bundle.singular[0]
        assert np.all(np.isnan(products))
        assert np.all(np.isnan(bundle.gamma_inv))
        assert np.all(out["finite"]) and np.all(out["singular"])
        assert all(np.all(np.isnan(out[key])) for key in TERMS)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_gram_condition_number_from_eigenvalues(self, m):
        rng = np.random.default_rng(m)
        A = rng.standard_normal((64, m, m))
        gamma = A @ np.swapaxes(A, 1, 2) + m * np.eye(m)
        cond, singular, _ = _invert_gram(gamma, np.ones(64, dtype=bool))
        npt.assert_allclose(cond, np.linalg.cond(gamma), rtol=1e-12)
        assert not singular.any()

        flat = np.zeros((1, m, m))
        flat[0, 0, 0] = 1.0 if m > 1 else 0.0
        cond, singular, gamma_inv = _invert_gram(flat, np.ones(1, dtype=bool))
        assert cond[0] == np.inf and singular[0]
        assert np.all(np.isnan(gamma_inv))

    def test_blown_up_path_refused_for_integrals(self):
        model = make_model("ornstein_uhlenbeck", {"theta": 600.0})
        grid = TimeGrid(horizon=1.0, steps=256)
        inc = sample_brownian_block(grid, 1, 1, 0, 1)
        batch = simulate_variation_batch(model, grid, inc, x0=[1e308])
        assert not batch.valid[0]
        with np.errstate(invalid="ignore"):
            bundle = compute_bundle_batch(batch)
        assert bundle.singular[0]
        out = skorokhod_batch(batch)
        assert not out["finite"][0, 0] and not out["singular"][0, 0]
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
        products = covering_products(batch)
        assert products.shape == (1, batch.model.m, batch.model.m)
        npt.assert_allclose(products[0], np.eye(batch.model.m), rtol=0, atol=1e-10)


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
    """The O(N) assembly must reproduce per-node evaluation of every term.

    The assembly reads both nodes from one pass; the direct formulas take
    each node n as the terminal time, on the path cut there.
    """
    batch = _path(name, 16, 42, x0)
    inc = sample_brownian_block(batch.grid, batch.model.d, 42, 0, 1)
    assert check_derivatives(batch.model).ok
    nodes = [9, batch.grid.steps]
    out = skorokhod_batch(batch, nodes)
    for j, n in enumerate(nodes):
        cut = simulate_variation_batch(batch.model, batch.grid.truncated(n), inc[:, :n], x0)
        bundle = compute_bundle_batch(cut)
        dt = cut.grid.dt
        gi, F = bundle.gamma_inv[0], bundle.F[0]
        V = np.einsum("nij,njl->nil", cut.Yinv[0, :n], _left_sigma(cut))

        a_direct = np.zeros(batch.model.m)
        b_direct = np.zeros(batch.model.m)
        c_direct = np.zeros(batch.model.m)
        for s in range(n):
            Om = dt_first_variation(cut, 0, s)
            a_direct += dt * np.einsum("jl,lpj,pk->k", V[s], Om, gi)
            lower, upper = dt_gamma_split(cut, 0, s)
            u_all = np.einsum("jl,ja->al", V[s], F)
            b_direct += dt * np.einsum("al,laq,qk->k", u_all, lower, gi)
            c_direct += dt * np.einsum("al,laq,qk->k", u_all, upper, gi)

        npt.assert_allclose(out["a"][0, j], a_direct, rtol=1e-10, atol=1e-13)
        npt.assert_allclose(out["b"][0, j], b_direct, rtol=1e-10, atol=1e-13)
        npt.assert_allclose(out["c"][0, j], c_direct, rtol=1e-10, atol=1e-13)
        npt.assert_allclose(
            out["total"][0, j],
            out["ito"][0, j] - a_direct + b_direct + c_direct,
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
        out = skorokhod_batch(batch, [8, 32])
        assert np.all(out["a"] == 0.0)
        assert np.all(out["b"] == 0.0)
        assert np.all(out["c"] == 0.0)
        npt.assert_allclose(out["total"], out["ito"], rtol=0, atol=0)

    def test_drift_curvature_produces_corrections(self):
        batch = _path("bounded_nonlinear_drift", 32, 15, [0.5])
        out = skorokhod_batch(batch)
        assert out["a"][0, 0, 0] != 0.0

    def test_single_path_breakdown_consistency(self):
        model = make_model("bounded_nonlinear_drift")
        grid = TimeGrid(horizon=1.0, steps=32)
        inc = sample_brownian_block(grid, 1, 17, 0, 8)
        one = inc[5:6]
        cleared = replace(model, state_independent_diffusion=False)
        general = skorokhod_batch(simulate_variation_batch(cleared, grid, one, [0.2]))
        reduced = skorokhod_batch(simulate_variation_batch(model, grid, one, [0.2]))
        assert general["total"][0, 0, 0] == reduced["total"][0, 0, 0]
        ito, a, b, c = (general[key][0, 0, 0] for key in ("ito", "a", "b", "c"))
        assert general["total"][0, 0, 0] == pytest.approx(ito - a + b + c, rel=1e-12)

    def test_flag_decides_whether_dsigma_is_evaluated(self):
        # Skipping the dsigma terms keeps every bit on a state-independent
        # model, so only the call count shows whether the shortcut is taken.
        def dsigma_calls(model):
            calls = []

            def counted(t, x):
                calls.append(1)
                return model.dsigma(t, x)

            grid = TimeGrid(horizon=1.0, steps=16)
            inc = sample_brownian_block(grid, model.d, 18, 0, 1)
            skorokhod_batch(simulate_variation_batch(replace(model, dsigma=counted), grid, inc, [0.3]))
            return len(calls)

        ou = make_model("ornstein_uhlenbeck")
        assert dsigma_calls(ou) == 0
        assert dsigma_calls(replace(ou, state_independent_diffusion=False)) >= 1
        assert dsigma_calls(make_model("state_dependent_tanh")) >= 1


class TestOnePass:
    @pytest.mark.parametrize(
        "name,x0",
        [
            ("ornstein_uhlenbeck", [0.3]),
            ("bounded_nonlinear_drift", [0.5]),
            ("state_dependent_tanh", [0.3]),
            ("linear_multidim", [0.3, -0.2]),
            ("sheared_tanh_2d", [0.3, -0.2]),
            ("explosive", [0.6]),
        ],
    )
    def test_one_pass_matches_independent_per_node_runs(self, name, x0):
        # One simulation to the last node must give each node what a harvest
        # on the grid cut there gives: the same states, masks and counts, and
        # the same integrals up to rounding.
        model = {"sheared_tanh_2d": _sheared_tanh_2d, "explosive": _explosive}.get(
            name, lambda: make_model(name)
        )()
        grid = TimeGrid(horizon=2.0 if name == "explosive" else 1.0, steps=32)
        nodes = [8, 16, 24, 32]

        def terms(g, nodes=None):
            # The batch a 600-path harvest on grid g runs as its one chunk.
            inc = sample_brownian_block(g, model.d, 21, 0, 600)
            return skorokhod_batch(simulate_variation_batch(model, g, inc, x0, nodes=nodes), nodes)

        one = harvest_paths(model, grid, x0, 600, seed=21, nodes=nodes)
        one_terms = terms(grid, nodes)
        npt.assert_array_equal(one.total, one_terms["total"])
        for j, n in enumerate(nodes):
            alone = harvest_paths(model, grid.truncated(n), x0, 600, seed=21)
            alone_terms = terms(grid.truncated(n))
            for field in ("X_t", "finite", "singular"):
                npt.assert_array_equal(getattr(one, field)[:, j], getattr(alone, field)[:, 0])
            assert one.n_sim_invalid[j] == alone.n_sim_invalid[0]
            assert one.n_singular[j] == alone.n_singular[0]
            assert np.all(np.isfinite(one.total[one.valid[:, j], j]))
            scale = np.abs(alone.total[alone.valid]).max()
            for key in TERMS:
                npt.assert_allclose(
                    one_terms[key][:, j], alone_terms[key][:, 0], rtol=0, atol=1e-14 * scale
                )
        if name == "explosive":
            # 31 and 239 paths overflow by nodes 24 and 32. Of the 16 singular
            # ones at node 24, one has a finite gamma but an overflowed b and c.
            assert one.n_sim_invalid.tolist() == [0, 0, 31, 239]
            assert one.n_singular.tolist() == [0, 0, 16, 14]

    def test_chunk_rows_match_single_path_runs(self):
        # Every contraction has a fixed order, so a path's integrals do not
        # depend on the size of the batch it runs in, dsigma terms included.
        model = _sheared_tanh_2d()
        grid = TimeGrid(horizon=1.0, steps=16)
        x0, nodes = [0.3, -0.2], [8, 16]
        chunk = harvest_paths(model, grid, x0, 2048, seed=23, nodes=nodes)
        inc = sample_brownian_block(grid, model.d, 23, 0, 2048)
        batch = simulate_variation_batch(model, grid, inc, x0, nodes=nodes)
        chunk_terms = skorokhod_batch(batch, nodes)
        assert np.array_equal(chunk.total, chunk_terms["total"])
        for p in (0, 1, 1000, 2047):
            inc = sample_brownian_block(grid, model.d, 23, p, 1)
            one = simulate_variation_batch(model, grid, inc, x0, nodes=nodes)
            assert np.array_equal(chunk.X_t[p], one.X[0, 1:])
            for key, value in skorokhod_batch(one, nodes).items():
                assert np.array_equal(chunk_terms[key][p], value[0]), (p, key)

    def test_path_that_overflows_later_counts_until_then(self):
        # Path 2 overflows in step 10, so it is finite through node 10 and
        # excluded as a simulation failure from node 11 on. Up to node 10 no
        # path's integrals see the overflow, bit for bit.
        model = make_model("ornstein_uhlenbeck", {"sigma0": 2.0})
        grid = TimeGrid(horizon=1.0, steps=16)
        inc = sample_brownian_block(grid, 1, 31, 0, 4)
        clean = simulate_variation_batch(model, grid, inc, [0.0])
        inc[2, 10] = 1e308
        broken = simulate_variation_batch(model, grid, inc, [0.0])
        nodes = [4, 10, 11, 16]
        want = skorokhod_batch(clean, nodes)
        got = skorokhod_batch(broken, nodes)
        assert got["finite"][2].tolist() == [True, True, False, False]
        assert np.all(np.delete(got["finite"], 2, axis=0))
        assert not got["singular"].any()
        for key in TERMS:
            npt.assert_array_equal(got[key][:, :2], want[key][:, :2])
            npt.assert_array_equal(np.delete(got[key], 2, axis=0), np.delete(want[key], 2, axis=0))
            assert np.all(np.isnan(got[key][2, 2:]))

    def test_nodes_in_any_order_come_back_in_that_order(self):
        batch = _path("state_dependent_tanh", 16, 3, [0.2])
        sorted_out = skorokhod_batch(batch, [4, 12, 16])
        shuffled = skorokhod_batch(batch, [16, 4, 16, 12])
        for key in sorted_out:
            npt.assert_array_equal(shuffled[key], sorted_out[key][:, [2, 0, 2, 1]])
        with pytest.raises(ValueError, match="nodes must lie in"):
            skorokhod_batch(batch, [0, 16])

    @pytest.mark.parametrize(
        "name,x0",
        [
            ("ornstein_uhlenbeck", [0.3]),
            ("linear_multidim", [0.3, -0.2]),
            ("bounded_nonlinear_drift", [0.5]),
            ("state_dependent_tanh", [0.3]),
            ("geometric", [0.5]),
        ],
    )
    def test_clearing_a_flag_keeps_every_bit(self, name, x0):
        # Each flag only skips work whose result is exactly zero, and the
        # coefficients it gates are never evaluated while it is set. The
        # simulation keeps only the running sums that are not zero. The
        # geometric model is affine with a live dsigma term: its flagged run
        # takes the einsum step, and its cleared run the flat step.
        model = _geometric() if name == "geometric" else make_model(name)
        grid = TimeGrid(horizon=1.0, steps=32)
        inc = sample_brownian_block(grid, model.d, 19, 0, 16)
        flagged = simulate_variation_batch(model, grid, inc, x0)
        kept = {
            "ornstein_uhlenbeck": {"P", "Gam"},
            "linear_multidim": {"P", "Gam"},
            "geometric": {"P", "A", "Gam", "R_tot", "B2", "C2"},
        }.get(name, {"P", "A", "Gam", "R_tot", "B1", "B2", "C2"})
        assert set(flagged.sums) == kept
        # The 600-path batch of a harvest at nodes 8 and 32, under each flag setting.
        inc600 = sample_brownian_block(grid, model.d, 19, 0, 600)

        def terms(sde):
            batch = simulate_variation_batch(sde, grid, inc600, x0, nodes=[8, 32])
            return skorokhod_batch(batch, [8, 32])

        want = terms(model)
        gated = {
            "affine_coefficients": ("d2b", "d2sigma"),
            "state_independent_diffusion": ("dsigma", "d2sigma"),
        }
        for flag, coeffs in gated.items():
            if not getattr(model, flag):
                continue
            cleared = replace(model, **{flag: False})
            general = simulate_variation_batch(cleared, grid, inc, x0)
            for field in ("X", "Y", "Yinv", "Z", "finite", "valid"):
                assert np.array_equal(getattr(flagged, field), getattr(general, field)), field
            for key, s in flagged.sums.items():
                assert np.array_equal(s, general.sums[key]), key
            got = terms(cleared)
            for key in want:
                npt.assert_array_equal(got[key], want[key], err_msg=key)

            calls = []

            def counting(coeff):
                fn = getattr(model, coeff)
                return lambda t, x: calls.append(coeff) or fn(t, x)

            simulate_variation_batch(replace(model, **{c: counting(c) for c in coeffs}), grid, inc, x0)
            assert calls == [], flag


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _per_node(batch, nodes):
    """skorokhod_batch as one _terms_at_node call per requested node."""
    out = {}
    with np.errstate(invalid="ignore", over="ignore"):
        for n in nodes:
            k = int(np.searchsorted(batch.nodes, n))
            sums = {name: s[:, k] for name, s in batch.sums.items()}
            terms = _terms_at_node(batch.Y[:, k], batch.Z[:, k], batch.finite[:, k], **sums)
            for key, v in terms.items():
                out.setdefault(key, []).append(v)
    return {key: np.stack(v, axis=1) for key, v in out.items()}


def _general(name):
    """A builtin with both flags cleared, so every running sum is kept."""
    return replace(make_model(name), state_independent_diffusion=False, affine_coefficients=False)


class TestBlockedContraction:
    @pytest.mark.parametrize(
        "model,x0",
        [
            (make_model("state_dependent_tanh"), [0.3]),
            (make_model("bounded_nonlinear_drift"), [0.5]),
            (_general("ornstein_uhlenbeck"), [0.3]),
            (_general("linear_multidim"), [0.3, -0.2]),
        ],
        ids=["tanh", "bounded", "ou_cleared", "linear_multidim_cleared"],
    )
    def test_blocks_match_a_per_node_loop(self, model, x0, monkeypatch):
        # With a budget of two nodes per block the seven requested nodes
        # (unsorted, one repeated) take four blocks, the last one short.
        grid = TimeGrid(horizon=1.0, steps=32)
        inc = sample_brownian_block(grid, model.d, 29, 0, 40)
        inc[5, 10:13] = 1e308
        batch = simulate_variation_batch(model, grid, inc, x0)
        nodes = [32, 4, 17, 4, 9, 1, 25]
        monkeypatch.setattr(malliavin, "_BLOCK", 2 * 40 * model.m**4)
        calls = []
        monkeypatch.setattr(
            malliavin, "_terms_at_node", lambda *a, **k: calls.append(1) or _terms_at_node(*a, **k)
        )
        got = skorokhod_batch(batch, nodes)
        assert len(calls) == 4
        assert not got["finite"][5, 0]
        want = _per_node(batch, nodes)
        assert got.keys() == want.keys()
        for key in want:
            assert _same_bits(got[key], want[key]), key

    @pytest.mark.parametrize("name", ["state_dependent_tanh", "linear_multidim"])
    def test_a_batch_of_no_paths_gives_empty_arrays(self, name):
        model = make_model(name)
        grid = TimeGrid(horizon=1.0, steps=8)
        inc = sample_brownian_block(grid, model.d, 1, 0, 0)
        out = skorokhod_batch(simulate_variation_batch(model, grid, inc, [0.1] * model.m), [4, 8])
        for key, v in out.items():
            assert v.shape == ((0, 2, model.m) if key in TERMS else (0, 2)), key

    def test_scalar_gram_matches_lapack(self):
        # The m = 1 route against the eigenvalue and LAPACK route it replaces.
        gamma = np.array([0.0, 1e-300, 1.0, np.nan, np.inf, 2.5, 3.0]).reshape(-1, 1, 1)
        usable = np.array([True] * 6 + [False])
        cond, singular, inv = _invert_gram(gamma, usable)
        finite = np.isfinite(gamma[:, 0, 0]) & usable
        lam = np.abs(np.linalg.eigvalsh(np.where(finite[:, None, None], gamma, 1.0)))[:, 0]
        want_cond = np.where(finite & (lam > 0), lam / np.where(lam > 0, lam, 1.0), np.inf)
        want_singular = ~finite | ~np.isfinite(want_cond) | (want_cond >= COND_LIMIT)
        want_inv = np.linalg.inv(np.where(want_singular[:, None, None], 1.0, gamma))
        want_inv[want_singular] = np.nan
        assert singular.tolist() == want_singular.tolist() == [True, False, False, True, True, False, True]
        assert _same_bits(cond, want_cond)
        assert _same_bits(inv, want_inv)

    def test_memory_follows_the_block_budget_not_the_node_count(self, monkeypatch):
        # m = 3 over 64 nodes: one node per block. Contracting every node at
        # once would hold several (paths, nodes, m^4) arrays.
        m, paths, nodes = 3, 256, list(range(1, 65))
        rng = np.random.default_rng(3)
        A = -np.eye(m) + 0.1 * rng.standard_normal((m, m))
        Sigma = np.eye(m) + 0.1 * rng.standard_normal((m, m))
        model = replace(
            _linear("linear_3d", A, Sigma, {}),
            state_independent_diffusion=False,
            affine_coefficients=False,
        )
        grid = TimeGrid(horizon=1.0, steps=64)
        batch = simulate_variation_batch(model, grid, sample_brownian_block(grid, m, 5, 0, paths), [0.0] * m)
        one_array = paths * len(nodes) * m**4 * 8

        def peak():
            tracemalloc.start()
            try:
                skorokhod_batch(batch, nodes)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak() < one_array / 2
        # The bound tells the two apart: a budget that fits every node fails it.
        monkeypatch.setattr(malliavin, "_BLOCK", paths * len(nodes) * m**4)
        assert peak() > one_array
