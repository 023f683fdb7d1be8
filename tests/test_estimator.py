"""Score-estimation and reverse-sampling tests.

Statistical assertions run at fixed seeds, so they are deterministic; the
tolerances were chosen with at least 2x margin over the observed deviation
at those seeds.
"""

import io
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest

from pathscore import estimator
from pathscore.estimator import (
    MIN_EFFECTIVE_SAMPLES,
    PathHarvest,
    ScoreProviderGap,
    ScoreTable,
    TableScoreProvider,
    _expm,
    _knn_tables,
    _multilinear,
    _nw_tables,
    analytic_score_linear,
    chunk_size,
    estimate_score,
    harvest_paths,
    read_score_csv,
    reverse_time_sample,
    score_table_header,
    silverman_bandwidth,
    write_score_csv,
)
from pathscore.malliavin import skorokhod_batch
from pathscore.models import _linear, make_model
from pathscore.paths import TimeGrid, sample_brownian_block, simulate_variation_batch

OU_SCORE_AT_HALF = -1.1565176427496657  # -(0.5 - 0) / ((1 - e^{-2}) / 2)


def _zero_score(t, x):
    return np.zeros_like(x)


def _analytic_score(model, x0):
    return lambda t, x: analytic_score_linear(model, t, x0, x)


class TestBandwidth:
    def test_silverman_matches_hand_formula(self):
        X = (np.arange(1, 101, dtype=float) / 10.0)[:, None]
        h = silverman_bandwidth(X)
        want = (4.0 / 3.0) ** 0.2 * 100 ** (-0.2) * X.std(ddof=1)
        npt.assert_allclose(h, [want], rtol=1e-14)

    def test_two_dim_exponents(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 2))
        h = silverman_bandwidth(X)
        want = (4.0 / 4.0) ** (1.0 / 6.0) * 500 ** (-1.0 / 6.0) * X.std(axis=0, ddof=1)
        npt.assert_allclose(h, want, rtol=1e-14)

    def test_degenerate_sample_refused(self):
        with pytest.raises(ValueError, match="degenerate"):
            silverman_bandwidth(np.ones((50, 1)))


class TestKernelRegression:
    def _hand_nw(self, X, delta, point, h):
        w = [math.exp(-0.5 * ((x - point) / h) ** 2) for x in X]
        den = sum(w)
        ratio = sum(wi * di for wi, di in zip(w, delta)) / den
        se = math.sqrt(sum((wi * (di - ratio)) ** 2 for wi, di in zip(w, delta))) / den
        n_eff = den * den / sum(wi * wi for wi in w)
        return -ratio, se, n_eff

    def test_matches_hand_computation(self):
        X = np.array([-1.0, -0.3, 0.2, 0.9, 1.4, -1.7, 0.6, 2.1])
        delta = np.array([0.5, -0.2, 0.1, 0.8, -0.4, 0.3, -0.6, 0.9])
        scores, stderr, n_eff = _nw_tables(
            X[:, None], delta[:, None], np.array([[0.1]]), np.array([2.0])
        )
        s_ref, se_ref, ne_ref = self._hand_nw(X, delta, 0.1, 2.0)
        npt.assert_allclose(scores[0, 0], s_ref, rtol=1e-12)
        npt.assert_allclose(stderr[0, 0], se_ref, rtol=1e-12)
        npt.assert_allclose(n_eff[0], ne_ref, rtol=1e-12)

    def test_distant_point_is_flagged_nan(self):
        X = np.zeros((200, 1)) + np.linspace(-1, 1, 200)[:, None]
        delta = np.ones((200, 1))
        scores, stderr, n_eff = _nw_tables(X, delta, np.array([[50.0]]), np.array([0.1]))
        assert n_eff[0] < MIN_EFFECTIVE_SAMPLES
        assert np.isnan(scores[0, 0]) and np.isnan(stderr[0, 0])

    @staticmethod
    def _brute_knn(X, delta, points, k):
        """Neighbour masks (Q, n), scores and SEs from a full sort of the distances."""
        masks, scores, stderr = [], [], []
        for y in points:
            idx = np.argsort(np.linalg.norm(X - y, axis=1))[:k]
            masks.append(np.isin(np.arange(X.shape[0]), idx))
            scores.append(-delta[idx].mean(axis=0))
            stderr.append(delta[idx].std(axis=0, ddof=1) / math.sqrt(k))
        return np.array(masks), np.array(scores), np.array(stderr)

    @staticmethod
    def _brute_nw(X, delta, points, h):
        """Scores, SEs and n_eff from one pass over the paths per point."""
        Q, m = points.shape[0], X.shape[1]
        scores = np.full((Q, m), np.nan)
        stderr = np.full((Q, m), np.nan)
        n_eff = np.zeros(Q)
        for q in range(Q):
            z = (X - points[q]) / h
            w = np.exp(-0.5 * np.sum(z * z, axis=1))
            den = w.sum()
            wsq = float(w @ w)
            if den > 0 and wsq > 0:
                n_eff[q] = den * den / wsq
            if n_eff[q] < MIN_EFFECTIVE_SAMPLES:
                continue
            ratio = (w[:, None] * delta).sum(axis=0) / den
            resid = w[:, None] * (delta - ratio)
            scores[q] = -ratio
            stderr[q] = np.sqrt(np.sum(resid * resid, axis=0)) / den
        return scores, stderr, n_eff

    @pytest.mark.parametrize("m", [1, 2])
    def test_nw_matches_brute_force(self, m, monkeypatch):
        # Four points per block, so the 16 points span four blocks; the last
        # point is far from every path, with zero kernel mass.
        rng = np.random.default_rng(22)
        n = 300
        X = rng.standard_normal((n, m))
        delta = 3.0 + rng.standard_normal((n, m))
        h = silverman_bandwidth(X)
        inner = np.linspace(-2.5, 2.5, 13)[:, None] * np.ones(m)
        points = np.vstack([inner, X.min(axis=0) - 0.3, X.max(axis=0) + 2.0, np.full(m, 50.0)])
        monkeypatch.setattr(estimator, "_GATHER", 4 * n)
        s_ref, se_ref, ne_ref = self._brute_nw(X, delta, points, h)

        scores, stderr, n_eff = _nw_tables(X, delta, points, h)
        flagged = n_eff < MIN_EFFECTIVE_SAMPLES
        npt.assert_array_equal(flagged, ne_ref < MIN_EFFECTIVE_SAMPLES)
        assert flagged[-1] and n_eff[-1] == 0.0 and not flagged[:-1].all()
        npt.assert_allclose(scores, s_ref, rtol=1e-12, atol=0)
        npt.assert_allclose(stderr, se_ref, rtol=1e-12, atol=0)
        npt.assert_allclose(n_eff, ne_ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_nw_memory_does_not_grow_with_the_point_count(self, m):
        # One (points, paths) array would be 2000 * 4096 * 8 bytes = 62.5 MiB;
        # the blocks must stay within a few gather-sized arrays.
        rng = np.random.default_rng(23)
        n, Q = 4096, 2000
        X = rng.standard_normal((n, m))
        delta = rng.standard_normal((n, m))
        points = rng.standard_normal((Q, m))
        h = silverman_bandwidth(X)
        outputs = (2 * Q * m + Q) * 8
        tracemalloc.start()
        try:
            _nw_tables(X, delta, points, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * estimator._GATHER * 8 + outputs, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("m, k", [(1, 10), (1, 149), (1, 150), (2, 10), (3, 10)])
    def test_knn_matches_brute_force(self, m, k, monkeypatch):
        # Continuous data, so no two distances tie and the neighbour set is
        # unique. At most 450 (point, path) pairs per block, so the 15 points
        # span five blocks at m >= 2 and at k = 149, 150.
        rng = np.random.default_rng(21)
        n = 150
        monkeypatch.setattr(estimator, "_GATHER", 3 * n)
        X = rng.standard_normal((n, m))
        delta = 3.0 + rng.standard_normal((n, m))
        inner = np.linspace(-1.5, 1.5, 13)[:, None] * np.ones(m)
        points = np.vstack([inner, X.min(axis=0) - 1.0, X.max(axis=0) + 0.5])
        masks, s_ref, se_ref = self._brute_knn(X, delta, points, k)

        scores, stderr, n_eff = _knn_tables(X, delta, points, k)
        npt.assert_allclose(scores, s_ref, rtol=1e-12, atol=0)
        npt.assert_allclose(stderr, se_ref, rtol=1e-12, atol=0)
        npt.assert_array_equal(n_eff, float(k))
        # Path i is among a point's neighbours iff a delta that is 1 on path i
        # alone scores nonzero there.
        for i in range(n):
            onehot = np.zeros((n, m))
            onehot[i] = 1.0
            chosen = _knn_tables(X, onehot, points, k)[0][:, 0] != 0.0
            npt.assert_array_equal(chosen, masks[:, i], err_msg=f"path {i}")


class TestHarvest:
    def test_worker_count_does_not_change_bits(self):
        # 6000 paths are two chunks, so workers=2 forks; the workers must
        # get the nodes with the rest of the harvest's state.
        model = make_model("state_dependent_tanh")
        grid = TimeGrid(horizon=1.0, steps=32)
        nodes = [32, 8, 16]
        a = harvest_paths(model, grid, [0.0], 6000, seed=5, workers=1, nodes=nodes)
        b = harvest_paths(model, grid, [0.0], 6000, seed=5, workers=2, nodes=nodes)
        assert a.X_t.shape == (6000, 3, 1)
        for field in fields(PathHarvest):
            npt.assert_array_equal(getattr(a, field.name), getattr(b, field.name))

    def test_breakdown_identity_and_linear_shortcut(self):
        # The harvest keeps skorokhod_batch's total of the same paths; its
        # terms recombine to it, and on a linear model the corrections vanish.
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=32)
        h = harvest_paths(model, grid, [0.0], 500, seed=4)
        assert h.total.shape == (500, 1, 1)
        assert np.all(h.valid)
        inc = sample_brownian_block(grid, model.d, 4, 0, 500)
        terms = skorokhod_batch(simulate_variation_batch(model, grid, inc, [0.0]))
        npt.assert_array_equal(h.total, terms["total"])
        npt.assert_array_equal(h.total, terms["ito"] - terms["a"] + terms["b"] + terms["c"])
        assert all(np.all(terms[key] == 0.0) for key in ("a", "b", "c"))

    def test_ou_slope_of_delta_is_near_the_continuous_score(self):
        # E[delta | X_T] is linear for OU, with slope 1/v for the continuous
        # terminal variance v. What remains at N=32 is Euler bias, not noise
        # (+1.12% at this seed and others); propagating Yinv by its own SDE
        # instead of inverting Y raises it to +3.16%.
        model = make_model("ornstein_uhlenbeck", {"theta": 1.0, "sigma0": 1.0})
        h = harvest_paths(model, TimeGrid(1.0, 32), [0.5], 40_000, seed=20260814)
        x, delta = h.X_t[:, 0, 0], h.total[:, 0, 0]
        slope = np.cov(x, delta)[0, 1] / np.var(x, ddof=1)
        v = (1.0 - math.exp(-2.0)) / 2.0
        assert abs(slope * v - 1.0) < 0.02

    def test_no_paths_refused(self):
        model = make_model("ornstein_uhlenbeck")
        with pytest.raises(ValueError, match="at least one path"):
            harvest_paths(model, TimeGrid(1.0, 8), [0.0], 0, seed=1)

    def test_memory_is_bounded_by_the_noise_block(self):
        # One pass keeps only node quantities and running sums, so the peak
        # is the chunk's noise block plus a small remainder, not a multiple
        # of it per node.
        model = make_model("state_dependent_tanh")
        grid = TimeGrid(horizon=1.0, steps=256)
        noise = 4096 * grid.steps * 8
        tracemalloc.start()
        try:
            harvest_paths(model, grid, [0.5], 4096, seed=5, nodes=range(32, 257, 32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * noise, f"peak {peak / 2**20:.1f} MiB"

    def test_harvest_is_filled_in_place(self):
        # Chunks are written into arrays allocated once, so the peak is the
        # held harvest plus one chunk's work, not twice the harvest.
        model = make_model("bounded_nonlinear_drift")
        grid = TimeGrid(horizon=1.0, steps=32)
        tracemalloc.start()
        try:
            h = harvest_paths(model, grid, [0.5], 32_768, seed=5, nodes=range(1, 33))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(getattr(h, f.name).nbytes for f in fields(PathHarvest))
        assert peak < held + 32 * 2**20, f"peak {peak / 2**20:.1f} MiB, held {held / 2**20:.1f} MiB"

    def test_chunk_size_depends_only_on_dimension(self):
        assert chunk_size(1) == 4096
        assert chunk_size(2) == chunk_size(5) == 2048


class TestEstimateScore:
    def test_linear_reference_value(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=256)
        table, _ = estimate_score(model, grid, [0.0], [1.0], [[0.5]], 20000, seed=101)
        got = table.scores[0, 0, 0]
        se = table.stderr[0, 0, 0]
        assert abs(got - OU_SCORE_AT_HALF) < max(4 * se, 0.03)
        assert table.t.tolist() == [1.0]
        assert not table.flagged.any()
        assert table.excluded.tolist() == [0]

    @staticmethod
    def _ou_fixed_bandwidth(n_paths, points, h):
        # The OU terminal sample of seed 7, regressed with a fixed bandwidth h.
        model = make_model("ornstein_uhlenbeck")
        harvest = harvest_paths(model, TimeGrid(horizon=1.0, steps=64), [0.0], n_paths, seed=7)
        ok = harvest.valid[:, 0]
        X, delta = harvest.X_t[ok, 0], harvest.total[ok, 0]
        return _nw_tables(X, delta, np.array(points, dtype=float), np.array([h]))

    def test_stderr_shrinks_with_more_paths(self):
        _, small, _ = self._ou_fixed_bandwidth(2000, [[0.0]], 0.25)
        _, big, _ = self._ou_fixed_bandwidth(8000, [[0.0]], 0.25)
        ratio = small[0, 0] / big[0, 0]
        assert 1.6 < ratio < 2.4  # 4x paths -> roughly half the error

    def test_shrinking_bandwidth_costs_effective_samples(self):
        pts = [[-0.5], [0.0], [0.5]]
        _, wide_se, wide_n_eff = self._ou_fixed_bandwidth(5000, pts, 0.3)
        _, narrow_se, narrow_n_eff = self._ou_fixed_bandwidth(5000, pts, 0.15)
        assert np.all(narrow_n_eff < wide_n_eff)
        # For linear dynamics the integral is a function of the endpoint, so
        # the kernel residuals scale with the window and the pointwise error
        # *drops* roughly like sqrt(h) as the window shrinks.
        ratio = narrow_se[1, 0] / wide_se[1, 0]
        assert 0.5 < ratio < 0.95

    def test_evaluation_time_must_sit_on_grid(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=16)
        with pytest.raises(ValueError, match="not a grid node"):
            estimate_score(model, grid, [0.0], [0.7], [[0.0]], 200, seed=0)
        with pytest.raises(ValueError, match="below the first"):
            estimate_score(model, grid, [0.0], [1.0, 0.0], [[0.0]], 200, seed=0)

    def test_input_validation(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=16)
        with pytest.raises(ValueError, match="at least 100 paths"):
            estimate_score(model, grid, [0.0], [1.0], [[0.0]], 50, seed=0)
        with pytest.raises(ValueError, match="shape"):
            estimate_score(model, grid, [0.0], [1.0], np.zeros((3, 2)), 200, seed=0)
        with pytest.raises(ValueError, match="knn"):
            estimate_score(model, grid, [0.0], [1.0], [[0.0]], 200, seed=0, knn=2)

    def test_knn_window_must_leave_paths_out(self):
        # A window over all 200 valid paths would be their mean, flat in y.
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=16)
        with pytest.raises(ValueError, match="only 200 valid paths survived at node 16; need 201"):
            estimate_score(model, grid, [0.0], [1.0], [[0.0]], 200, seed=0, knn=200)
        table, _ = estimate_score(model, grid, [0.0], [1.0], [[0.0]], 200, seed=0, knn=199)
        assert table.n_eff.tolist() == [[199.0]]

    def test_nearest_neighbor_window(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=64)
        table, _ = estimate_score(model, grid, [0.0], [1.0], [[0.0]], 3000, seed=8, knn=200)
        assert np.all(table.n_eff == 200.0)
        assert table.bandwidth is None
        assert abs(table.scores[0, 0, 0]) < 0.2  # score at the mean is zero

    def test_tail_points_flagged_not_extrapolated(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=64)
        table, _ = estimate_score(model, grid, [0.0], [1.0], [[0.0], [40.0]], 2000, seed=3)
        assert table.flagged.tolist() == [[False, True]]
        assert np.isnan(table.scores[0, 1, 0])

    def test_harvest_return_is_consistent(self):
        model = make_model("bounded_nonlinear_drift")
        grid = TimeGrid(horizon=1.0, steps=32)
        table, harvest = estimate_score(model, grid, [0.0], [1.0, 0.5], [[0.0]], 500, seed=2)
        assert harvest.X_t.shape == (500, 2, 1)
        assert table.scores.shape == (2, 1, 1)
        npt.assert_array_equal(table.t, [1.0, 0.5])
        npt.assert_array_equal(table.excluded, harvest.n_excluded)


class TestScoreCsv:
    def test_header(self):
        assert score_table_header(1) == "t,y_1,k,score,stderr,n_eff,excluded"
        assert score_table_header(2) == "t,y_1,y_2,k,score,stderr,n_eff,excluded"

    def _table(self, m):
        if m == 1:
            points = np.array([[-1.0], [0.0], [1.0]])
        else:
            points = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        rng = np.random.default_rng(1)
        Q = points.shape[0]
        return ScoreTable(
            t=np.array([0.25, 0.5]),
            points=points,
            scores=rng.normal(size=(2, Q, m)),
            stderr=np.abs(rng.normal(size=(2, Q, m))),
            n_eff=np.array([np.full(Q, 12.5), np.full(Q, 37.5)]),
            flagged=np.zeros((2, Q), dtype=bool),
            bandwidth=np.full((2, m), 0.2),
            excluded=np.array([1, 3]),
        )

    @pytest.mark.parametrize("m", [1, 2])
    def test_roundtrip_is_exact(self, m):
        # Each time of a table is written on its own and read back as a
        # one-time table.
        table = self._table(m)
        for j in range(2):
            buf = io.StringIO()
            write_score_csv(buf, table, j)
            buf.seek(0)
            back = read_score_csv(buf)
            npt.assert_array_equal(back.points, table.points)
            npt.assert_array_equal(back.scores, table.scores[j : j + 1])
            npt.assert_array_equal(back.stderr, table.stderr[j : j + 1])
            npt.assert_array_equal(back.n_eff, table.n_eff[j : j + 1])
            npt.assert_array_equal(back.t, table.t[j : j + 1])
            npt.assert_array_equal(back.excluded, table.excluded[j : j + 1])

    def test_read_rejects_malformed_header(self):
        with pytest.raises(ScoreProviderGap, match="malformed"):
            read_score_csv(io.StringIO("a,b,c\n1,2,3\n"))
        with pytest.raises(ScoreProviderGap, match="empty"):
            read_score_csv(io.StringIO(score_table_header(1) + "\n"))

    def _written(self, m):
        buf = io.StringIO()
        write_score_csv(buf, self._table(m), 0)
        return buf.getvalue().splitlines(keepends=True)

    def test_rows_out_of_write_order_refused(self):
        lines = self._written(2)
        lines[1], lines[2] = lines[2], lines[1]  # the first point's k = 2 row before its k = 1
        with pytest.raises(ScoreProviderGap, match="malformed"):
            read_score_csv(io.StringIO("".join(lines)))

    def test_rows_of_two_times_refused(self):
        lines = self._written(1)
        lines[2] = lines[2].replace("0.25,", "0.5,", 1)
        with pytest.raises(ScoreProviderGap, match="malformed"):
            read_score_csv(io.StringIO("".join(lines)))

    @pytest.mark.parametrize("drop", [[2], [2, 5]])
    def test_missing_k_row_refused(self, drop):
        # One row short leaves an odd count; two short keep it even, but
        # the rows no longer pair up by point.
        lines = [line for i, line in enumerate(self._written(2)) if i not in drop]
        with pytest.raises(ScoreProviderGap, match="malformed"):
            read_score_csv(io.StringIO("".join(lines)))


class TestAnalyticScore:
    def test_frozen_reference_point(self):
        model = make_model("ornstein_uhlenbeck")
        got = analytic_score_linear(model, 1.0, [0.0], np.array([[0.5]]))
        npt.assert_allclose(got, [[OU_SCORE_AT_HALF]], rtol=1e-15)

    def test_zero_reversion_uses_diffusive_variance(self):
        model = make_model("ornstein_uhlenbeck", {"theta": 0.0, "sigma0": 2.0})
        got = analytic_score_linear(model, 0.5, [1.0], np.array([[3.0]]))
        npt.assert_allclose(got, [[-(3.0 - 1.0) / 2.0]], rtol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_multidim_against_quadrature(self, m):
        from scipy.linalg import expm

        if m == 1:
            model = make_model("ornstein_uhlenbeck", {"theta": 0.7, "sigma0": 1.3})
        elif m == 2:
            model = make_model("linear_multidim")
        else:
            A3 = [[-1.0, 0.3, 0.0], [-0.2, -0.8, 0.4], [0.1, 0.0, -0.5]]
            Sigma3 = [[0.8, 0.1, 0.0], [0.0, 0.7, 0.2], [0.3, 0.0, 0.6]]
            model = _linear("linear_3d", A3, Sigma3, {})
        # The reference reads A and Sigma off the model once, away from the origin.
        A = model.db(0.5, np.ones(m))
        Sig = model.sigma(0.5, np.ones(m))
        Q = Sig @ Sig.T
        t, x0 = 0.8, np.array([0.3, -0.2, 0.5][:m])
        s_grid = np.linspace(0.0, t, 4001)
        kernels = np.array([expm(A * (t - s)) @ Q @ expm(A.T * (t - s)) for s in s_grid])
        cov = np.trapezoid(kernels, s_grid, axis=0)
        mean = expm(A * t) @ x0
        y = np.array([0.5, 0.1, -0.4][:m])
        want = -np.linalg.solve(cov, y - mean)
        got = analytic_score_linear(model, t, x0, y)
        npt.assert_allclose(got, want, rtol=1e-6)

    def test_expm_on_the_van_loan_block(self):
        from scipy.linalg import expm

        model = make_model("linear_multidim")
        A = np.array(model.params["A"])
        Sig = np.array(model.params["Sigma"])
        blk = np.block([[-A, Sig @ Sig.T], [np.zeros((2, 2)), A.T]])
        for t in (1.0 / 128, 0.5, 1.0, 5.0):
            want = expm(blk * t)
            assert np.abs(_expm(blk * t) - want).max() <= 1e-13 * np.abs(want).max(), t

    def test_expm_on_random_matrices(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, n))
            a *= rng.uniform(0.0, 10.0) / np.abs(a).sum(axis=0).max()
            want = expm(a)
            assert np.abs(_expm(a) - want).max() <= 1e-11 * np.abs(want).max()
        assert np.array_equal(_expm(np.zeros((3, 3))), np.eye(3))

    def test_refusals(self):
        ou = make_model("ornstein_uhlenbeck")
        with pytest.raises(ValueError, match="t > 0"):
            analytic_score_linear(ou, 0.0, [0.0], np.array([0.5]))
        with pytest.raises(ValueError, match="no closed-form"):
            analytic_score_linear(make_model("state_dependent_tanh"), 1.0, [0.0], np.array([0.5]))
        # Linear, but not of the form the closed form covers: a drift offset,
        # and a reversion rate that grows with t.
        offset = replace(ou, b=lambda t, x: ou.b(t, x) + 0.25)
        with pytest.raises(ValueError, match="no closed-form"):
            analytic_score_linear(offset, 1.0, [0.0], np.array([0.5]))
        scheduled = replace(
            ou,
            b=lambda t, x: (1.0 + t) * ou.b(t, x),
            db=lambda t, x: (1.0 + t) * ou.db(t, x),
        )
        with pytest.raises(ValueError, match="no closed-form"):
            analytic_score_linear(scheduled, 1.0, [0.0], np.array([0.5]))


class TestTableProvider:
    def _grid(self):
        return TimeGrid(horizon=1.0, steps=4)

    def _table1d(self, scores, node=4):
        points = np.array([[-2.0], [0.0], [2.0]])
        s = np.asarray(scores, dtype=float).reshape(1, 3, 1)
        return ScoreTable(
            t=np.array([node * 0.25]),
            points=points,
            scores=s,
            stderr=np.zeros((1, 3, 1)),
            n_eff=np.full((1, 3), 100.0),
            flagged=np.zeros((1, 3), dtype=bool),
            bandwidth=None,
            excluded=np.array([0]),
        )

    def test_linear_interpolation_is_exact_for_linear_tables(self):
        provider = TableScoreProvider({4: self._table1d([-2.0, 0.0, 2.0])}, self._grid())
        out = provider.score(1.0, np.array([[1.0], [-0.5]]))
        npt.assert_allclose(out, [[1.0], [-0.5]], rtol=1e-15)

    def test_multi_time_table_refused(self):
        table = self._table1d([0, 0, 0])
        two = replace(table, t=np.array([0.5, 1.0]), scores=np.zeros((2, 3, 1)))
        with pytest.raises(ValueError, match="not one"):
            TableScoreProvider({4: two}, self._grid())

    def test_missing_node_named(self):
        provider = TableScoreProvider({4: self._table1d([0, 0, 0])}, self._grid())
        with pytest.raises(ScoreProviderGap, match="node 3"):
            provider.score(0.75, np.array([[0.0]]))

    def test_out_of_range_query_refused(self):
        provider = TableScoreProvider({4: self._table1d([0, 0, 0])}, self._grid())
        with pytest.raises(ScoreProviderGap, match="range"):
            provider.score(1.0, np.array([[2.5]]))

    def test_flagged_gap_inside_range_refused(self):
        provider = TableScoreProvider({4: self._table1d([-2.0, np.nan, 2.0])}, self._grid())
        with pytest.raises(ScoreProviderGap, match="gaps"):
            provider.score(1.0, np.array([[0.5]]))

    def _table2d(self, drop_point=False):
        pts = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        if drop_point:
            pts = pts[:-1]
        points = np.array(pts)
        scores = np.stack(
            [points[:, 0] + 2 * points[:, 1], points[:, 0] - points[:, 1]], axis=1
        )
        Q = points.shape[0]
        return ScoreTable(
            t=np.array([1.0]),
            points=points,
            scores=scores[None],
            stderr=np.zeros((1, Q, 2)),
            n_eff=np.full((1, Q), 50.0),
            flagged=np.zeros((1, Q), dtype=bool),
            bandwidth=None,
            excluded=np.array([0]),
        )

    def test_two_dim_interpolation(self):
        provider = TableScoreProvider({4: self._table2d()}, self._grid())
        out = provider.score(1.0, np.array([[0.5, 0.5]]))
        npt.assert_allclose(out, [[1.5, 0.0]], atol=1e-14)
        with pytest.raises(ScoreProviderGap, match="hull"):
            provider.score(1.0, np.array([[2.0, 2.0]]))

    def test_partial_grid_refused(self):
        with pytest.raises(ScoreProviderGap, match="regular grid"):
            TableScoreProvider({4: self._table2d(drop_point=True)}, self._grid())
        # As many points as the full grid, but one of them twice.
        table = self._table2d()
        table.points[3] = table.points[0]
        with pytest.raises(ScoreProviderGap, match="regular grid"):
            TableScoreProvider({4: table}, self._grid())

    def test_off_grid_table_refused(self):
        # A table scored at t=0.5 (node 4 of a 0.125 grid) read back on the
        # 0.25 grid, where node 4 is t=1; and a time off that grid.
        for t in (0.5, 0.625):
            table = replace(self._table1d([0, 0, 0]), t=np.array([t]))
            with pytest.raises(ScoreProviderGap, match="node 4 holds t="):
                TableScoreProvider({4: table}, self._grid())

    def test_table_of_another_dimension_refused(self):
        provider = TableScoreProvider({4: self._table2d()}, self._grid())
        with pytest.raises(ScoreProviderGap, match="node 4 has dimension 2, the state 1"):
            provider.score(1.0, np.array([[0.5]]))
        provider = TableScoreProvider({4: self._table1d([0, 0, 0])}, self._grid())
        with pytest.raises(ScoreProviderGap, match="node 4 has dimension 1, the state 2"):
            provider.score(1.0, np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_interpolation_matches_scipy(self, m):
        from scipy.interpolate import RegularGridInterpolator

        rng = np.random.default_rng(40 + m)
        for uniform in (True, False):
            axes = [
                np.linspace(-2.0, 2.0, n) if uniform else np.sort(rng.uniform(-2.0, 2.0, n))
                for n in rng.integers(2, 12, size=m)
            ]
            shape = tuple(len(g) for g in axes)
            values = rng.standard_normal(shape + (m,))
            values[tuple(rng.integers(0, n) for n in shape) + (0,)] = np.nan
            x = np.stack([rng.uniform(g[0], g[-1], 400) for g in axes], axis=1)
            x[:40, 0] = axes[0][-1]  # on the upper boundary of one axis
            x[40:50] = [g[-1] for g in axes]  # the upper corner
            x[50:60] = [g[0] for g in axes]
            x[60:80, -1] = rng.choice(axes[-1], 20)  # on interior grid lines
            want = RegularGridInterpolator(axes, values, bounds_error=True)(x)
            got = _multilinear(axes, values, x)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.isnan(want).any() and not np.isnan(want).all()
            ok = ~np.isnan(want)
            assert np.abs(got[ok] - want[ok]).max() <= 1e-14
        # A one-point axis (y_count 1) holds its query on the point.
        axes[0] = axes[0][:1]
        x[:, 0] = axes[0][0]
        values = values[:1]
        want = RegularGridInterpolator(axes, values, bounds_error=True)(x)
        npt.assert_allclose(_multilinear(axes, values, x), want, rtol=0, atol=1e-14)


class TestReverseSampler:
    def test_zero_drift_zero_score_gives_brownian_spread(self):
        # With no drift and a zero score the forward run to T and the reverse
        # run back to 0 are two independent Brownian motions from x0, so the
        # samples spread with variance 2 sigma0^2 T.
        model = make_model("ornstein_uhlenbeck", {"theta": 0.0, "sigma0": 1.0})
        grid = TimeGrid(horizon=1.0, steps=32)
        out = reverse_time_sample(model, _zero_score, grid, 4000, seed=55, x0=[0.0])
        assert out.shape == (4000, 1)
        var = out.var()
        assert abs(var - 2.0) < 0.22  # 5 sigma for the chi^2 spread of 4000 draws
        assert abs(out.mean()) < 5.0 * math.sqrt(2.0 / 4000)

    def test_linear_reverse_collapses_to_start(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=64)
        score = _analytic_score(model, [0.0])
        out = reverse_time_sample(model, score, grid, 2000, seed=56, x0=[0.0])
        # Samples at t=0 concentrate on the point start; the residual spread
        # shrinks like sqrt(dt).
        assert abs(out.mean()) < 0.02
        assert out.std() < 2.5 * math.sqrt(grid.dt)

    def test_sampler_is_deterministic_in_seed(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=16)
        score = _analytic_score(model, [0.2])
        a = reverse_time_sample(model, score, grid, 300, seed=1, x0=[0.2])
        b = reverse_time_sample(model, score, grid, 300, seed=1, x0=[0.2])
        c = reverse_time_sample(model, score, grid, 300, seed=2, x0=[0.2])
        npt.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sigma_evaluated_once_per_reverse_step(self):
        # The divergence term takes the step's sigma, so a state-dependent
        # model costs one sigma call per forward step and one per reverse step.
        base = make_model("state_dependent_tanh")
        calls = []

        def counted(t, x):
            calls.append(1)
            return base.sigma(t, x)

        model = replace(base, sigma=counted)
        reverse_time_sample(model, _zero_score, TimeGrid(1.0, 32), 100, seed=3, x0=[0.5])
        assert len(calls) == 64

    @pytest.mark.xfail(
        strict=True,
        reason="the reverse step uses b - div(sigma sigma^T) + sigma s, not the "
        "time-reversal drift -b + div(sigma sigma^T) + sigma sigma^T s",
    )
    def test_reverse_marginal_matches_forward_at_half_time(self):
        # With the exact score, the reverse chain at t = T/2 must have the
        # forward law there: OU variance sigma0^2 (1 - e^{-2 theta t}) / (2 theta).
        # The collapse to x0 at t = 0 cannot tell the two drifts apart.
        model = make_model("ornstein_uhlenbeck", {"theta": 1.0, "sigma0": 2.0})
        exact = _analytic_score(model, [0.0])
        at_half = []

        def recording(t, x):
            if math.isclose(t, 0.5):
                at_half.append(x.copy())
            return exact(t, x)

        reverse_time_sample(model, recording, TimeGrid(1.0, 64), 20_000, seed=57, x0=[0.0])
        var = np.concatenate(at_half).var()
        want = 2.0 * (1.0 - math.exp(-1.0))
        assert abs(var / want - 1.0) < 0.05

    def test_table_backed_reverse_runs(self):
        # End-to-end: estimate tables on every node, then integrate back.
        # The nearest-neighbor window keeps tail nodes usable, so the wide
        # table range stays gap-free for the backward pass.
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=8)
        pts = np.linspace(-6.0, 6.0, 61)[:, None]
        tables = {}
        for node in range(1, 9):
            tables[node], _ = estimate_score(
                model, grid, [0.0], [node * grid.dt], pts, 2000, seed=60 + node, knn=100
            )
        score = TableScoreProvider(tables, grid).score
        out = reverse_time_sample(model, score, grid, 500, seed=77, x0=[0.0])
        assert out.shape == (500, 1)
        assert np.all(np.isfinite(out))
        assert abs(out.mean()) < 0.2
