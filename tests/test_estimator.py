"""Score-estimation and reverse-sampling tests.

Statistical assertions run at fixed seeds, so they are deterministic; the
tolerances were chosen with at least 2x margin over the observed deviation
at those seeds.
"""

import io
import math

import numpy as np
import numpy.testing as npt
import pytest

from pathscore.estimator import (
    MIN_EFFECTIVE_SAMPLES,
    AnalyticScoreProvider,
    ScoreProviderGap,
    ScoreTable,
    TableScoreProvider,
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
from pathscore.models import make_model
from pathscore.paths import TimeGrid

OU_SCORE_AT_HALF = -1.1565176427496657  # -(0.5 - 0) / ((1 - e^{-2}) / 2)


class _ZeroScore:
    def score(self, t, x):
        return np.zeros_like(x)


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
        from pathscore.estimator import _nw_tables

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
        from pathscore.estimator import _nw_tables

        scores, stderr, n_eff = _nw_tables(X, delta, np.array([[50.0]]), np.array([0.1]))
        assert n_eff[0] < MIN_EFFECTIVE_SAMPLES
        assert np.isnan(scores[0, 0]) and np.isnan(stderr[0, 0])


class TestHarvest:
    def test_worker_count_does_not_change_bits(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=32)
        a = harvest_paths(model, grid, [0.0], 6000, seed=5, workers=1)
        b = harvest_paths(model, grid, [0.0], 6000, seed=5, workers=2)
        for field in ("X_t", "ito", "a", "b", "c", "total", "valid", "cond"):
            npt.assert_array_equal(getattr(a, field), getattr(b, field))
        assert a.n_sim_invalid == b.n_sim_invalid
        assert a.n_singular == b.n_singular

    def test_breakdown_identity_and_linear_shortcut(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=32)
        h = harvest_paths(model, grid, [0.0], 500, seed=4)
        assert np.all(h.valid)
        npt.assert_array_equal(h.total, h.ito - h.a + h.b + h.c)
        assert np.all(h.a == 0.0) and np.all(h.b == 0.0) and np.all(h.c == 0.0)

    def test_ou_slope_of_delta_is_near_the_continuous_score(self):
        # E[delta | X_T] is linear for OU, with slope 1/v for the continuous
        # terminal variance v. What remains at N=32 is Euler bias, not noise
        # (+1.12% at this seed and others); propagating Yinv by its own SDE
        # instead of inverting Y raises it to +3.16%.
        model = make_model("ornstein_uhlenbeck", {"theta": 1.0, "sigma0": 1.0})
        h = harvest_paths(model, TimeGrid(1.0, 32), [0.5], 40_000, seed=20260814)
        x, delta = h.X_t[:, 0], h.total[:, 0]
        slope = np.cov(x, delta)[0, 1] / np.var(x, ddof=1)
        v = (1.0 - math.exp(-2.0)) / 2.0
        assert abs(slope * v - 1.0) < 0.02

    def test_chunk_size_depends_only_on_dimension(self):
        assert chunk_size(1) == 4096
        assert chunk_size(2) == chunk_size(5) == 2048


class TestEstimateScore:
    def test_linear_reference_value(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=256)
        table, _ = estimate_score(model, grid, [0.0], 1.0, [[0.5]], 20000, seed=101)
        got = table.scores[0, 0]
        se = table.stderr[0, 0]
        assert abs(got - OU_SCORE_AT_HALF) < max(4 * se, 0.03)
        assert table.node == 256 and table.t == 1.0
        assert not table.flagged[0]
        assert table.excluded == 0

    def test_stderr_shrinks_with_more_paths(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=64)
        small, _ = estimate_score(model, grid, [0.0], 1.0, [[0.0]], 2000, seed=7, bandwidth=0.25)
        big, _ = estimate_score(model, grid, [0.0], 1.0, [[0.0]], 8000, seed=7, bandwidth=0.25)
        ratio = small.stderr[0, 0] / big.stderr[0, 0]
        assert 1.6 < ratio < 2.4  # 4x paths -> roughly half the error

    def test_shrinking_bandwidth_costs_effective_samples(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=64)
        pts = [[-0.5], [0.0], [0.5]]
        wide, _ = estimate_score(model, grid, [0.0], 1.0, pts, 5000, seed=7, bandwidth=0.3)
        narrow, _ = estimate_score(model, grid, [0.0], 1.0, pts, 5000, seed=7, bandwidth=0.15)
        assert np.all(narrow.n_eff < wide.n_eff)
        # For linear dynamics the integral is a function of the endpoint, so
        # the kernel residuals scale with the window and the pointwise error
        # *drops* roughly like sqrt(h) as the window shrinks.
        ratio = narrow.stderr[1, 0] / wide.stderr[1, 0]
        assert 0.5 < ratio < 0.95

    def test_evaluation_time_must_sit_on_grid(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=16)
        with pytest.raises(ValueError, match="not a grid node"):
            estimate_score(model, grid, [0.0], 0.7, [[0.0]], 200, seed=0)
        with pytest.raises(ValueError, match="below the first"):
            estimate_score(model, grid, [0.0], 0.0, [[0.0]], 200, seed=0)

    def test_input_validation(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=16)
        with pytest.raises(ValueError, match="at least 100 paths"):
            estimate_score(model, grid, [0.0], 1.0, [[0.0]], 50, seed=0)
        with pytest.raises(ValueError, match="shape"):
            estimate_score(model, grid, [0.0], 1.0, np.zeros((3, 2)), 200, seed=0)
        with pytest.raises(ValueError, match="bandwidth"):
            estimate_score(model, grid, [0.0], 1.0, [[0.0]], 200, seed=0, bandwidth="wide")
        with pytest.raises(ValueError, match="bandwidth"):
            estimate_score(model, grid, [0.0], 1.0, [[0.0]], 200, seed=0, bandwidth=-0.1)
        with pytest.raises(ValueError, match="knn"):
            estimate_score(model, grid, [0.0], 1.0, [[0.0]], 200, seed=0, knn=2)

    def test_nearest_neighbor_window(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=64)
        table, _ = estimate_score(model, grid, [0.0], 1.0, [[0.0]], 3000, seed=8, knn=200)
        assert table.knn == 200
        assert np.all(table.n_eff == 200.0)
        assert abs(table.scores[0, 0]) < 0.2  # score at the mean is zero

    def test_tail_points_flagged_not_extrapolated(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=64)
        table, _ = estimate_score(
            model, grid, [0.0], 1.0, [[0.0], [40.0]], 2000, seed=3, bandwidth=0.2
        )
        assert not table.flagged[0]
        assert table.flagged[1]
        assert np.isnan(table.scores[1, 0])

    def test_harvest_return_is_consistent(self):
        model = make_model("bounded_nonlinear_drift")
        grid = TimeGrid(horizon=1.0, steps=32)
        table, harvest = estimate_score(model, grid, [0.0], 1.0, [[0.0]], 500, seed=2)
        assert harvest.X_t.shape == (500, 1)
        assert table.excluded == harvest.n_excluded


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
            t=0.5,
            node=8,
            points=points,
            scores=rng.normal(size=(Q, m)),
            stderr=np.abs(rng.normal(size=(Q, m))),
            n_eff=np.full(Q, 37.5),
            flagged=np.zeros(Q, dtype=bool),
            bandwidth=np.full(m, 0.2),
            knn=None,
            n_paths=1000,
            excluded=3,
        )

    @pytest.mark.parametrize("m", [1, 2])
    def test_roundtrip_is_exact(self, m):
        table = self._table(m)
        buf = io.StringIO()
        write_score_csv(buf, table)
        buf.seek(0)
        back = read_score_csv(buf)
        npt.assert_array_equal(back.points, table.points)
        npt.assert_array_equal(back.scores, table.scores)
        npt.assert_array_equal(back.stderr, table.stderr)
        npt.assert_array_equal(back.n_eff, table.n_eff)
        assert back.t == table.t
        assert back.excluded == table.excluded

    def test_read_rejects_malformed_header(self):
        with pytest.raises(ScoreProviderGap, match="malformed"):
            read_score_csv(io.StringIO("a,b,c\n1,2,3\n"))
        with pytest.raises(ScoreProviderGap, match="empty"):
            read_score_csv(io.StringIO(score_table_header(1) + "\n"))


class TestAnalyticScore:
    def test_frozen_reference_point(self):
        model = make_model("ornstein_uhlenbeck")
        got = analytic_score_linear(model, 1.0, [0.0], np.array([[0.5]]))
        npt.assert_allclose(got, [[OU_SCORE_AT_HALF]], rtol=1e-15)

    def test_zero_reversion_uses_diffusive_variance(self):
        model = make_model("ornstein_uhlenbeck", {"theta": 0.0, "sigma0": 2.0})
        got = analytic_score_linear(model, 0.5, [1.0], np.array([[3.0]]))
        npt.assert_allclose(got, [[-(3.0 - 1.0) / 2.0]], rtol=1e-14)

    def test_multidim_against_quadrature(self):
        from scipy.linalg import expm

        model = make_model("linear_multidim")
        A = np.array(model.params["A"])
        Q = np.array(model.params["Sigma"]) @ np.array(model.params["Sigma"]).T
        t, x0 = 0.8, np.array([0.3, -0.2])
        s_grid = np.linspace(0.0, t, 4001)
        kernels = np.array([expm(A * (t - s)) @ Q @ expm(A.T * (t - s)) for s in s_grid])
        cov = np.trapezoid(kernels, s_grid, axis=0)
        mean = expm(A * t) @ x0
        y = np.array([0.5, 0.1])
        want = -np.linalg.solve(cov, y - mean)
        got = analytic_score_linear(model, t, x0, y)
        npt.assert_allclose(got, want, rtol=1e-6)

    def test_refusals(self):
        ou = make_model("ornstein_uhlenbeck")
        with pytest.raises(ValueError, match="t > 0"):
            analytic_score_linear(ou, 0.0, [0.0], np.array([0.5]))
        with pytest.raises(ValueError, match="no closed-form"):
            analytic_score_linear(make_model("state_dependent_tanh"), 1.0, [0.0], np.array([0.5]))

    def test_provider_fails_fast_on_nonlinear_models(self):
        with pytest.raises(ValueError, match="no closed-form"):
            AnalyticScoreProvider(make_model("bounded_nonlinear_drift"), [0.0])
        p = AnalyticScoreProvider(make_model("ornstein_uhlenbeck"), [0.0])
        out = p.score(1.0, np.array([[0.5]]))
        npt.assert_allclose(out, [[OU_SCORE_AT_HALF]], rtol=1e-15)


class TestTableProvider:
    def _grid(self):
        return TimeGrid(horizon=1.0, steps=4)

    def _table1d(self, scores, node=4):
        points = np.array([[-2.0], [0.0], [2.0]])
        s = np.asarray(scores, dtype=float).reshape(3, 1)
        return ScoreTable(
            t=node * 0.25,
            node=node,
            points=points,
            scores=s,
            stderr=np.zeros((3, 1)),
            n_eff=np.full(3, 100.0),
            flagged=np.zeros(3, dtype=bool),
            bandwidth=None,
            knn=None,
            n_paths=100,
            excluded=0,
        )

    def test_linear_interpolation_is_exact_for_linear_tables(self):
        provider = TableScoreProvider({4: self._table1d([-2.0, 0.0, 2.0])}, self._grid())
        out = provider.score(1.0, np.array([[1.0], [-0.5]]))
        npt.assert_allclose(out, [[1.0], [-0.5]], rtol=1e-15)

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
            t=1.0,
            node=4,
            points=points,
            scores=scores,
            stderr=np.zeros((Q, 2)),
            n_eff=np.full(Q, 50.0),
            flagged=np.zeros(Q, dtype=bool),
            bandwidth=None,
            knn=None,
            n_paths=100,
            excluded=0,
        )

    def test_two_dim_interpolation(self):
        provider = TableScoreProvider({4: self._table2d()}, self._grid())
        out = provider.score(1.0, np.array([[0.5, 0.5]]))
        npt.assert_allclose(out, [[1.5, 0.0]], atol=1e-14)
        with pytest.raises(ScoreProviderGap, match="hull"):
            provider.score(1.0, np.array([[2.0, 2.0]]))

    def test_partial_grid_refused(self):
        provider = TableScoreProvider({4: self._table2d(drop_point=True)}, self._grid())
        with pytest.raises(ScoreProviderGap, match="regular grid"):
            provider.score(1.0, np.array([[0.5, 0.5]]))


class TestReverseSampler:
    def test_zero_drift_zero_score_gives_brownian_spread(self):
        # With no drift and a zero score the forward run to T and the reverse
        # run back to 0 are two independent Brownian motions from x0, so the
        # samples spread with variance 2 sigma0^2 T.
        model = make_model("ornstein_uhlenbeck", {"theta": 0.0, "sigma0": 1.0})
        grid = TimeGrid(horizon=1.0, steps=32)
        out = reverse_time_sample(model, _ZeroScore(), grid, 4000, seed=55, x0=[0.0])
        assert out.shape == (4000, 1)
        var = out.var()
        assert abs(var - 2.0) < 0.22  # 5 sigma for the chi^2 spread of 4000 draws
        assert abs(out.mean()) < 5.0 * math.sqrt(2.0 / 4000)

    def test_linear_reverse_collapses_to_start(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=64)
        provider = AnalyticScoreProvider(model, [0.0])
        out = reverse_time_sample(model, provider, grid, 2000, seed=56, x0=[0.0])
        # Samples at t=0 concentrate on the point start; the residual spread
        # shrinks like sqrt(dt).
        assert abs(out.mean()) < 0.02
        assert out.std() < 2.5 * math.sqrt(grid.dt)

    def test_sampler_is_deterministic_in_seed(self):
        model = make_model("ornstein_uhlenbeck")
        grid = TimeGrid(horizon=1.0, steps=16)
        provider = AnalyticScoreProvider(model, [0.2])
        a = reverse_time_sample(model, provider, grid, 300, seed=1, x0=[0.2])
        b = reverse_time_sample(model, provider, grid, 300, seed=1, x0=[0.2])
        c = reverse_time_sample(model, provider, grid, 300, seed=2, x0=[0.2])
        npt.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

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
                model, grid, [0.0], node * grid.dt, pts, 2000, seed=60 + node, knn=100
            )
        provider = TableScoreProvider(tables, grid)
        out = reverse_time_sample(model, provider, grid, 500, seed=77, x0=[0.0])
        assert out.shape == (500, 1)
        assert np.all(np.isfinite(out))
        assert abs(out.mean()) < 0.2
