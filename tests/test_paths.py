"""Simulation-layer tests: grids, counter-based noise, variation processes.

The discrete first/second variations are, by construction, the exact first
and second derivatives of the discrete Euler map x0 -> X_T.  That makes
central differences in x0 an independent oracle for Y and Z on any model
with state-dependent coefficients.
"""

import io
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathscore.malliavin import compute_bundle_batch, skorokhod_batch
from pathscore.models import make_model
from pathscore.paths import (
    TimeGrid,
    euler_state_batch,
    sample_brownian_block,
    simulate_variation_batch,
    trajectory_csv_header,
    write_trajectories_csv,
)


class TestTimeGrid:
    def test_basic_properties(self):
        g = TimeGrid(horizon=1.0, steps=256)
        assert g.dt == 1.0 / 256
        nodes = g.nodes()
        assert nodes.shape == (257,)
        assert nodes[0] == 0.0 and nodes[-1] == 1.0
        npt.assert_allclose(np.diff(nodes), g.dt)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError, match="horizon"):
            TimeGrid(horizon=0.0, steps=16)
        with pytest.raises(ValueError, match="horizon"):
            TimeGrid(horizon=float("nan"), steps=16)
        with pytest.raises(ValueError, match="step"):
            TimeGrid(horizon=1.0, steps=0)
        # Single-step grids are degenerate but legal: the estimator truncates
        # down to them when evaluating at the first node.
        assert TimeGrid(horizon=1.0, steps=1).dt == 1.0

    def test_node_index_accepts_grid_times(self):
        g = TimeGrid(horizon=2.0, steps=8)
        for i in range(9):
            assert g.node_index(i * g.dt) == i

    def test_node_index_rejects_offgrid_and_names_nearest(self):
        g = TimeGrid(horizon=1.0, steps=4)
        with pytest.raises(ValueError, match="nearest node is t=0.25"):
            g.node_index(0.3)

    def test_truncated_keeps_spacing(self):
        g = TimeGrid(horizon=1.0, steps=256)
        sub = g.truncated(64)
        assert sub.steps == 64
        assert sub.dt == g.dt
        assert sub.horizon == pytest.approx(0.25)
        with pytest.raises(ValueError, match="truncation node"):
            g.truncated(0)
        with pytest.raises(ValueError, match="truncation node"):
            g.truncated(257)


class TestCounterBasedNoise:
    def test_regeneration_is_bit_identical(self):
        g = TimeGrid(horizon=1.0, steps=32)
        a = sample_brownian_block(g, 2, seed=11, first_path=5, n_paths=1)
        b = sample_brownian_block(g, 2, seed=11, first_path=5, n_paths=1)
        assert np.array_equal(a, b)

    def test_distinct_paths_and_seeds_differ(self):
        g = TimeGrid(horizon=1.0, steps=32)
        base = sample_brownian_block(g, 1, seed=11, first_path=5, n_paths=1)
        other_path = sample_brownian_block(g, 1, seed=11, first_path=6, n_paths=1)
        other_seed = sample_brownian_block(g, 1, seed=12, first_path=5, n_paths=1)
        assert not np.array_equal(base, other_path)
        assert not np.array_equal(base, other_seed)

    def test_block_rows_match_single_draws(self):
        g = TimeGrid(horizon=1.0, steps=17)
        block = sample_brownian_block(g, 2, seed=3, first_path=40, n_paths=6)
        assert block.shape == (6, 17, 2)
        for j in range(6):
            single = sample_brownian_block(g, 2, seed=3, first_path=40 + j, n_paths=1)
            assert np.array_equal(block[j], single[0])

    def test_increment_scale(self):
        # Var of one increment is dt; 4096 draws pin the sample variance loosely.
        g = TimeGrid(horizon=1.0, steps=64)
        block = sample_brownian_block(g, 1, seed=0, first_path=0, n_paths=64)
        v = block.ravel().var()
        assert abs(v - g.dt) < 5 * g.dt / np.sqrt(block.size / 2)


def _mean_reverting_recursion(N: int, dt: float, factor_sign: float) -> float:
    # Pure-python replica of the deterministic 1x1 variation recursions.
    w = 1.0
    for _ in range(N):
        w = w + factor_sign * w * dt
    return w


class TestVariationProcesses:
    def test_mean_reverting_first_variation_is_deterministic(self):
        # With linear drift -x and constant noise the first variation ignores
        # the path entirely: it is the compounded per-step factor (1 - dt)^N.
        model = make_model("ornstein_uhlenbeck", {"theta": 1.0, "sigma0": 1.0})
        g = TimeGrid(horizon=1.0, steps=256)
        inc = sample_brownian_block(g, 1, seed=9, first_path=0, n_paths=3)
        batch = simulate_variation_batch(model, g, inc, x0=[0.4])
        want = _mean_reverting_recursion(256, g.dt, -1.0)
        assert np.all(batch.valid)
        for b in range(3):
            assert batch.Y[b, -1, 0, 0] == want
        npt.assert_allclose(want, 0.36715975489153624, rtol=1e-15)
        npt.assert_allclose(want, (1.0 - g.dt) ** 256, rtol=1e-13)

    def test_mean_reverting_inverse_variation_compounds_up(self):
        # Yinv is the reciprocal of the deterministic Y = (1 - theta dt)^n.
        model = make_model("ornstein_uhlenbeck", {"theta": 1.5})
        g = TimeGrid(horizon=1.0, steps=128)
        inc = sample_brownian_block(g, 1, seed=9, first_path=0, n_paths=1)
        batch = simulate_variation_batch(model, g, inc, x0=[0.0])
        want = 1.0 / _mean_reverting_recursion(128, g.dt, -1.5)
        assert batch.Yinv[0, -1, 0, 0] == want
        n = np.arange(129)
        npt.assert_allclose(batch.Yinv[0, :, 0, 0], (1.0 - 1.5 * g.dt) ** -n, rtol=1e-13)

    @pytest.mark.parametrize("name", ["ornstein_uhlenbeck", "linear_multidim"])
    def test_second_variation_vanishes_for_affine_sensitivities(self, name):
        # Models with linear-in-state drift and constant sigma have exactly
        # zero curvature in the flow, so Z stays identically zero.
        model = make_model(name)
        g = TimeGrid(horizon=1.0, steps=64)
        inc = sample_brownian_block(g, model.d, seed=5, first_path=0, n_paths=4)
        x0 = np.zeros(model.m)
        batch = simulate_variation_batch(model, g, inc, x0=x0)
        assert np.all(batch.Z == 0.0)

    @pytest.mark.parametrize(
        "name,x0",
        [("bounded_nonlinear_drift", [0.3]), ("state_dependent_tanh", [0.2])],
    )
    def test_variations_are_derivatives_of_euler_map(self, name, x0):
        # Central differences of the simulated state (same noise, bumped x0)
        # must reproduce Y_T; differences of Y_T must reproduce Z_T.
        model = make_model(name)
        g = TimeGrid(horizon=1.0, steps=128)
        inc = sample_brownian_block(g, 1, seed=21, first_path=0, n_paths=2)
        h = 1e-3
        lo = simulate_variation_batch(model, g, inc, x0=[x0[0] - h])
        mid = simulate_variation_batch(model, g, inc, x0=x0)
        hi = simulate_variation_batch(model, g, inc, x0=[x0[0] + h])
        fd_Y = (hi.X[:, -1, 0] - lo.X[:, -1, 0]) / (2 * h)
        fd_Z = (hi.Y[:, -1, 0, 0] - lo.Y[:, -1, 0, 0]) / (2 * h)
        npt.assert_allclose(mid.Y[:, -1, 0, 0], fd_Y, rtol=2e-5, atol=1e-8)
        npt.assert_allclose(mid.Z[:, -1, 0, 0, 0], fd_Z, rtol=2e-4, atol=1e-7)

    def test_inverse_variation_tracks_direct_inverse(self):
        model = make_model("state_dependent_tanh")
        g = TimeGrid(horizon=1.0, steps=256)
        inc = sample_brownian_block(g, 1, seed=13, first_path=0, n_paths=8)
        batch = simulate_variation_batch(model, g, inc, x0=[0.1])
        prod = np.einsum("bnij,bnjk->bnik", batch.Y, batch.Yinv)
        dev = np.abs(prod - np.eye(1)).max()
        assert dev < 1e-12

    def test_inverse_variation_is_the_inverse_of_Y(self):
        g = TimeGrid(horizon=1.0, steps=64)
        for name, x0 in (
            ("ornstein_uhlenbeck", [0.3]),
            ("bounded_nonlinear_drift", [0.5]),
            ("state_dependent_tanh", [0.2]),
            ("linear_multidim", [0.3, -0.2]),
        ):
            model = make_model(name)
            inc = sample_brownian_block(g, model.d, seed=17, first_path=0, n_paths=8)
            batch = simulate_variation_batch(model, g, inc, x0=x0)
            assert np.all(batch.valid), name
            npt.assert_allclose(batch.Yinv, np.linalg.inv(batch.Y), rtol=0, atol=1e-12)

        # An overflowing scalar path and a 2-D model whose first Euler step
        # maps onto a singular Y are both flagged, with no error or warning.
        ou = make_model("ornstein_uhlenbeck", {"theta": 600.0})
        g = TimeGrid(horizon=1.0, steps=256)
        inc = sample_brownian_block(g, 1, seed=1, first_path=0, n_paths=2)
        flat = make_model("linear_multidim", {"A": [[-4.0, 0.0], [0.0, -1.0]]})
        g4 = TimeGrid(horizon=1.0, steps=4)
        inc2 = sample_brownian_block(g4, 2, seed=1, first_path=0, n_paths=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blown = simulate_variation_batch(ou, g, inc, x0=np.array([[1e308], [0.0]]))
            singular = simulate_variation_batch(flat, g4, inc2, x0=[0.1, 0.2])
        assert blown.valid.tolist() == [False, True]
        assert np.all(np.isfinite(blown.Yinv[1]))
        assert np.sum(~singular.valid) == 3
        assert np.all(singular.Y[:, 1, 0, 0] == 0.0)
        assert np.all(np.isnan(singular.Yinv[:, 1:]))
        npt.assert_array_equal(singular.Yinv[:, 0], np.broadcast_to(np.eye(2), (3, 2, 2)))

    def test_blowup_is_flagged_not_raised(self):
        # Step factor |1 - theta*dt| > 1 makes the scheme explode; starting
        # one path near the float ceiling overflows it within a few steps
        # while the path started at the origin stays finite.
        model = make_model("ornstein_uhlenbeck", {"theta": 600.0})
        g = TimeGrid(horizon=1.0, steps=256)
        inc = sample_brownian_block(g, 1, seed=1, first_path=0, n_paths=2)
        x0 = np.array([[1e308], [0.0]])
        batch = simulate_variation_batch(model, g, inc, x0=x0)
        assert batch.valid.tolist() == [False, True]
        assert np.sum(~batch.valid) == 1
        assert np.all(np.isfinite(batch.X[1]))

    def test_bad_increment_shape_rejected(self):
        model = make_model("ornstein_uhlenbeck")
        g = TimeGrid(horizon=1.0, steps=16)
        with pytest.raises(ValueError, match="shape"):
            simulate_variation_batch(model, g, np.zeros((2, 15, 1)), x0=[0.0])

    def test_state_only_scheme_matches_full_simulation(self):
        model = make_model("state_dependent_tanh")
        g = TimeGrid(horizon=1.0, steps=64)
        inc = sample_brownian_block(g, 1, seed=8, first_path=0, n_paths=16)
        batch = simulate_variation_batch(model, g, inc, x0=[0.5])
        xT = euler_state_batch(model, g, inc, x0=[0.5])
        assert np.array_equal(xT, batch.X[:, -1])


class TestTrajectoryCsv:
    def test_header_layout(self):
        assert trajectory_csv_header(1) == "path,i,t,X_1,Y_11,Yinv_11,Z_111"
        h2 = trajectory_csv_header(2)
        assert h2.startswith("path,i,t,X_1,X_2,Y_11,Y_12,Y_21,Y_22,")
        assert h2.count("Z_") == 8

    def test_roundtrip_values(self):
        model = make_model("ornstein_uhlenbeck")
        g = TimeGrid(horizon=1.0, steps=4)
        inc = sample_brownian_block(g, 1, seed=6, first_path=0, n_paths=2)
        batch = simulate_variation_batch(model, g, inc, x0=[0.3])
        buf = io.StringIO()
        write_trajectories_csv(buf, batch, path_ids=[10, 11])
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == trajectory_csv_header(1)
        assert len(lines) == 1 + 2 * 5
        first = lines[1].split(",")
        assert first[0] == "10" and first[1] == "0"
        assert float(first[2]) == 0.0
        assert float(first[3]) == 0.3
        last = lines[-1].split(",")
        assert last[0] == "11" and last[1] == "4"
        assert float(last[3]) == batch.X[1, 4, 0]

    def test_header_suppression_for_appends(self):
        model = make_model("ornstein_uhlenbeck")
        g = TimeGrid(horizon=1.0, steps=4)
        inc = sample_brownian_block(g, 1, seed=6, first_path=0, n_paths=1)
        batch = simulate_variation_batch(model, g, inc, x0=[0.0])
        buf = io.StringIO()
        write_trajectories_csv(buf, batch, header=False)
        assert not buf.getvalue().startswith("path,")


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 20), st.integers(min_value=2, max_value=40))
def test_noise_purity_across_grid_sizes(path_index, steps):
    # The stream depends only on (seed, path_index); a shorter grid's draws
    # are a prefix of a longer grid's draws scaled by the dt ratio.
    g1 = TimeGrid(horizon=1.0, steps=steps)
    g2 = TimeGrid(horizon=1.0, steps=steps + 5)
    a = sample_brownian_block(g1, 1, seed=77, first_path=path_index, n_paths=1)[0]
    b = sample_brownian_block(g2, 1, seed=77, first_path=path_index, n_paths=1)[0]
    ratio = np.sqrt(g1.dt / g2.dt)
    npt.assert_allclose(a, b[:steps] * ratio, rtol=1e-12)


@pytest.mark.parametrize(
    "name,x0", [("state_dependent_tanh", [0.2]), ("linear_multidim", [0.1, -0.2])]
)
def test_single_paths_are_row_slices_of_a_batch(name, x0):
    # A path simulated, bundled and integrated inside a 64-path block is
    # bit-for-bit the same as that path run through the pipeline alone.
    model = make_model(name)
    g = TimeGrid(horizon=1.0, steps=32)
    inc = sample_brownian_block(g, model.d, seed=2, first_path=0, n_paths=64)
    block = simulate_variation_batch(model, g, inc, x0=x0)
    block_bundle = compute_bundle_batch(block)
    block_out = skorokhod_batch(block, block_bundle)
    for p in (0, 3, 63):
        one_inc = sample_brownian_block(g, model.d, seed=2, first_path=p, n_paths=1)
        assert np.array_equal(one_inc[0], inc[p])
        one = simulate_variation_batch(model, g, one_inc, x0=x0)
        sliced = block.take([p])
        for field in ("X", "Y", "Yinv", "Z", "dB", "valid"):
            assert np.array_equal(getattr(sliced, field), getattr(one, field)), field
        one_bundle = compute_bundle_batch(one)
        assert np.array_equal(block_bundle.gamma[p], one_bundle.gamma[0])
        assert np.array_equal(block_bundle.F[p], one_bundle.F[0])
        one_out = skorokhod_batch(one, one_bundle)
        for key in ("ito", "a", "b", "c", "total"):
            assert np.array_equal(block_out[key][p], one_out[key][0]), key
