import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathscore.models import (
    BUILTIN_MODELS,
    SdeModel,
    check_derivatives,
    divergence_sigma_sigma_T,
    make_model,
)


def test_builtin_registry_contents():
    assert set(BUILTIN_MODELS) == {
        "ornstein_uhlenbeck",
        "bounded_nonlinear_drift",
        "state_dependent_tanh",
        "linear_multidim",
    }


def test_unknown_model_refused():
    with pytest.raises(ValueError, match="unknown model"):
        make_model("geometric_brownian")


def test_unknown_parameter_refused():
    with pytest.raises(ValueError, match="theta2"):
        make_model("ornstein_uhlenbeck", {"theta2": 1.0})


class TestOrnsteinUhlenbeck:
    def test_coefficients_at_point(self):
        m = make_model("ornstein_uhlenbeck", {"theta": 2.0, "sigma0": 0.5})
        x = np.array([[1.5]])
        npt.assert_allclose(m.b(0.0, x), [[-3.0]])
        npt.assert_allclose(m.sigma(0.0, x), [[[0.5]]])
        npt.assert_allclose(m.db(0.0, x), [[[-2.0]]])
        npt.assert_allclose(m.dsigma(0.0, x), np.zeros((1, 1, 1, 1)))
        npt.assert_allclose(m.d2b(0.0, x), np.zeros((1, 1, 1, 1)))
        assert m.linear

    def test_dimensions(self):
        m = make_model("ornstein_uhlenbeck")
        assert (m.m, m.d) == (1, 1)


class TestBoundedNonlinearDrift:
    def test_drift_values(self):
        # b(u) = -k u / (1 + u^2) with u = x - a; at u = 1: -k/2
        m = make_model("bounded_nonlinear_drift", {"k": 2.0, "a": 0.5, "sigma0": 1.0})
        x = np.array([[1.5]])
        npt.assert_allclose(m.b(0.0, x), [[-1.0]])
        # db = -k (1 - u^2)/(1 + u^2)^2 = 0 at u = 1
        npt.assert_allclose(m.db(0.0, x), [[[0.0]]], atol=1e-15)
        # d2b = -2 k u (u^2 - 3)/(1 + u^2)^3 = -2*2*1*(-2)/8 = 1
        npt.assert_allclose(m.d2b(0.0, x), [[[[1.0]]]], atol=1e-15)

    def test_drift_is_bounded(self):
        m = make_model("bounded_nonlinear_drift")
        x = np.linspace(-50, 50, 101)[:, None]
        assert np.abs(m.b(0.0, x)).max() <= 0.5 + 1e-12


class TestStateDependentTanh:
    def test_sigma_values(self):
        m = make_model("state_dependent_tanh", {"alpha": 0.5, "sigma0": 2.0})
        x = np.array([[0.0]])
        npt.assert_allclose(m.sigma(0.0, x), [[[2.0]]])
        npt.assert_allclose(m.dsigma(0.0, x), [[[[1.0]]]])  # sigma0*alpha*(1-0)
        npt.assert_allclose(m.d2sigma(0.0, x), np.zeros((1, 1, 1, 1, 1)), atol=1e-15)

    def test_sigma_stays_positive(self):
        m = make_model("state_dependent_tanh", {"alpha": 0.9})
        x = np.linspace(-30, 30, 61)[:, None]
        assert m.sigma(0.0, x).min() > 0

    def test_alpha_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            make_model("state_dependent_tanh", {"alpha": 1.0})
        with pytest.raises(ValueError, match="alpha"):
            make_model("state_dependent_tanh", {"alpha": -1.5})

    def test_not_state_independent(self):
        m = make_model("state_dependent_tanh")
        assert not m.linear
        assert m.dsigma(0.0, np.array([[0.0]]))[0, 0, 0, 0] != 0.0


class TestLinearMultidim:
    def test_shapes(self):
        m = make_model("linear_multidim")
        assert (m.m, m.d) == (2, 2)
        x = np.zeros((3, 2))
        assert m.b(0.0, x).shape == (3, 2)
        assert m.sigma(0.0, x).shape == (3, 2, 2)
        assert m.db(0.0, x).shape == (3, 2, 2)
        assert m.dsigma(0.0, x).shape == (3, 2, 2, 2)

    def test_drift_is_matrix_action(self):
        A = [[-1.0, 0.5], [0.0, -2.0]]
        m = make_model("linear_multidim", {"A": A})
        x = np.array([[1.0, 2.0]])
        npt.assert_allclose(m.b(0.0, x), [[0.0, -4.0]])
        npt.assert_allclose(m.db(0.0, x)[0], A)

    def test_wrong_shape_refused(self):
        with pytest.raises(ValueError, match="2x2"):
            make_model("linear_multidim", {"A": [[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]]})


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
def test_derivative_selfcheck_passes(name):
    report = check_derivatives(make_model(name), seed=7)
    assert report.ok, report.flagged


def test_derivative_selfcheck_catches_wrong_hessian():
    base = make_model("bounded_nonlinear_drift")
    from dataclasses import replace

    broken = replace(base, d2b=lambda t, x: 0.5 * base.d2b(t, x))
    report = check_derivatives(broken, seed=7)
    assert not report.ok
    assert any("d2b" in entry for entry in report.flagged)


def test_derivative_selfcheck_catches_wrong_jacobian():
    base = make_model("state_dependent_tanh")
    from dataclasses import replace

    broken = replace(base, dsigma=lambda t, x: -base.dsigma(t, x))
    report = check_derivatives(broken, seed=7)
    assert not report.ok
    assert any("dsigma" in entry for entry in report.flagged)


class TestDivergence:
    def test_zero_for_state_independent(self):
        m = make_model("ornstein_uhlenbeck")
        x = np.array([[0.7], [-1.2]])
        npt.assert_allclose(divergence_sigma_sigma_T(m, 0.0, x, m.sigma(0.0, x)), np.zeros((2, 1)))

    def test_tanh_closed_form(self):
        # For m = d = 1: div(sigma^2) = 2 sigma sigma' = 2 sigma0^2 (1+a th)(a(1-th^2))
        m = make_model("state_dependent_tanh", {"alpha": 0.5, "sigma0": 1.5})
        x = np.array([[0.3]])
        th = np.tanh(0.3)
        expected = 2 * 1.5 * (1 + 0.5 * th) * 1.5 * 0.5 * (1 - th**2)
        npt.assert_allclose(
            divergence_sigma_sigma_T(m, 0.0, x, m.sigma(0.0, x)), [[expected]], rtol=1e-12
        )


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
)
def test_coefficients_broadcast_over_batches(batch, xval):
    m = make_model("state_dependent_tanh")
    x = np.full((batch, 1), xval)
    assert m.b(0.1, x).shape == (batch, 1)
    assert m.sigma(0.1, x).shape == (batch, 1, 1)
    assert np.all(np.isfinite(m.dsigma(0.1, x)))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-0.95, max_value=0.95), st.floats(min_value=-5, max_value=5))
def test_tanh_derivative_consistency(alpha, xval):
    # dsigma must be the exact derivative of sigma at every admissible alpha
    m = make_model("state_dependent_tanh", {"alpha": alpha})
    x = np.array([[xval]])
    h = 1e-6
    fd = (m.sigma(0.0, x + h) - m.sigma(0.0, x - h)) / (2 * h)
    npt.assert_allclose(m.dsigma(0.0, x)[0, 0, 0, 0], fd[0, 0, 0], atol=1e-7)


def test_affine_flag_only_on_models_without_curvature():
    # On a model declared linear the simulator never evaluates dsigma, d2b or
    # d2sigma, reads db at the origin and shares one Y over every path, so
    # those three must vanish and db and sigma must not move with the state,
    # at check_derivatives' states and far beyond them.
    flagged = sorted(name for name in BUILTIN_MODELS if make_model(name).linear)
    assert flagged == ["linear_multidim", "ornstein_uhlenbeck"]
    for name in flagged:
        model = make_model(name)
        rng = np.random.Generator(np.random.Philox(key=np.array([0, 0], dtype=np.uint64)))
        x = rng.uniform(-2.0, 2.0, size=(100, model.m))
        t = rng.uniform(0.0, 1.0, size=(100,))
        wide = np.random.default_rng(23)
        x = np.concatenate([x, wide.uniform(-5.0, 5.0, size=(200, model.m))])
        t = np.concatenate([t, wide.uniform(0.0, 1.0, size=200)])
        for coeff in ("dsigma", "d2b", "d2sigma"):
            assert np.all(getattr(model, coeff)(t, x) == 0.0), (name, coeff)
        for coeff in ("db", "sigma"):
            values = getattr(model, coeff)(t, x)
            assert np.all(values == values[:1]), (name, coeff)
