import numpy as np
import pytest
from hypothesis import given, strategies as st

from starlab import classify_expansion, integrate_alpha
from starlab.config import validate_config
from starlab.errors import ConfigInvalid, InvalidParams
from starlab.expansion import (COLLAPSE, LINEAR, POSITIVE_DELTA, SELF_SIMILAR,
                               alpha_closed_form, fit_collapse_exponent,
                               integrate_to_collapse)


class TestClassification:
    def test_escape_speed_is_self_similar(self):
        p = classify_expansion(-0.5, 1.0, 1.0)
        assert p.classification == SELF_SIMILAR
        assert p.a1_star == pytest.approx(1.0)

    def test_zero_delta_is_linear(self):
        p = classify_expansion(0.0, 1.0, 1.0)
        assert p.classification == LINEAR

    def test_below_escape_collapses(self):
        assert classify_expansion(-0.5, 1.0, 0.5).classification == COLLAPSE

    def test_zero_delta_contracting_collapses(self):
        # alpha = a0 + a1 t reaches 0 at t = a0/|a1|; a1 = 0 is the static star
        p = classify_expansion(0.0, 2.0, -0.5)
        assert p.classification == COLLAPSE
        assert integrate_to_collapse(p).T_collapse == pytest.approx(4.0, rel=1e-9)
        assert classify_expansion(0.0, 1.0, 0.0).classification == LINEAR

    def test_positive_delta(self):
        assert classify_expansion(1.0, 1.0, 0.0).classification == POSITIVE_DELTA

    def test_invalid_a0(self):
        with pytest.raises(InvalidParams):
            classify_expansion(0.0, -1.0, 1.0)

    @given(delta=st.floats(-3.0, 3.0), a0=st.floats(0.1, 5.0), a1=st.floats(-2.0, 4.0))
    def test_classification_total(self, delta, a0, a1):
        p = classify_expansion(delta, a0, a1)
        assert p.classification in (SELF_SIMILAR, LINEAR, COLLAPSE, POSITIVE_DELTA)
        if delta < 0:
            assert p.a1_star == pytest.approx(np.sqrt(2 * abs(delta) / a0))
        if np.isfinite(p.beta1):
            assert p.beta1 <= p.beta2


class TestIntegration:
    def test_self_similar_closed_form(self):
        p = classify_expansion(-0.5, 1.0, 1.0)
        path = integrate_alpha(p, 10.0)
        exact = alpha_closed_form(p, path.t_samples)
        assert np.max(np.abs(path.alpha - exact) / exact) < 1e-8
        assert path.alpha_at(1.0) == pytest.approx(2.5 ** (2.0 / 3.0), rel=1e-10)

    def test_linear_exact(self):
        p = classify_expansion(0.0, 2.0, 3.0)
        path = integrate_alpha(p, 5.0)
        assert path.alpha_at(4.0) == pytest.approx(14.0, abs=1e-10)

    def test_ode_residual_on_dense_output(self):
        p = classify_expansion(1.0, 1.0, 0.0)
        path = integrate_alpha(p, 5.0)
        # alpha''(0) = delta / a0^2 = 1; FD on the integrated alpha'
        h = 1e-5
        app = (path.alpha_prime_at(h) - path.alpha_prime_at(0.0)) / h
        assert app == pytest.approx(1.0, abs=1e-6)
        t = np.linspace(0.1, 4.9, 50)
        app = (path.alpha_prime_at(t + h) - path.alpha_prime_at(t - h)) / (2 * h)
        assert np.max(np.abs(app * path.alpha_at(t) ** 2 - 1.0)) < 1e-6

    def test_monotone_growth(self):
        for delta, a1 in ((1.0, 0.0), (0.0, 1.0)):
            path = integrate_alpha(classify_expansion(delta, 1.0, a1), 8.0)
            tail = path.alpha[path.t_samples > 1.0]
            assert np.all(np.diff(tail) > 0)

    def test_linear_growth_bounds(self):
        # a0 e^{beta1 tau} <= alpha <= a0 e^{beta2 tau}, and alpha_tau = alpha alpha'
        # between beta1 alpha and beta2 alpha
        path = integrate_alpha(classify_expansion(-0.5, 1.0, 1.5), 8.0)
        p, a, tau, slack = path.params, path.alpha, path.tau_samples, 1e-8
        assert np.all(a >= p.a0 * np.exp(p.beta1 * tau) * (1 - slack))
        assert np.all(a <= p.a0 * np.exp(p.beta2 * tau) * (1 + slack))
        alpha_tau = a * path.alpha_prime
        assert np.all(alpha_tau >= p.beta1 * a * (1 - slack) - slack)
        assert np.all(alpha_tau <= p.beta2 * a * (1 + slack) + slack)

    def test_collapse(self):
        p = classify_expansion(-0.5, 1.0, 0.5)
        path = integrate_to_collapse(p)
        assert path.T_collapse is not None and path.T_collapse > 0
        assert abs(fit_collapse_exponent(path) - 2.0 / 3.0) < 0.02

    def test_collapse_reached_carries_path(self):
        # a collapse is a result: the path ends short of the request and carries T
        p = classify_expansion(-0.5, 1.0, 0.5)
        path = integrate_alpha(p, 1e6)
        assert path.T_collapse is not None and path.t_end < path.T_collapse < 1e6
        assert path.t_samples[-1] == path.t_end


class TestClocks:
    def test_self_similar_clock_closed_form(self):
        p = classify_expansion(-0.5, 1.0, 1.0)
        assert integrate_alpha(p, 1.0).s_samples[-1] == pytest.approx(
            (2.0 / 3.0) * np.log(2.5), abs=1e-9)
        path = integrate_alpha(p, 10.0)
        assert path.s_samples[0] == 0.0
        b = np.sqrt(2 * 0.5)
        s = path.s_samples
        closed = (np.log(path.alpha) - np.log(1.0)) / b
        assert np.max(np.abs(s - closed)) < 1e-9
        # round trip: alpha_bar(s(t)) = a0 e^{b s(t)} = alpha(t)
        assert np.max(np.abs(p.a0 * np.exp(p.b * s) - path.alpha) / path.alpha) < 1e-10

    def test_linear_clock(self):
        # delta = 0: tau(t) = log(1 + a1 t/a0)/a1, inverted by t = a0 expm1(a1 tau)/a1
        path = integrate_alpha(classify_expansion(0.0, 1.0, 2.0), 7.0)
        assert path.tau_samples[0] == 0.0
        assert np.max(np.abs(np.expm1(2.0 * path.tau_samples) / 2.0
                             - path.t_samples)) < 1e-12 * 7 * 10
        # a1 = 0 limit: tau = t / a0
        assert integrate_alpha(classify_expansion(0.0, 2.0, 0.0), 3.0).tau_samples[-1] \
            == pytest.approx(1.5)

    def test_numerical_tau_matches_closed_form(self):
        # delta = 0: tau(t) = int_0^t dt/(a0 + a1 t) = log(1 + a1 t/a0)/a1
        path = integrate_alpha(classify_expansion(0.0, 1.0, 2.0), 3.0)
        assert np.max(np.abs(path.tau_samples
                             - np.log1p(2.0 * path.t_samples) / 2.0)) < 1e-10


class TestGate:
    def test_gate(self):
        # thermodynamic expansion exists iff 3K = c_nu; the config enforces it
        def gate_errors(K, c_nu):
            try:
                validate_config({"scenario": "evolve-thermo",
                                 "model": {"K": K, "c_nu": c_nu, "epsilon": 0.5 / K}})
            except ConfigInvalid as exc:
                return exc.errors
            return []

        assert "3K - c_nu = 0" not in gate_errors(1.0, 3.0)
        assert "3K - c_nu = 0" in gate_errors(1.0, 2.9)
        assert "3K - c_nu = 0" not in gate_errors(0.5, 1.5)
