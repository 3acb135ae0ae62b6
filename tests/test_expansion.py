import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from starlab import PhaseState, classify_expansion, integrate_alpha, integrate_phase
from starlab.config import validate_config
from starlab.errors import ConfigInvalid, InvalidParams
from starlab.expansion import (COLLAPSE, LINEAR, POSITIVE_DELTA, SELF_SIMILAR, AlphaClock,
                               alpha_closed_form, fit_collapse_exponent,
                               integrate_to_collapse)

PHASE_PORTRAIT = os.path.join(os.path.dirname(__file__), "..", "configs", "phase_portrait.json")


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
        clock = AlphaClock(classify_expansion(1.0, 1.0, 0.0))

        def alpha_prime_at(t):
            alpha, alpha_tau, _ = clock.path(clock.tau_at(t))
            return alpha_tau / alpha

        path = integrate_alpha(clock.params, 5.0)
        # alpha''(0) = delta / a0^2 = 1; FD on the closed form's alpha'
        h = 1e-5
        app = (alpha_prime_at(h) - alpha_prime_at(0.0)) / h
        assert app == pytest.approx(1.0, abs=1e-6)
        t = np.linspace(0.1, 4.9, 50)
        app = (alpha_prime_at(t + h) - alpha_prime_at(t - h)) / (2 * h)
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

    @pytest.mark.parametrize("a1", [-3.0, -30.0, -1e4, -1e5])
    def test_falling_positive_delta_path_keeps_its_digits(self, a1):
        # the decaying mode cancels from tau = 0 (alpha lost 4e-10 at a1 = -30 and turned
        # negative from a1 = -1e4); about the turning point nothing cancels
        mpmath = pytest.importorskip("mpmath")
        p = classify_expansion(1.0, 1.0, a1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = integrate_alpha(p, 10.0)
        assert (path.alpha > 0).all() and np.isfinite(path.s_samples).all()
        with mpmath.workdps(50):
            d, a0, a1 = map(mpmath.mpf, (p.delta, p.a0, p.a1))
            sigma = mpmath.sqrt(a1**2 + 2 * d / a0)
            ref = []
            for tau in map(mpmath.mpf, path.tau_samples):
                c, s = mpmath.cosh(sigma * tau), mpmath.sinh(sigma * tau)
                ref.append([float(a0 * c + a0 * a1 / sigma * s - d / sigma**2 * (c - 1)),
                            float(a0 * sigma * s + a0 * a1 * c - d / sigma * s),
                            float(a0 * s / sigma + a0 * a1 / sigma**2 * (c - 1)
                                  - d / sigma**2 * (s / sigma - tau))])
        alpha, alpha_tau, t = path.clock.path(path.tau_samples)
        ref_alpha, ref_alpha_tau, ref_t = np.array(ref).T
        np.testing.assert_allclose(alpha, ref_alpha, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(t, ref_t, rtol=1e-13, atol=0.0)
        # alpha_tau passes through 0 at the turn: relative to its scale sigma alpha
        assert np.max(np.abs(alpha_tau - ref_alpha_tau) / (float(sigma) * ref_alpha)) < 1e-13


def _oracle_cases():
    """c03's 12 cases, two collapses with a closed-form check, the phase portrait's starts."""
    for d, a0, a1 in [(1.0, 1.0, 0.0), (1.0, 1.0, 1.0), (0.5, 2.0, 0.5), (0.0, 1.0, 1.0),
                      (0.0, 2.0, 3.0), (-0.5, 1.0, 1.0), (-0.5, 1.0, 1.2), (-0.5, 1.0, 0.5),
                      (-2.0, 1.0, 2.0), (-2.0, 1.0, 2.5), (-2.0, 1.0, 1.0), (-0.5, 2.0, 0.2),
                      # a root finder on alpha missed this tangency by 2e-7 in T
                      (-0.5, 1.0, -2.0),
                      (0.0, 1.0, -1.0)]:                    # T = 1 exactly
        yield pytest.param("alpha", (d, a0, a1), id=f"alpha{(d, a0, a1)}")
    with open(PHASE_PORTRAIT) as fh:
        cfg = json.load(fh)
    for phi0, phi_s0 in cfg["phase_grid"]:
        yield pytest.param("phase", (phi0, phi_s0, cfg["model"]["delta"], cfg["time"]["end"]),
                           id=f"phase{(phi0, phi_s0)}")


class TestAgainstOracles:
    """The closed forms against DOP853 at rtol = atol = 1e-12 (tests/oracles.py).

    Measured: alpha within 4.1e-12 relative on the non-collapsing paths and 4.1e-11
    on the collapsing ones short of the floor, T_collapse within 1.3e-13, phi
    within 7.3e-10 short of a stop and the escapes within 2.2e-12.
    """

    @pytest.mark.parametrize("kind, case", _oracle_cases())
    def test_clock_matches_dop853(self, kind, case):
        if kind == "alpha":
            params = classify_expansion(*case)
            if params.classification != COLLAPSE:
                path, ref = integrate_alpha(params, 10.0), oracles.integrate_alpha(params, 10.0)
                assert np.max(np.abs(path.alpha_at(ref.t_samples) / ref.alpha - 1.0)) < 1e-11
                return
            path = integrate_to_collapse(params)
            ref = oracles.integrate_alpha(params, 2.0 * path.T_collapse)
            assert abs(path.T_collapse / ref.T_collapse - 1.0) < 1e-12
            t = ref.t_samples[:-1]
            assert np.max(np.abs(path.alpha_at(t) / ref.alpha[:-1] - 1.0)) < 2e-10
            if case == (0.0, 1.0, -1.0):
                assert path.T_collapse == 1.0
            else:
                assert abs(fit_collapse_exponent(path) - 2.0 / 3.0) < 2e-6
            return
        phi0, phi_s0, delta, s_end = case
        traj = integrate_phase(PhaseState(phi0, phi_s0, delta), s_end)
        ref = oracles.integrate_phase(PhaseState(phi0, phi_s0, delta), s_end)
        if traj.fate == "Stationary":
            assert np.all(ref.phi == 0.0)
            return
        assert traj.fate == ref.fate
        assert np.max(np.abs(traj.phi_at(ref.s_samples[:-1]) - ref.phi[:-1])) < 2e-9
        assert (traj.first_escape_s is None) == (ref.first_escape_s is None)
        if ref.first_escape_s is not None:
            assert abs(traj.first_escape_s - ref.first_escape_s) < 1e-11


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
        # a negative K is named by its own row, not by a negative tolerance on this one
        assert gate_errors(-2.0, -6.0) == ["model.K > 0"]
