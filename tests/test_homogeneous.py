import numpy as np
import pytest
from hypothesis import given, strategies as st

from starlab import PhaseState, curve_phi_s, energy_homogeneous, integrate_phase
from starlab.errors import DomainViolation, InvalidParams
from starlab.homogeneous import bracket


def initial_slopes(state):
    """(d phi/ds, d phi_s/ds) at s = 0 of the integrated trajectory, by a one-sided FD."""
    traj = integrate_phase(state, 2e-3)
    h = traj.s_samples[1]
    fd = lambda y: (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    return fd(traj.phi), fd(traj.phi_s)


class TestRhs:
    def test_steady_point(self):
        assert initial_slopes(PhaseState(0.0, 0.0, -0.5)) == (0.0, 0.0)

    def test_damping_only(self):
        d_phi, d_phi_s = initial_slopes(PhaseState(0.0, 0.1, -0.5))
        assert d_phi == pytest.approx(0.1, abs=1e-5)
        assert d_phi_s == pytest.approx(-0.05, abs=1e-5)

    def test_restoring_term(self):
        _, d_phi_s = initial_slopes(PhaseState(1.0, 0.0, -0.5))
        assert d_phi_s == pytest.approx(0.875, abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainViolation):
            PhaseState(-1.5, 0.0, -0.5)
        with pytest.raises(InvalidParams):
            PhaseState(0.0, 0.0, 0.5)


class TestCurveAndEnergy:
    def test_curve_values(self):
        assert curve_phi_s(0.0, -0.5) == pytest.approx(0.0)
        assert curve_phi_s(0.2, -0.5) == pytest.approx(-1.2 + 1.2 ** -0.5, abs=1e-12)
        assert float(curve_phi_s(0.2, -0.5)) == pytest.approx(-0.287129, abs=1e-6)

    def test_energy_values(self):
        assert energy_homogeneous(0.0, 0.0, -0.5) == pytest.approx(0.0, abs=1e-15)
        assert energy_homogeneous(0.0, 0.1, -0.5) == pytest.approx(0.105)
        assert energy_homogeneous(0.0, -0.1, -0.5) == pytest.approx(-0.095)

    @given(phi=st.floats(-0.9, 3.0), delta=st.floats(-5.0, -0.01))
    def test_energy_vanishes_on_curve(self, phi, delta):
        E = energy_homogeneous(phi, float(curve_phi_s(phi, delta)), delta)
        assert abs(E) < 1e-12

    def test_energy_sign_between_roots(self):
        # between the two zero-energy branches the energy is negative
        b = 1.0
        phi = 0.3
        lo = -b * (1.3) - b * 1.3 ** -0.5
        hi = float(curve_phi_s(phi, -0.5))
        mid = 0.5 * (lo + hi)
        assert energy_homogeneous(phi, mid, -0.5) < 0
        assert energy_homogeneous(phi, hi + 0.2, -0.5) > 0
        assert energy_homogeneous(phi, lo - 0.2, -0.5) > 0


class TestTrajectories:
    def test_stationary(self):
        traj = integrate_phase(PhaseState(0.0, 0.0, -0.5), 5.0)
        assert traj.fate == "Stationary"
        assert np.all(traj.phi == 0.0) and np.all(traj.phi_s == 0.0)

    def test_case1_expands(self):
        traj = integrate_phase(PhaseState(0.0, 0.05, -0.5), 40.0)
        assert traj.fate == "Expand"
        assert traj.first_escape_s is not None
        assert np.max(traj.phi) > 0.5
        # phi_s keeps growing once phi is large (runs toward infinity)
        assert traj.phi_s[-1] > traj.phi_s[0]

    def test_case2_collapses(self):
        traj = integrate_phase(PhaseState(0.0, -0.05, -0.5), 40.0)
        assert traj.fate == "Collapse"
        assert traj.first_escape_s is not None
        assert np.min(traj.phi) < -0.5
        assert traj.phi[-1] == pytest.approx(-1.0 + 1e-6, abs=1e-7)

    def test_on_curve_invariance(self):
        for phi0 in (-0.3, 0.2, 0.8):
            traj = integrate_phase(
                PhaseState(phi0, float(curve_phi_s(phi0, -0.5)), -0.5), 5.0)
            assert traj.fate == "OnCurve"
            assert np.max(traj.curve_distance) < 1e-8

    @pytest.mark.parametrize("s_end", [5.0, 10.0, 40.0])
    def test_curve_starts_stay_on_curve_on_long_runs(self, s_end):
        # B0 is exactly 0 for these starts; DOP853 drifted off the stable manifold
        # and labelled them Collapse from s_end = 10 (20 for phi0 = 0.2)
        for phi0 in (-0.3, 0.2, 0.8):
            state = PhaseState(phi0, float(curve_phi_s(phi0, -0.5)), -0.5)
            assert bracket(state.phi, state.phi_s, state.delta) == 0.0
            traj = integrate_phase(state, s_end)
            assert traj.fate == "OnCurve"
            assert np.max(traj.curve_distance) < 1e-8 and traj.identity_drift < 1e-8

    def test_identity_drift(self):
        traj = integrate_phase(PhaseState(0.0, 0.05, -0.5), 10.0)
        assert traj.identity_drift < 1e-8

    def test_monotone_escape_rate(self):
        # Case 1: the bracket grows at least like exp(b s / 2)
        delta = -0.5
        b = np.sqrt(2 * abs(delta))
        traj = integrate_phase(PhaseState(0.0, 0.05, delta), 8.0)
        B = bracket(traj.phi, traj.phi_s, delta)
        keep = traj.s_samples < (traj.first_escape_s or traj.s_samples[-1])
        slope = np.polyfit(traj.s_samples[keep], np.log(B[keep]), 1)[0]
        assert slope >= 0.99 * b / 2.0

    def test_dissipation_identically_zero(self):
        # the dissipation integrand carries only x-gradients, which vanish
        # for uniform perturbations; check through the functional
        import starlab.functionals as F
        x = np.linspace(0.0, 1.0, 33)
        _, D = F.perturbation_energy_ss(x, np.full_like(x, 0.2),
                                        np.full_like(x, -0.1),
                                        x**4, 0.5 * (x[:-1] + x[1:]) ** 2,
                                        1.0, -0.5, 1.0)
        assert D == 0.0
