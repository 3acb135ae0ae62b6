import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad
from scipy.optimize import brentq

from oracles import integrate_alpha, integrate_phase
from starlab import classify_expansion, PhaseState
from starlab.errors import InvalidParams, WrongClassification
from starlab.expansion import AlphaClock
from starlab.lagrangian import (LINEAR_REGIME, THERMO_REGIME, SolverSpec,
                                evolve_linear_isentropic, evolve_linear_thermo,
                                evolve_self_similar, reconstruct_eulerian)
from starlab.profiles import sample_background

N = 96


def background(prof):
    return sample_background(prof, np.linspace(0.0, prof.R0, N + 1))


def bump(x, R0, amp):
    c, w = 0.45 * R0, 0.25 * R0
    return amp * np.where(np.abs(x - c) < w, 0.5 * (1 + np.cos(np.pi * (x - c) / w)), 0.0)


@pytest.fixture(scope="module")
def pars0():
    return classify_expansion(0.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def parst():
    return classify_expansion(0.0, 1.0, 20.0)


class TestExactSolutionPreservation:
    def test_self_similar(self, iso_ss, pars_ss):
        z = np.zeros(N + 1)
        run = evolve_self_similar(iso_ss, pars_ss, (z, z), 1.0, SolverSpec(n_cells=N, n_emit=5))
        assert max(np.max(np.abs(s.theta)) for s in run.snapshots) <= 1e-12
        assert max(np.max(np.abs(s.theta_t)) for s in run.snapshots) <= 1e-12

    def test_linear(self, iso0, pars0):
        z = np.zeros(N + 1)
        run = evolve_linear_isentropic(iso0, pars0, (z, z), 2.0, SolverSpec(n_cells=N, n_emit=5))
        assert max(np.max(np.abs(s.theta)) for s in run.snapshots) <= 1e-12

    def test_thermo(self, thermo14, parst):
        z = np.zeros(N + 1)
        run = evolve_linear_thermo(thermo14, parst, (z, z, z), 0.5,
                                   SolverSpec(n_cells=N, n_emit=5))
        assert max(np.max(np.abs(s.theta)) for s in run.snapshots) <= 1e-12
        assert max(np.max(np.abs(s.zeta)) for s in run.snapshots) <= 1e-12


class TestHomogeneousReduction:
    def test_self_similar_matches_phase_ode(self, iso_ss, pars_ss):
        ones = np.ones(65)
        spec = SolverSpec(n_cells=64, order=2, dt_max=2e-3, n_emit=21, growth_threshold=1.0)
        run = evolve_self_similar(iso_ss, pars_ss, (0.01 * ones, 0.05 * ones), 2.0, spec)
        traj = integrate_phase(PhaseState(0.01, 0.05, pars_ss.delta), 2.0)
        sup = max(abs(float(traj.sol.sol(s.clock)[0])) for s in run.snapshots)
        err = max(abs(s.theta[32] - float(traj.sol.sol(s.clock)[0]))
                  for s in run.snapshots)
        assert err / sup < 1e-4
        # spatial uniformity is preserved exactly by the discrete operators
        assert max(np.max(s.theta) - np.min(s.theta) for s in run.snapshots) < 1e-12

    def test_linear_matches_reduced_ode(self, iso0, pars0):
        ones = np.ones(65)
        spec = SolverSpec(n_cells=64, order=2, dt_max=2e-3, n_emit=21, growth_threshold=1.0)
        run = evolve_linear_isentropic(iso0, pars0, (0.01 * ones, 0.05 * ones), 2.0, spec)
        exact = lambda tau: 0.01 + 0.05 * (1.0 - np.exp(-tau))
        err = max(abs(s.theta[10] - exact(s.clock)) for s in run.snapshots)
        assert err / 0.06 < 1e-4


class TestInvariants:
    def test_center_symmetry_persists(self, iso0, pars0):
        x = np.linspace(0.0, iso0.R0, N + 1)
        th0 = 1e-3 * (0.5 + 0.5 * np.cos(np.pi * x / iso0.R0))
        run = evolve_linear_isentropic(iso0, pars0, (th0, 0 * th0), 1.0,
                                       SolverSpec(n_cells=N, n_emit=5))
        dx = x[1] - x[0]
        for s in run.snapshots:
            one_sided = (-3 * s.theta[0] + 4 * s.theta[1] - s.theta[2]) / (2 * dx)
            grad_scale = np.max(np.abs(np.gradient(s.theta, x))) + 1e-15
            assert abs(one_sided) < 1e-2 * grad_scale

    def test_stability_range_warning(self, pars0):
        import warnings
        from starlab import solve_isentropic_profile
        prof = solve_isentropic_profile(-1.5e-3)
        from starlab import classify_expansion
        # delta <= -a0 a1^2 / 8 with a1 = 0.1: -1.5e-3 <= -1.25e-3
        pars = classify_expansion(-1.5e-3, 1.0, 0.1)
        z = np.zeros(49)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evolve_linear_isentropic(prof, pars, (z, z), 0.05, SolverSpec(n_cells=48, n_emit=2))
        assert any("stability" in str(w.message) for w in caught)

    def test_too_few_cells_named(self, iso0, pars0):
        # the config's floor: the massless end nodes need interior neighbours
        with pytest.raises(InvalidParams, match="solver.n_cells >= 8"):
            SolverSpec(n_cells=7)
        z = np.zeros(9)
        run = evolve_linear_isentropic(iso0, pars0, (z, z), 0.1, SolverSpec(n_cells=8))
        assert run.completed

    def test_negative_first_step_named(self):
        # no config key sets dt_init; a negative one made a singular velocity solve
        with pytest.raises(InvalidParams, match="solver.dt_init > 0 when set"):
            SolverSpec(dt_init=-1e-3)


class TestEnergyIdentity:
    def test_residual_converges(self, iso_ss, pars_ss):
        residuals = []
        for n in (48, 96):
            x = np.linspace(0.0, iso_ss.R0, n + 1)
            phi0 = bump(x, iso_ss.R0, 1e-2)
            dt = 0.2 * iso_ss.R0 / n
            spec = SolverSpec(n_cells=n, dt_init=dt, dt_max=dt, cfl=0.9, n_emit=3,
                              growth_threshold=1.0)
            run = evolve_self_similar(iso_ss, pars_ss, (phi0, np.zeros_like(phi0)),
                                      1.0, spec, energy=True)
            assert np.min(run.dissipation) >= 0.0
            residuals.append(abs(run.energy[-1] - run.energy[0] + run.visc_work[-1]))
        assert residuals[1] < 0.6 * residuals[0]


def first_snapshot(evolve, prof, pars, initial):
    """The run's first snapshot: the initial data with its implied clock derivatives."""
    h = 1e-6
    run = evolve(prof, pars, initial, h, SolverSpec(n_cells=N, dt_init=h, n_emit=2))
    return run.snapshots[0]


class TestInitialSecondDerivatives:
    def test_zero_data(self, iso0, pars0):
        z = np.zeros(N + 1)
        th2 = first_snapshot(evolve_linear_isentropic, iso0, pars0, (z, z)).theta_tt
        assert np.max(np.abs(th2)) == 0.0

    def test_x_independent_matches_reduced_ode(self, iso0, pars0):
        c = 1e-3 * np.ones(N + 1)
        th2 = first_snapshot(evolve_linear_isentropic, iso0, pars0, (c, 0.5 * c)).theta_tt
        # delta = 0 reduction: a0 th2 + a0 a1 th1 = 0 (end nodes extrapolated)
        assert np.max(np.abs(th2 + 0.5e-3)) < 1e-9

    def test_fd_oracle_core(self, iso0, pars0):
        x = np.linspace(0.0, iso0.R0, N + 1)
        th0 = 1e-3 * (0.7 + 0.3 * np.cos(np.pi * x / iso0.R0))
        th1 = 0.5e-3 * np.ones_like(th0)
        th2 = first_snapshot(evolve_linear_isentropic, iso0, pars0, (th0, th1)).theta_tt
        w = x**4 * iso0.rho_at(x)
        core = x <= 0.8 * iso0.R0
        errs = []
        for h in (2e-5, 1e-5):
            run = evolve_linear_isentropic(iso0, pars0, (th0, th1), h,
                                           SolverSpec(n_cells=N, dt_init=h, n_emit=2))
            fd = (run.final.theta_t - th1) / h
            errs.append(np.sqrt(np.trapezoid((w * (fd - th2) ** 2)[core], x[core])
                                / np.trapezoid((w * th2**2)[core], x[core])))
        assert errs[1] < 0.7 * errs[0]
        assert errs[1] < 1e-3

    def test_thermo_zeta1_dirichlet(self, thermo14, parst):
        x = np.linspace(0.0, thermo14.R0, N + 1)
        xi0 = 1e-3 * (0.7 + 0.3 * np.cos(np.pi * x / thermo14.R0))
        zeta0 = xi0 * (thermo14.R0 - x) / thermo14.R0
        snap = first_snapshot(evolve_linear_thermo, thermo14, parst,
                              (xi0, np.zeros_like(xi0), zeta0))
        xi2, zeta1 = snap.theta_tt, snap.zeta_t
        assert zeta1[-1] == 0.0
        assert np.all(np.isfinite(xi2)) and np.all(np.isfinite(zeta1))


class TestThermoRun:
    def test_dirichlet_and_heating(self, thermo14, parst):
        x = np.linspace(0.0, thermo14.R0, N + 1)
        xi0 = 1e-4 * (0.7 + 0.3 * np.cos(np.pi * x / thermo14.R0))
        zeta0 = 1e-4 * (thermo14.R0 - x) / thermo14.R0
        run = evolve_linear_thermo(thermo14, parst, (xi0, np.zeros_like(xi0), zeta0),
                                   0.5, SolverSpec(n_cells=N, n_emit=11))
        assert run.completed
        for s in run.snapshots:
            assert s.zeta[-1] == 0.0
        # viscous heating is a square
        from starlab.lagrangian import _Kernel
        kernel = _Kernel(background(thermo14), run.alpha_clock, 1.0)
        for s in run.snapshots:
            assert np.min(kernel.thermo_aux(s.theta, s.theta_t)[3]) >= 0.0
        # absolute temperature positive in the interior
        for s in run.snapshots:
            assert np.all(s.zeta[1:-1] + kernel.theta_b[1:-1] > 0)

    def test_rejects_incompatible_zeta(self, thermo14, parst):
        x = np.linspace(0.0, thermo14.R0, N + 1)
        bad = np.ones(N + 1)
        with pytest.raises(InvalidParams):
            evolve_linear_thermo(thermo14, parst, (0 * bad, 0 * bad, bad), 0.1,
                                 SolverSpec(n_cells=N))

    def test_requires_linear_params(self, thermo14):
        z = np.zeros(N + 1)
        with pytest.raises(WrongClassification):
            evolve_linear_thermo(thermo14, classify_expansion(-0.5, 1.0, 0.5),
                                 (z, z, z), 0.1, SolverSpec(n_cells=N))

    @pytest.mark.parametrize("scheme", [dict(order=2)])
    def test_rejects_schemes_it_does_not_step(self, thermo14, parst, scheme):
        z = np.zeros(N + 1)
        with pytest.raises(InvalidParams, match="for evolve-thermo"):
            evolve_linear_thermo(thermo14, parst, (z, z, z), 0.1,
                                 SolverSpec(n_cells=N, **scheme))


class TestBoundaryStress:
    def test_viscous_stress_vanishes_at_vacuum_edge(self, iso_ss, pars_ss):
        # the massless vacuum row reduces to the quasi-static viscous
        # balance, so the discrete zero-stress condition holds to machine
        # precision at the boundary edge
        x = np.linspace(0.0, iso_ss.R0, N + 1)
        phi0 = bump(x, iso_ss.R0, 1e-2)
        run = evolve_self_similar(iso_ss, pars_ss, (phi0, 0 * phi0), 0.5,
                                  SolverSpec(n_cells=N, n_emit=3, growth_threshold=1.0))
        f, v = run.final.theta, run.final.theta_t
        dx = x[1] - x[0]
        Hm = 1 + 0.5 * (f[-2] + f[-1])
        Jm = Hm + 0.5 * (x[-2] + x[-1]) * (f[-1] - f[-2]) / dx
        vm = 0.5 * (v[-2] + v[-1])
        stress = (4.0 / 3.0) * ((vm + 0.5 * (x[-2] + x[-1]) * (v[-1] - v[-2]) / dx) / Jm
                                - vm / Hm)
        assert abs(stress) < 1e-12 * max(np.max(np.abs(v)), 1e-30)


class TestGrowthEvent:
    def test_negative_energy_data_grows(self, c09_runs):
        _, _, (run,) = c09_runs((7,), n_cells=N)
        kinds = [e.kind for e in run.events]
        assert "growth" in kinds
        assert not run.completed


class TestAlphaClock:
    A1_NEAR_STAR = math.sqrt(2e-3) * (1.0 + 1e-9)

    @pytest.mark.parametrize("delta, a0, a1", [(-1e-3, 1.0, 0.1), (-0.5, 1.0, 1.2),
                                               (-1e-3, 1.0, A1_NEAR_STAR), (-1e-12, 1.0, 0.1)])
    def test_general_linear_closed_form_matches_integrated_alpha(self, delta, a0, a1):
        # the oracle integrates alpha(t) in t with tau as a quadrature state; it
        # reaches tau = 5.4 to 44, past every run end in the tests and configs
        pars = classify_expansion(delta, a0, a1)
        clock = AlphaClock(pars, LINEAR_REGIME)
        path = integrate_alpha(pars, 100.0)
        assert path.tau_samples[-1] > 5.0
        alpha = np.array([clock.alpha(tau) for tau in path.tau_samples])
        alpha_tau = np.array([clock.alpha_tau(tau) for tau in path.tau_samples])
        assert np.max(np.abs(alpha / path.alpha - 1.0)) < 1e-11
        assert np.max(np.abs(alpha_tau / (path.alpha * path.alpha_prime) - 1.0)) < 1e-11

    @pytest.mark.parametrize("a1", [0.1, 1.0, 20.0])
    def test_vanishing_delta_meets_the_delta_zero_branch(self, a1):
        near = AlphaClock(classify_expansion(-1e-15, 1.0, a1), LINEAR_REGIME)
        zero = AlphaClock(classify_expansion(0.0, 1.0, a1), LINEAR_REGIME)
        for tau in np.linspace(0.0, min(10.0, 170.0 / a1), 101):
            assert abs(near.alpha(tau) / zero.alpha(tau) - 1.0) < 1e-13
            assert abs(near.alpha_tau(tau) / zero.alpha_tau(tau) - 1.0) < 1e-12


class TestEulerian:
    def test_exact_solution(self, iso_ss, pars_ss):
        z = np.zeros(N + 1)
        run = evolve_self_similar(iso_ss, pars_ss, (z, z), 0.5, SolverSpec(n_cells=N, n_emit=3))
        snap = reconstruct_eulerian(run.final, run.alpha_clock)
        s = run.final.clock
        alpha = pars_ss.a0 * np.exp(pars_ss.b * s)
        x = run.final.x_nodes
        assert np.max(np.abs(snap.r - alpha * x)) < 1e-12
        assert np.max(np.abs(snap.rho - alpha**-3 * iso_ss.rho_at(x))) < 1e-12
        alpha_p = np.sqrt(2 * abs(pars_ss.delta) / alpha)
        assert np.max(np.abs(snap.u - alpha_p * x)) < 1e-12
        assert snap.r[0] == 0.0

    def test_mass_conservation(self, iso_ss, pars_ss):
        x = np.linspace(0.0, iso_ss.R0, N + 1)
        phi0 = bump(x, iso_ss.R0, 1e-2)
        run = evolve_self_similar(iso_ss, pars_ss, (phi0, np.zeros_like(phi0)), 0.5,
                                  SolverSpec(n_cells=N, n_emit=3, growth_threshold=1.0))
        snap = reconstruct_eulerian(run.final, run.alpha_clock)
        assert np.all(np.diff(snap.r) > 0)
        assert snap.mass_identity_residual < 1e-12
        # the Eulerian trapezoid mass against the Lagrangian one of the background
        r, rho, bg = snap.r, snap.rho, run.final.background
        euler = cumulative_trapezoid(r**2 * rho, r, initial=0.0)
        lag = cumulative_trapezoid(x**2 * bg.rho, x, initial=0.0)
        assert np.max(np.abs(euler - lag)) / lag[-1] < 1e-4

    def test_general_linear_path_matches_integrated_alpha(self, iso_ss):
        # delta != 0 on the linear branch: the run's closed-form clock against
        # alpha(t) integrated in t
        pars = classify_expansion(iso_ss.delta, 1.0, 0.1)
        x = np.linspace(0.0, iso_ss.R0, N + 1)
        th0 = bump(x, iso_ss.R0, 1e-3)
        run = evolve_linear_isentropic(iso_ss, pars, (th0, 0 * th0), 0.5,
                                       SolverSpec(n_cells=N, n_emit=3))
        snap = reconstruct_eulerian(run.final, run.alpha_clock)
        f, v, tau = run.final.theta, run.final.theta_t, run.final.clock
        # independent oracle: alpha(t) integrated in t, t inverted from
        # tau(t) = int_0^t dt'/alpha(t') by quadrature on its dense output
        path = integrate_alpha(pars, 2.0)
        tau_of = lambda t: quad(lambda u: 1.0 / float(path.alpha_at(u)), 0.0, t,
                                epsabs=1e-13, epsrel=1e-13)[0]
        t = brentq(lambda t: tau_of(t) - tau, 0.0, 2.0, xtol=1e-14)
        alpha, alpha_p = float(path.alpha_at(t)), float(path.alpha_prime_at(t))
        used = snap.r[1:] / (x[1:] * (1.0 + f[1:]))
        assert np.max(np.abs(used / alpha - 1.0)) < 1e-9
        u = alpha_p * x * (1.0 + f) + x * v
        assert np.max(np.abs(snap.u - u)) < 1e-9 * np.max(np.abs(u))

    def test_profile_params_mismatch(self, iso0, pars_ss):
        z = np.zeros(N + 1)
        with pytest.raises(InvalidParams):
            evolve_self_similar(iso0, pars_ss, (z, z), 0.1, SolverSpec(n_cells=N))
