"""Acceptance suite: every exit criterion with its stated tolerance.

Each criterion is a function that asserts its own bounds and returns a
detail dict; `run_all` times each against its budget in `_BUDGET_S` and
reports.  The suite is what `starlab verify` executes and what
tests/test_acceptance.py wraps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from . import functionals as F
from .config import InitialSpec, family_shape
from .expansion import (COLLAPSE, LINEAR, POSITIVE_DELTA, SELF_SIMILAR,
                        alpha_closed_form, classify_expansion,
                        fit_collapse_exponent, integrate_alpha,
                        integrate_to_collapse)
from .homogeneous import PhaseState, curve_phi_s, energy_homogeneous, integrate_phase
from .lagrangian import (LINEAR_REGIME, THERMO_REGIME, PerturbationField, SolverSpec,
                         evolve_ensemble, evolve_linear_isentropic, evolve_linear_thermo,
                         evolve_self_similar, reconstruct_eulerian)
from .profiles import (boundary_slope_fd, sample_background, solve_isentropic_profile,
                       solve_thermo_profile)

# Standard laboratory point for self-similar PDE runs: the empirically
# solvable negative-delta window is narrow (no first zero below about
# -2e-3), so the star is built just inside it.
SS_DELTA = -1e-3

# Runtime budget of each criterion in seconds; run_all fails a criterion past it.
_BUDGET_S = {1: 1.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 10.0, 6: 60.0, 7: 30.0, 8: 120.0,
             9: 120.0, 10: 120.0, 11: 5.0, 12: 60.0}

# One (star, expansion) per laboratory point, solved once per cache: "ss" is SS_DELTA
# at the escape speed, "linear" delta = 0 with a1 = 1, "thermo" (K, eps) = (1, 0.25)
# with a1 = 20.
_cache: dict = {}


def _point(name):
    if name not in _cache:
        if name == "thermo":
            _cache[name] = solve_thermo_profile(1.0, 0.25), classify_expansion(0.0, 1.0, 20.0)
        else:
            d = SS_DELTA if name == "ss" else 0.0
            a1 = math.sqrt(2 * abs(d)) if name == "ss" else 1.0
            _cache[name] = solve_isentropic_profile(d), classify_expansion(d, 1.0, a1)
    return _cache[name]


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    elapsed: float
    details: dict
    error: str | None = None

    def to_dict(self):
        return {"id": self.cid, "name": self.name, "passed": self.passed,
                "elapsed_s": round(self.elapsed, 3), "details": self.details,
                "error": self.error}


# -- 1 ------------------------------------------------------------------------

def lane_emden_first_zero(index: float = 3.0) -> tuple[float, float]:
    """First zero xi1 of the standard Lane-Emden equation and theta'(xi1) from the same dense
    output, by an independent route: different variables (xi instead of y = 2 xi), different
    integrator family (RK45), own bracketing/Newton refinement."""
    def rhs(xi, u):
        th, dth = u
        return (dth, -2.0 * dth / xi - np.sign(th) * np.abs(th) ** index)

    xi0 = 1e-6
    u0 = [1.0 - xi0**2 / 6.0, -xi0 / 3.0]
    sol = solve_ivp(rhs, (xi0, 20.0), u0, method="RK45", rtol=1e-12, atol=1e-12,
                    dense_output=True)
    xs = np.linspace(1.0, sol.t[-1], 4000)
    th = sol.sol(xs)[0]
    idx = np.argmax(th < 0)
    xi1 = brentq(lambda x: sol.sol(x)[0], xs[idx - 1], xs[idx], xtol=1e-13)
    return xi1, float(sol.sol(xi1)[1])


def c01_profile_isentropic() -> dict:
    """R0 = 2 xi1 and w'(R0) = theta'(xi1)/2 (y = 2 xi) to the 1e-10 contract tolerance."""
    prof, _ = _point("linear")
    xi1, dtheta1 = lane_emden_first_zero(3.0)
    details = {"R0": prof.R0, "oracle_2xi1": 2.0 * xi1, "R0_error": abs(prof.R0 - 2.0 * xi1),
               "slope_oracle_rel_error": abs(prof.boundary_slope / (0.5 * dtheta1) - 1.0)}
    assert details["R0_error"] < 1e-10 * prof.R0, "R0 disagrees with the rescaled oracle"
    assert details["slope_oracle_rel_error"] < 1e-10, "boundary slope disagrees with the oracle"
    assert abs(prof.R0 - 13.7937) < 2e-3

    slope_coarse = boundary_slope_fd(prof.y_nodes, prof.w)
    # 1024 cells of the same solve (n_cells sets only the node grid), w as the solver sets it
    y = np.linspace(0.0, prof.R0, 1025)
    w = np.clip(prof.w_at(y), 0.0, None)
    slope_fine = boundary_slope_fd(y, w)
    rel = abs(slope_coarse - slope_fine) / abs(slope_fine)
    details.update({"slope": prof.boundary_slope, "slope_fd": slope_coarse,
                    "slope_refinement_rel_change": rel})
    assert np.isfinite(prof.boundary_slope) and prof.boundary_slope < 0
    assert rel < 1e-3, "boundary slope not stable under refinement"
    return details


# -- 2 ------------------------------------------------------------------------

def c02_profile_thermo() -> dict:
    """rho = theta^m on the thermo star.  The solve carries u = rho^(1/m) and theta,
    so the residual (about 1e-14) checks the wiring of u's row; the accuracy claim is
    tests/test_profiles.py's convergence test against a tighter reference solve."""
    prof, _ = _point("thermo")
    A, m = prof.reduction_constant, prof.exponent
    inner = prof.y_nodes <= 0.95 * prof.R0
    resid = np.abs(prof.rho_bar[inner] - A * prof.theta_bar[inner] ** m)
    rel = np.max(resid / prof.rho_bar[inner])
    details = {"R0": prof.R0, "max_reduction_rel_residual": float(rel),
               "zero_gap_over_R0": prof.zero_gap / prof.R0,
               "exponent": m}
    assert m == 3.0
    assert rel < 1e-6, "Lane-Emden reduction residual too large"
    assert prof.zero_gap < 1e-6 * prof.R0, "rho and theta zeros disagree"
    return details


# -- 3 ------------------------------------------------------------------------

def c03_expansion_trichotomy() -> dict:
    cases = [
        (1.0, 1.0, 0.0, POSITIVE_DELTA),
        (1.0, 1.0, 1.0, POSITIVE_DELTA),
        (0.5, 2.0, 0.5, POSITIVE_DELTA),
        (0.0, 1.0, 1.0, LINEAR),
        (0.0, 2.0, 3.0, LINEAR),
        (-0.5, 1.0, 1.0, SELF_SIMILAR),
        (-0.5, 1.0, 1.2, LINEAR),
        (-0.5, 1.0, 0.5, COLLAPSE),
        (-2.0, 1.0, 2.0, SELF_SIMILAR),
        (-2.0, 1.0, 2.5, LINEAR),
        (-2.0, 1.0, 1.0, COLLAPSE),
        (-0.5, 2.0, 0.2, COLLAPSE),
    ]
    exponents = []
    ss_errors = []
    for delta, a0, a1, expected in cases:
        params = classify_expansion(delta, a0, a1)
        assert params.classification == expected, \
            f"({delta}, {a0}, {a1}) classified {params.classification}, want {expected}"
        if expected == SELF_SIMILAR:
            path = integrate_alpha(params, 10.0)
            exact = alpha_closed_form(params, path.t_samples)
            ss_errors.append(float(np.max(np.abs(path.alpha - exact) / exact)))
        elif expected == COLLAPSE:
            path = integrate_to_collapse(params)
            exponents.append(fit_collapse_exponent(path))
        elif expected == LINEAR and delta == 0.0:
            path = integrate_alpha(params, 4.0)
            assert abs(path.alpha_at(4.0) - (a0 + a1 * 4.0)) < 1e-10
    details = {"n_cases": len(cases), "self_similar_max_rel_error": max(ss_errors),
               "collapse_exponents": exponents}
    assert max(ss_errors) < 1e-8
    for e in exponents:
        assert abs(e - 2.0 / 3.0) < 0.02, f"collapse exponent {e} off 2/3"
    return details


# -- 4 ------------------------------------------------------------------------

def c04_phase_dichotomy() -> dict:
    delta = -0.5
    up = integrate_phase(PhaseState(0.0, 0.05, delta), 40.0)
    down = integrate_phase(PhaseState(0.0, -0.05, delta), 40.0)
    details = {"expand_escape_s": up.first_escape_s,
               "collapse_escape_s": down.first_escape_s}
    assert up.fate == "Expand" and up.first_escape_s is not None
    assert np.max(up.phi) > 0.5
    assert down.fate == "Collapse" and down.first_escape_s is not None
    assert np.min(down.phi) < -0.5

    max_dist = 0.0
    max_drift = max(up.identity_drift, down.identity_drift)
    for phi0 in (-0.3, 0.2, 0.8):
        traj = integrate_phase(
            PhaseState(phi0, float(curve_phi_s(phi0, delta)), delta), 5.0)
        assert traj.fate == "OnCurve", f"curve start {phi0} left the curve"
        max_dist = max(max_dist, float(np.max(traj.curve_distance)))
        max_drift = max(max_drift, traj.identity_drift)
    details.update({"max_curve_distance": max_dist, "max_identity_drift": max_drift})
    assert max_dist < 1e-8, "curve trajectory strayed"
    assert max_drift < 1e-8, "growth identity residual too large"
    return details


# -- 5 ------------------------------------------------------------------------

def c05_zero_energy_manifold() -> dict:
    delta = -0.5
    phis = np.linspace(-0.9, 3.0, 1000)
    E_curve = energy_homogeneous(phis, curve_phi_s(phis, delta), delta)
    details = {"max_energy_on_curve": float(np.max(np.abs(E_curve)))}
    assert np.max(np.abs(E_curve)) < 1e-12

    # Conservation along homogeneous trajectories: E_pert is constant, and
    # alpha_bar * E_pert reproduces the phase-plane energy times the fourth
    # moment at every sample (the homogeneous energy relation).
    d = SS_DELTA
    prof, _ = _point("ss")
    traj = integrate_phase(PhaseState(0.0, 0.01, d), 5.0)
    x = prof.y_nodes
    bg = sample_background(prof, x)
    rho4 = x**4 * bg.rho
    rho43 = bg.xm**2 * bg.rho43_m
    Q4 = float(np.trapezoid(rho4, x))
    b = math.sqrt(2.0 * abs(d))
    E_vals, ident = [], []
    for i in range(0, traj.s_samples.size, 20):
        s = float(traj.s_samples[i])
        E, _ = F.perturbation_energy_ss(
            x, np.full_like(x, traj.phi[i]), np.full_like(x, traj.phi_s[i]),
            rho4, rho43, 1.0, d, s)
        eh = float(energy_homogeneous(traj.phi[i], traj.phi_s[i], d))
        E_vals.append(E)
        ident.append(abs(math.exp(b * s) * E - Q4 * eh))
    E_vals = np.asarray(E_vals)
    scale = abs(E_vals[0])
    drift = float((E_vals.max() - E_vals.min()) / scale)
    ident_rel = float(max(ident) / scale)
    details.update({"E_pert_drift_rel": drift, "energy_relation_residual_rel": ident_rel})
    assert drift < 1e-6, "perturbation energy not conserved along homogeneous motion"
    assert ident_rel < 1e-6, "homogeneous energy relation violated"
    return details


# -- 6 ------------------------------------------------------------------------

def c06_energy_identity() -> dict:
    prof, params = _point("ss")
    residuals = []
    for n in (64, 128, 256):
        x = np.linspace(0.0, prof.R0, n + 1)
        phi0 = 1e-2 * family_shape(x, prof.R0, InitialSpec(family="bump"))
        dt = 0.2 * prof.R0 / n
        spec = SolverSpec(n_cells=n, order=1, dt_init=dt, dt_max=dt, cfl=0.9,
                          n_emit=3, growth_threshold=1.0)
        run = evolve_self_similar(prof, params, (phi0, np.zeros_like(phi0)), 1.0, spec,
                                  energy=True)
        assert run.completed
        assert np.min(run.dissipation) >= 0.0
        residuals.append(abs(run.energy[-1] - run.energy[0] + run.visc_work[-1]))
    r = np.asarray(residuals)
    orders = np.log2(r[:-1] / r[1:])
    details = {"residuals": residuals, "observed_orders": orders.tolist()}
    assert np.all(orders >= 1.0), f"energy identity order {orders} below 1"
    return details


# -- 7 ------------------------------------------------------------------------

def c07_ode_pde_reduction() -> dict:
    d = SS_DELTA
    prof, params = _point("ss")
    n = 64
    ones = np.ones(n + 1)
    spec = SolverSpec(n_cells=n, order=2, dt_max=2e-3, n_emit=21, growth_threshold=1.0)
    run = evolve_self_similar(prof, params, (0.01 * ones, 0.05 * ones), 2.0, spec)
    traj = integrate_phase(PhaseState(0.01, 0.05, d), 2.0)
    phi = traj.phi_at([s.clock for s in run.snapshots])
    err_ss = max(abs(s.theta[n // 2] - p) for s, p in zip(run.snapshots, phi)) / np.max(np.abs(phi))

    prof0, params0 = _point("linear")
    run0 = evolve_linear_isentropic(prof0, params0, (0.01 * ones, 0.05 * ones), 2.0, spec)
    # reduced equation at delta = 0: (alpha theta_tau)_tau = 0
    exact = lambda tau: 0.01 + 0.05 * (1.0 - math.exp(-tau))
    sup0 = max(abs(exact(s.clock)) for s in run0.snapshots)
    err_lin = max(abs(s.theta[n // 2] - exact(s.clock)) for s in run0.snapshots) / sup0

    details = {"self_similar_rel_error": float(err_ss),
               "linear_rel_error": float(err_lin)}
    assert err_ss < 1e-4, "self-similar PDE does not reduce to the phase ODE"
    assert err_lin < 1e-4, "linear PDE does not reduce to its homogeneous ODE"
    return details


# -- 8 ------------------------------------------------------------------------

def c08_stability_linear_isentropic() -> dict:
    prof, params = _point("linear")
    n = 128
    x = np.linspace(0.0, prof.R0, n + 1)
    shape = family_shape(x, prof.R0, InitialSpec(family="random-smooth", seed=3))
    probe = PerturbationField(x, shape, np.zeros_like(shape), None, 0.0, LINEAR_REGIME)
    om_unit = F.amplitude(probe)
    target = 0.75e-3
    th0 = shape * (target / om_unit)
    th1 = np.zeros_like(th0)
    spec = SolverSpec(n_cells=n, n_emit=81, growth_threshold=0.1)
    # the run and its half-amplitude twin step as one batch
    run, run_half = evolve_ensemble(prof, params, [(th0, th1), (0.5 * th0, th1)], 10.0, spec,
                                    regime=LINEAR_REGIME)
    assert run.completed, f"stable run terminated early: {run.events}"
    clocks = np.array([s.clock for s in run.snapshots])
    details = {"omega0": float(run.omega[0]), "omega_max": float(run.omega.max())}
    assert 0.5e-3 <= run.omega[0] <= 1.0e-3
    assert run.omega.max() <= 2e-3, "amplitude left the stability envelope"

    a = 0.5
    rho4 = x**4 * run.background.rho
    term = np.array([
        (math.exp((1 + a) * s.clock)) * np.trapezoid(rho4 * s.theta_t**2, x)
        for s in run.snapshots])
    upto1 = clocks <= 1.0
    C_fit = 2.0 * float(term[upto1].max())
    details.update({"velocity_term_fit": C_fit, "velocity_term_max": float(term.max())})
    assert np.all(term <= C_fit), "velocity energy term exceeded its fitted bound"

    ratio = run_half.omega.max() / run.omega.max()
    details["halving_ratio"] = float(ratio)
    assert 0.4 <= ratio <= 0.6, f"linear-response ratio {ratio} outside [0.4, 0.6]"
    return details


# -- 9 ------------------------------------------------------------------------

def negative_energy_data(prof, delta: float, x: np.ndarray, amplitude: float,
                         seed: int):
    """Inhomogeneous (phi0, phi1) with E(phi0, phi1) < 0 at the given amplitude.

    phi0 is a positive smooth inhomogeneous shape; phi1 = lambda phi0 with
    lambda chosen so the first-order energy 3|delta| + b*lambda is negative.
    """
    shape = family_shape(x, prof.R0, InitialSpec(family="random-smooth", seed=seed))
    shape = 0.6 + 0.4 * shape
    phi0 = amplitude * shape / np.max(np.abs(shape))
    b = math.sqrt(2.0 * abs(delta))
    lam = -(3.0 * abs(delta) / b + 1.0)
    return phi0, lam * phi0


def c09_instability_self_similar() -> dict:
    d = SS_DELTA
    prof, params = _point("ss")
    n = 192
    x = np.linspace(0.0, prof.R0, n + 1)
    bg = sample_background(prof, x)
    rho4 = x**4 * bg.rho
    rho43 = bg.xm**2 * bg.rho43_m
    # IMEX midpoint at CFL 1 locates each crossing to within 6e-5 of its CFL-0.1
    # value, in 40% of the steps IMEX Euler takes at CFL 0.4
    spec = SolverSpec(n_cells=n, order=2, cfl=1.0, n_emit=40, growth_threshold=0.1)
    seeds = (7, 11, 13)
    initials = [negative_energy_data(prof, d, x, 1e-3, seed) for seed in seeds]
    for seed, (phi0, phi1) in zip(seeds, initials):
        E0, D0 = F.perturbation_energy_ss(x, phi0, phi1, rho4, rho43, 1.0, d, 0.0)
        assert E0 < 0, f"seed {seed}: constructed energy {E0} not negative"
        assert D0 > 0, "data must be genuinely inhomogeneous"
    events_s, crossings_s = [], []
    # the three seeds step as one batch; each run has the bits of its own
    for seed, run in zip(seeds, evolve_ensemble(prof, params, initials, 600.0, spec)):
        growth = [e for e in run.events if e.kind == "growth"]
        assert growth, f"seed {seed}: no growth event"
        events_s.append(float(growth[0].clock))
        crossings_s.append(float(growth[0].crossing))
    details = {"growth_event_s": events_s, "growth_crossing_s": crossings_s}
    return details


# -- 10 -----------------------------------------------------------------------

def c10_stability_thermo() -> dict:
    prof, params = _point("thermo")
    n = 128
    x = np.linspace(0.0, prof.R0, n + 1)
    shape = family_shape(x, prof.R0, InitialSpec(family="random-smooth", seed=5))
    xi0 = shape.copy()
    xi1 = np.zeros_like(xi0)
    zeta0 = shape * (prof.R0 - x) / prof.R0
    probe = PerturbationField(x, xi0, xi1, None, 0.0, THERMO_REGIME, zeta0)
    scale = 1e-3 / F.amplitude(probe)
    xi0, zeta0 = xi0 * scale, zeta0 * scale
    spec = SolverSpec(n_cells=n, n_emit=41, growth_threshold=0.1)
    run = evolve_linear_thermo(prof, params, (xi0, xi1, zeta0), 1.0, spec, mu=1.0)
    assert run.completed, f"thermo run terminated early: {run.events}"
    details = {"omega0": float(run.omega[0]), "omega_max": float(run.omega.max())}
    assert abs(run.omega[0] - 1e-3) < 1e-9
    assert run.omega.max() <= 2e-3, "thermo amplitude left the stability envelope"

    from .kernel import _Kernel
    kernel = _Kernel(run.background, run.alpha_clock, 1.0)
    min_frakF = math.inf
    for s in run.snapshots:
        assert s.zeta[-1] == 0.0, "zeta(R0) not exactly zero"
        _, _, _, frakF = kernel.thermo_aux(s.theta, s.theta_t)
        min_frakF = min(min_frakF, float(np.min(frakF)))
    details["min_viscous_heating"] = min_frakF
    assert min_frakF >= 0.0, "viscous heating lost positivity"
    return details


# -- 11 -----------------------------------------------------------------------

def c11_lemma_layer() -> dict:
    # Every field is a degree-5 polynomial on [0, 1], so each side below is an
    # exact quadratic form in its coefficients: no quadrature error remains.
    # frak-A on 200 seeded fields: the margin must match the boundary term
    # 4 R0 h_x(R0)^2 that the identity predicts.
    rng = np.random.default_rng(42)
    polys = np.array([rng.uniform(-1.0, 1.0, 6) for _ in range(200)])
    lhs, rhs = F.frak_A_inequality(polys)
    margin = lhs - rhs
    bdry = 4.0 * 1.0 * (polys @ np.arange(6.0)) ** 2
    worst = float(margin.min())
    worst_ident = float((np.abs(margin - bdry) / np.maximum(lhs, 1.0)).max())
    details = {"frakA_min_margin": worst, "frakA_identity_residual": worst_ident}
    assert worst > -1e-10, "frak-A inequality violated"
    assert worst_ident < 1e-8, "frak-A boundary-term identity violated"

    # Hardy ratios: finite, and the family sup stable under doubling.
    rng = np.random.default_rng(41)
    polys = np.array([rng.uniform(-1.0, 1.0, 6) for _ in range(400)])
    sups = {}
    for k in (2.0, 3.0, 0.5, -1.0):
        coef = polys.copy()
        if k < 1.0:
            coef[:, 1] = 0.0     # g'(0) = 0 keeps int s^k g'^2 finite for k <= -1
        ratios = F.hardy_check(k, coef)[2]
        assert np.all(np.isfinite(ratios))
        sup200 = float(ratios[:200].max())
        sup400 = float(ratios.max())
        sups[k] = (sup200, sup400)
        change = abs(sup400 - sup200) / sup200
        assert change < 0.05, f"Hardy sup ratio for k={k} moved {change:.3f} on doubling"
    details["hardy_sups"] = {str(k): v for k, v in sups.items()}

    lhs, rhs, _ = F.hardy_check(2.0, [0.0, 1.0])
    details["hardy_k2_linear"] = (lhs, rhs)
    assert abs(lhs - 1.0 / 3.0) < 1e-8
    assert abs(rhs - 8.0 / 15.0) < 1e-8
    return details


# -- 12 -----------------------------------------------------------------------

def c12_conservation_sweep() -> dict:
    details = {}

    # zero-perturbation runs stay at zero (all three solvers)
    n = 96
    z = np.zeros(n + 1)
    spec = SolverSpec(n_cells=n, n_emit=5)
    prof, params = _point("ss")
    run_ss = evolve_self_similar(prof, params, (z, z), 1.0, spec)
    run_lin = evolve_linear_isentropic(*_point("linear"), (z, z), 1.0, spec)
    run_th = evolve_linear_thermo(*_point("thermo"), (z, z, z), 0.5, spec)
    zmax = max(
        max(np.max(np.abs(s.theta)) for s in run_ss.snapshots),
        max(np.max(np.abs(s.theta)) for s in run_lin.snapshots),
        max(max(np.max(np.abs(s.theta)), np.max(np.abs(s.zeta)))
            for s in run_th.snapshots))
    details["zero_run_max"] = float(zmax)
    assert zmax <= 1e-12

    # D >= 0 at every step of a perturbed self-similar run
    x = np.linspace(0.0, prof.R0, n + 1)
    phi0 = 1e-2 * family_shape(x, prof.R0, InitialSpec(family="bump"))
    run_p = evolve_self_similar(prof, params, (phi0, np.zeros_like(phi0)), 1.0,
                                SolverSpec(n_cells=n, n_emit=11, growth_threshold=1.0),
                                energy=True)
    details["min_dissipation"] = float(np.min(run_p.dissipation))
    assert np.min(run_p.dissipation) >= 0.0

    # mass conservation of the Eulerian reconstruction
    worst_ident = 0.0
    for run in (run_p, run_th):
        snap = reconstruct_eulerian(run.final, run.alpha_clock)
        worst_ident = max(worst_ident, snap.mass_identity_residual)
    details["mass_identity_residual"] = worst_ident
    assert worst_ident < 1e-8
    return details


CRITERIA = [
    (1, "isentropic profile oracle", c01_profile_isentropic),
    (2, "thermodynamic profile oracle", c02_profile_thermo),
    (3, "expansion trichotomy", c03_expansion_trichotomy),
    (4, "phase-plane dichotomy", c04_phase_dichotomy),
    (5, "zero-energy manifold", c05_zero_energy_manifold),
    (6, "discrete energy identity", c06_energy_identity),
    (7, "ODE-PDE reduction", c07_ode_pde_reduction),
    (8, "linear isentropic stability", c08_stability_linear_isentropic),
    (9, "self-similar instability", c09_instability_self_similar),
    (10, "thermodynamic stability", c10_stability_thermo),
    (11, "lemma layer", c11_lemma_layer),
    (12, "conservation and positivity sweep", c12_conservation_sweep),
]


def run_all(verbose: bool = False, ids=None) -> list[CriterionResult]:
    """Run the criteria (every one, or those in ids), each timed against its budget."""
    results = []
    for cid, name, fn in CRITERIA:
        if ids is not None and cid not in ids:
            continue
        t0 = time.perf_counter()
        try:
            details = fn()
            elapsed, limit = time.perf_counter() - t0, _BUDGET_S[cid]
            details.update(runtime_s=round(elapsed, 3), runtime_limit_s=limit)
            assert elapsed < limit, f"runtime {elapsed:.1f}s exceeded {limit}s"
            res = CriterionResult(cid, name, True, elapsed, details)
        except AssertionError as exc:
            res = CriterionResult(cid, name, False, time.perf_counter() - t0, {},
                                  error=str(exc))
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            res = CriterionResult(cid, name, False, time.perf_counter() - t0, {},
                                  error=f"{type(exc).__name__}: {exc}")
        results.append(res)
        if verbose:
            mark = "PASS" if res.passed else "FAIL"
            extra = "" if res.passed else f"  [{res.error}]"
            print(f"[{mark}] criterion {cid:2d}: {name} ({res.elapsed:.2f}s){extra}")
    return results
