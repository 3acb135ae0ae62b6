"""Lagrangian evolution of perturbations on the fixed star domain [0, R0].

Three regimes (self-similar, linear isentropic, linear thermodynamic) share one
spatial discretization and one IMEX step kernel; see `kernel`.

One driver, `evolve_ensemble`, steps a batch of runs of one regime as a (B, N+1)
state, and one member as a 1-d state (numpy's same-shape loops: a (1, N+1) batch
steps slower, BENCH_13.json's one_member_layout); the three `evolve_*` entry
points are its one-member case.  Each member owns its dt choice (CFL, the 1.25
growth factor, dt_max, emission times, the end time), retry by halving with the
cfl-floor and step-failure events, the geometry check, growth detection on the
amplitude omega of each accepted state (a growth event stops the run and carries
the located crossing), snapshot emission with that omega (`RunResult.omega`),
the online ledger and its RunResult, and leaves the batch when it stops.  Its
scalars come from `math` as in a run of its own and the kernel works row by row,
so each run has its own bits.  Only three parts depend on the regime: (a) the
thermodynamic state zeta and its implicit temperature step; (b) the
thermodynamic stop when the absolute temperature turns <= 0; (c) the
self-similar probe of energy E, dissipation D and viscous work W, from each
accepted state's geometry.

Every regime emits `PerturbationField`, tagged with its regime; thermodynamic
fields also carry zeta and zeta_t.  One `_AlphaClock` per run gives alpha(clock)
to the driver, the ledger and, through `RunResult.alpha_clock`, to
`reconstruct_eulerian`; its `coefficients(clock)` is the one regime switch for
the momentum equation's (inertia, damping, viscosity).  A linearly expanding
run made with `weights` checks them against R0, integrates
`functionals.ledger_integrands` over every step and keeps the integrals at each
emission for `functionals.total_energy_ledger`.  Each run samples its static
star once on the solver grid (`profiles.sample_background`); the kernel, the
fields, the RunResult and `reconstruct_eulerian` read it from there only.

The first snapshot carries the initial theta_tt (and zeta_t) that the equations
of motion imply, inverting the rho-weighted mass where it is positive (the end
nodes are one-sided quadratic limits): pointwise values lose accuracy in the
vacuum boundary layer, and every ledger use is rho-weighted.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from array import array
from dataclasses import dataclass, field as dc_field
from types import SimpleNamespace

import numpy as np

from . import functionals
from .functionals import WeightSpec, gradient
from .errors import (ConfigInvalid, DomainViolation, InvalidParams, StepFailure,
                     WrongClassification)
from .expansion import _LINEAR_END, _SS_END, _SS_EXP_MAX, LINEAR, SELF_SIMILAR, ExpansionParams
from .kernel import _columns, _Kernel
from .profiles import Background, sample_background

SELF_SIMILAR_REGIME = "self-similar"
LINEAR_REGIME = "linear-isentropic"
THERMO_REGIME = "linear-thermo"


@dataclass(frozen=True)
class SolverSpec:
    n_cells: int = 192
    cfl: float = 0.4
    order: int = 1                 # 1 = IMEX Euler, 2 = IMEX midpoint
    dt_init: float | None = None
    dt_max: float | None = None
    dt_floor: float = 1e-11
    max_rel_change: float = 1e-3   # per-step change of the flow map 1 + theta
    growth_threshold: float = 0.1  # a growth event stops the run
    n_emit: int = 41               # snapshots, both ends included

    def __post_init__(self):
        if bad := self.violations():
            raise ConfigInvalid(bad)

    def violations(self, thermo: bool = False) -> list[str]:
        """Named constraints this spec breaks (none once built); thermo adds its regime's."""
        rows = [(self.order in (1, 2), "solver.order in {1, 2}"),
                (0 < self.cfl <= 1, "0 < solver.cfl <= 1"),
                (isinstance(self.n_cells, numbers.Integral), "solver.n_cells is an integer"),
                (self.n_cells >= 8, "solver.n_cells >= 8"),
                (self.max_rel_change > 0, "solver.max_rel_change > 0"),
                (self.dt_max is None or self.dt_max > 0, "solver.dt_max > 0 when set"),
                (self.dt_init is None or self.dt_init > 0, "solver.dt_init > 0 when set"),
                (isinstance(self.n_emit, numbers.Integral), "time.n_emit is an integer"),
                (self.n_emit >= 2, "time.n_emit >= 2"),
                (self.growth_threshold > 0, "solver.growth_threshold > 0")]
        if thermo:
            rows += [(self.order == 1, "solver.order = 1 for evolve-thermo")]
        return [text for ok, text in rows if not ok]


@dataclass
class PerturbationField:
    """A perturbation at one clock; in the thermodynamic regime theta is xi."""

    x_nodes: np.ndarray
    theta: np.ndarray
    theta_t: np.ndarray
    theta_tt: np.ndarray | None
    clock: float
    regime: str
    zeta: np.ndarray | None = None       # thermodynamic regime only
    zeta_t: np.ndarray | None = None
    background: Background | None = dc_field(repr=False, default=None)


@dataclass
class EulerianSnapshot:
    r: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    theta_abs: np.ndarray | None = None
    mass_identity_residual: float = 0.0


@dataclass
class RunEvent:
    kind: str
    clock: float                       # a stop carries the last accepted clock
    detail: str = ""
    crossing: float | None = None      # growth: the located threshold crossing


@dataclass
class RunResult:
    regime: str
    snapshots: list
    omega: np.ndarray              # functionals.amplitude of each snapshot, from the driver
    events: list
    times: np.ndarray              # every accepted step
    energy: np.ndarray | None      # perturbation energy E(s) per step (ss only)
    dissipation: np.ndarray | None  # D(s) per step (ss only)
    visc_work: np.ndarray | None   # cumulative int alpha^{3/2} D ds (ss only)
    dissipation_online: dict | None  # ledger integrals at emission times
    weights: WeightSpec | None     # the ledger's weights (linear runs that keep one)
    background: Background
    alpha_clock: _AlphaClock       # carries the expansion parameters
    completed: bool

    @property
    def final(self):
        return self.snapshots[-1]


def _per_row(values):
    """A last-axis reduction as a list of Python scalars, one per row (one for a 1-d state)."""
    return values.tolist() if values.ndim else [values.tolist()]


def _located_crossing(t0, t1, omega0, omega1, threshold):
    """Clock at which ln omega, linear between two accepted steps, crosses ln threshold.

    Event location between accepted steps (Hairer, Norsett & Wanner, Solving
    ODEs I, II.6).  A zero previous amplitude has no logarithm: the crossing is
    then the accepted clock t1.
    """
    if not omega0 > 0.0:
        return t1
    if omega0 >= threshold:            # initial data already at the threshold
        return t0
    return t0 + (t1 - t0) * math.log(threshold / omega0) / math.log(omega1 / omega0)


# ---------------------------------------------------------------------------
# the alpha clock
# ---------------------------------------------------------------------------

class _AlphaClock:
    """alpha, alpha_tau, alpha'(t) and the momentum coefficients of the rescaled clock.

    The first integral alpha_t^2 = sigma^2 - 2 delta/alpha, sigma^2 = a1^2 + 2 delta/a0,
    reads alpha_tau^2 = sigma^2 alpha^2 - 2 delta alpha in tau; a linear path with
    delta != 0 is then alpha = a0 cosh(sigma tau) + (a0 a1/sigma) sinh(sigma tau)
    - (delta/sigma^2) 2 sinh^2(sigma tau/2), with cosh - 1 as 2 sinh^2 so that small
    sigma tau does not cancel.
    """

    def __init__(self, params: ExpansionParams, regime: str):
        self.params = params
        self.regime = regime
        if regime == SELF_SIMILAR_REGIME:
            if params.classification != SELF_SIMILAR:
                raise WrongClassification("self-similar run needs SelfSimilar parameters")
        elif params.classification != LINEAR:
            raise WrongClassification("linearly expanding run needs Linear parameters")
        if regime != SELF_SIMILAR_REGIME and params.delta != 0.0:
            self._rad = params.a1**2 + 2.0 * params.delta / params.a0
            sigma = math.sqrt(self._rad)     # sigma and the sinh, sinh^2 weights of alpha
            self._hyp = (sigma, params.a0 * params.a1 / sigma, -2.0 * params.delta / self._rad)

    def alpha(self, clock: float) -> float:
        p = self.params
        if self.regime == SELF_SIMILAR_REGIME:
            return p.a0 * math.exp(p.b * clock)
        if p.delta == 0.0:
            return p.a0 * math.exp(p.a1 * clock)
        sigma, w_sinh, w_sinh2 = self._hyp
        x = sigma * clock
        return p.a0 * math.cosh(x) + w_sinh * math.sinh(x) + w_sinh2 * math.sinh(0.5 * x) ** 2

    def alpha_tau(self, clock: float) -> float:
        p = self.params
        al = self.alpha(clock)
        if self.regime == SELF_SIMILAR_REGIME:
            return p.b * al
        if p.delta == 0.0:
            return p.a1 * al
        return al * math.sqrt(max(self._rad - 2.0 * p.delta / al, 0.0))

    def alpha_prime(self, clock: float) -> float:
        """d alpha / dt, the physical-time derivative, at the given clock."""
        p = self.params
        if self.regime == SELF_SIMILAR_REGIME:
            return math.sqrt(2.0 * abs(p.delta) / self.alpha(clock))
        if p.delta == 0.0:
            return p.a1
        return self.alpha_tau(clock) / self.alpha(clock)

    def coefficients(self, clock: float):
        """(inertia, damping, viscosity) of the momentum equation at the clock."""
        al = self.alpha(clock)
        if self.regime == SELF_SIMILAR_REGIME:
            return 1.0, 0.5 * self.params.b, al ** 2.5
        return al, self.alpha_tau(clock), al ** 3


# ---------------------------------------------------------------------------
# the stepping driver
# ---------------------------------------------------------------------------

def evolve_ensemble(profile, params: ExpansionParams, initials, clock_end: float,
                    spec: SolverSpec | None = None, mu: float = 1.0,
                    regime: str = SELF_SIMILAR_REGIME,
                    weights: WeightSpec | None = None) -> list[RunResult]:
    """Step each initial tuple of `initials` from clock 0 to clock_end, as one batch.

    Returns one RunResult per member, in order, each the bits of that member's
    own run; see the module docstring.  With weights, every member's
    dissipation-ledger integrands are integrated in time here.
    """
    spec = spec or SolverSpec()
    thermo = regime == THERMO_REGIME
    if thermo and (params.delta != 0.0 or params.classification != LINEAR):
        raise WrongClassification("thermodynamic expansion requires delta = 0 Linear parameters")
    notice = "delta <= -a0 a1^2/8: outside the proven stability range"
    if outside := (regime == LINEAR_REGIME and params.classification == LINEAR
                   and params.delta <= -params.a0 * params.a1**2 / 8.0):
        # attributed to the caller of the public function, through an evolve_* entry point too
        warnings.warn(notice, stacklevel=2 + (sys._getframe(1).f_globals is globals()))
    if weights is not None:
        weights.validate(profile.R0)
    init = [[np.array(a, dtype=float) for a in initial] for initial in initials]
    bg = sample_background(profile, np.linspace(0.0, profile.R0, spec.n_cells + 1))
    regimes = (SELF_SIMILAR_REGIME, LINEAR_REGIME, THERMO_REGIME)
    rate, bound = (params.b, _SS_END) if regime == SELF_SIMILAR_REGIME else (params.a1, _LINEAR_END)
    rows = [(regime in regimes, f"regime in {regimes}"),
            (thermo or profile.delta == params.delta, "profile and expansion share delta"),
            (0 < mu < math.inf, "0 < mu < inf"), (0 <= clock_end < math.inf, "0 <= end < inf"),
            (not clock_end < math.inf
             or rate * clock_end + math.log(max(params.a0, 1.0)) < _SS_EXP_MAX, bound),
            (len(init) > 0, "at least one initial state"),
            (all(len(m) >= 2 + thermo and all(a.shape == bg.x.shape and np.isfinite(a).all()
                 for a in m) for m in init), f"initial fields are finite on {bg.x.size} nodes"),
            (not thermo or not any(m[2][-1:].any() for m in init if len(m) > 2),
             "zeta(R0) = 0 initially")]
    if bad := spec.violations(thermo) + [text for ok, text in rows if not ok]:
        raise ConfigInvalid(bad)
    alpha_clock = _AlphaClock(params, regime)
    kernel = _Kernel(bg, alpha_clock, mu)
    # the (B, N+1) state, or one member's 1-d state (see the module docstring)
    f, v, z = (None if k >= 2 + thermo else init[0][k] if len(init) == 1
               else np.array([m[k] for m in init]) for k in range(3))
    geom = kernel.edge_geometry(f)            # the edge geometry of the current states
    if np.any(kernel.check_geometry(geom) <= 0.0):
        raise DomainViolation("initial data degenerates the flow map")
    if thermo and np.any(z[..., 1:-1] + kernel.theta_b[1:-1] <= 0.0):
        raise InvalidParams("initial absolute temperature must stay positive")

    emit = np.linspace(0.0, clock_end, spec.n_emit).tolist()
    results = [None] * len(init)

    def field_of(m, i, acc, z_rate):
        """Member m (row i) as a field; a batch row is copied, so it holds no other member."""
        rows = (f, v, acc, z, z_rate)
        if f.ndim > 1:
            rows = [None if a is None else a[i].copy() for a in rows]
        return PerturbationField(bg.x, *rows[:3], m.clock, regime, *rows[3:], bg)

    def rates():
        """The last step's theta_tt (and zeta_t), built only for the fields it emits."""
        return (v - v_prev) / dt, (z - z_prev) / dt if thermo else None

    def record(m, field):
        """Emit a snapshot with the online ledger integrals accumulated so far."""
        m.snapshots.append(field)
        m.omegas.append(m.omega)
        for k in m.series:
            m.series[k].append(m.online[k])

    def finish(m, i):
        """Close member m (row i): its stop, its last state as a snapshot, its RunResult."""
        m.events += [m.stop] if m.stop else []
        if m.snapshots[-1].clock < m.clock - 1e-12:
            record(m, field_of(m, i, None, None))
        results[m.index] = RunResult(
            regime, m.snapshots, np.asarray(m.omegas), m.events, np.asarray(m.times),
            *(map(np.asarray, (m.E, m.D, m.W)) if track_energy else (None,) * 3),
            {k: np.asarray(vs) for k, vs in m.series.items()} if weights is not None else None,
            weights, bg, alpha_clock, m.stop is None)

    track_energy = regime == SELF_SIMILAR_REGIME       # (c) the E/D/W probe
    if track_energy:
        # the grid's node spacings and weights, computed once for every probe
        spacing, rho4 = bg.x[1:] - bg.x[:-1], bg.x**4 * kernel.rho
        w = (bg.x[1] - bg.x[0]) * (bg.xm**2 * bg.rho43_m)

        def energy():
            return functionals._energy_ss(spacing, bg.xm, v, geom, rho4, w, params.b, params.delta)

    t_last = clock_end * (1.0 - 1e-14)     # a member that stops or gets here leaves the batch
    half = 0.5 if spec.order == 2 else 1.0   # the midpoint rule's share of the step
    change_bound = min(spec.max_rel_change, sys.float_info.max)   # rejects a non-finite change
    leaving = t_last <= 0.0
    # a non-finite initial rate or trial state ends in a failed attempt, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        aE, D = energy() if track_energy else ([math.nan] * len(init),) * 2
        alpha = alpha_clock.alpha(0.0)
        acc = kernel.acceleration(geom, v, alpha_clock.coefficients(0.0), z)
        z_rate = kernel.zeta_rate(f, geom, v, z, 0.0) if thermo else None
        members = []
        for i, omega in enumerate(_per_row(functionals._amplitude(bg.x, bg.grad, f, v, z))):
            # the series are compact float arrays; ab32 is alpha^(3/2) of the last accepted state
            m = SimpleNamespace(
                index=i, clock=0.0, dt=spec.dt_init or math.inf, emit_idx=1, omega=omega,
                omegas=array("d"), stop=None, snapshots=[], series={},
                events=[RunEvent("outside-stability-range", 0.0, notice)] * outside,
                times=array("d", [0.0]), E=array("d", [aE[i] / alpha]), D=array("d", [D[i]]),
                W=array("d", [0.0]), ab32=alpha ** 1.5)
            record(m, field := field_of(m, i, acc, z_rate))
            if weights is not None:
                m.prev = functionals.ledger_integrands(field, weights, alpha_clock)
                m.online = dict.fromkeys(m.prev, 0.0)
                m.series = {k: [0.0] for k in m.prev}
            members.append(m)

        for _ in range(2_000_000):
            if leaving:
                ended = [i for i, m in enumerate(members) if m.stop or m.clock >= t_last]
                for i in ended:
                    finish(members[i], i)
                if not (live := [i for i in range(len(members)) if i not in ended]):
                    break
                members = [members[i] for i in live]
                f, v, z = (None if a is None else a[live] for a in (f, v, z))
                geom, leaving = kernel.edge_geometry(f), False
            scale = np.maximum.reduce(geom.H, -1, initial=1.0)    # max(|H|, 1): accepted, so H > 0
            for m, c2 in zip(members, _per_row(kernel.wave_speed2(geom, zeta=z))):
                c2 /= alpha_clock.coefficients(m.clock)[0]        # over the inertia
                dt_cfl = spec.cfl * kernel.dx / math.sqrt(max(c2, 1e-30))
                m.dt = min(m.dt * 1.25, dt_cfl, spec.dt_max or math.inf, clock_end - m.clock)
                if m.emit_idx < len(emit):
                    m.dt = min(m.dt, emit[m.emit_idx] - m.clock + 1e-15)
            for _retry in range(40):                 # each failing member halves its own dt
                dt, *coef = _columns([(m.dt, *alpha_clock.coefficients(m.clock + half * m.dt))
                                      for m in members])
                at = (kernel.edge_geometry(np.add(f, np.multiply(0.5 * dt, v))) if half < 1.0
                      else geom)
                v_new = kernel.solve_velocity(at, v, dt, coef, zeta=z, weight=half)
                f_new = np.multiply(np.add(v, v_new), 0.5 * dt) if half < 1.0 else dt * v_new
                geom_new = kernel.edge_geometry(np.add(f_new, f, f_new))
                ok = np.maximum.reduce(np.abs(np.subtract(f_new, f)), -1) / scale <= change_bound
                z_new = kernel.temperature_step(f_new, geom_new, v_new, z, dt, [
                    m.clock + m.dt for m in members]) if thermo else None
                ok = _per_row(ok & np.isfinite(z_new).all(axis=-1) if thermo else ok)
                if all(ok) or not (failed := [m for m, good in zip(members, ok)
                                              if not good and not m.stop]):
                    break
                for m in failed:          # a stopped member keeps the dt of an attempt it made
                    if m.dt * 0.5 < spec.dt_floor:
                        m.stop = RunEvent("cfl-floor", m.clock, f"dt = {m.dt * 0.5:.3e}")
                    else:
                        m.dt *= 0.5
            lows = _per_row(kernel.check_geometry(geom_new))
            temps = (_per_row((z_new[..., 1:-1] + kernel.theta_b[1:-1]).min(axis=-1)) if thermo
                     else lows)
            for m, good, low, temp_low in zip(members, ok, lows, temps):
                if m.stop:
                    pass
                elif not good:
                    m.stop = RunEvent("step-failure", m.clock, "no acceptable step")
                elif low <= 0.0:
                    m.stop = RunEvent("jacobian-degenerate", m.clock, f"min(1+f, J) = {low:.3e}")
                elif thermo and temp_low <= 0.0:      # (b) the absolute temperature stays positive
                    m.stop = RunEvent("temperature-negative", m.clock, f"min = {temp_low:.3e}")
                leaving = leaving or m.stop is not None
            if leaving:                                        # the stopped keep their state
                stopped = [i for i, m in enumerate(members) if m.stop]
                for new, old in ((f_new, f), (v_new, v), (z_new, z))[:2 + thermo]:
                    new.reshape(-1, new.shape[-1])[stopped] = \
                        old.reshape(-1, old.shape[-1])[stopped]
                geom_new = kernel.edge_geometry(f_new)

            v_prev, z_prev = v, z
            f, v, z, geom = f_new, v_new, z_new, geom_new
            if track_energy:
                aE, D = energy()
            omega = _per_row(functionals._amplitude(bg.x, bg.grad, f, v, z))
            rate = None                               # built once, for the fields emitted
            for i, m in enumerate(members):
                if m.stop:
                    continue
                m.clock += m.dt
                m.times.append(m.clock)
                leaving = leaving or m.clock >= t_last
                if track_energy:
                    alpha = alpha_clock.alpha(m.clock)
                    ab32_prev, m.ab32 = m.ab32, alpha ** 1.5
                    m.W.append(m.W[-1] + 0.5 * m.dt * (m.ab32 * D[i] + ab32_prev * m.D[-1]))
                    m.E.append(aE[i] / alpha)
                    m.D.append(D[i])
                if weights is not None:
                    field = field_of(m, i, *(rate := rate or rates()))
                    vals = functionals.ledger_integrands(field, weights, alpha_clock)
                    for k, val in vals.items():
                        m.online[k] += 0.5 * m.dt * (val + m.prev[k])
                    m.prev = vals
                omega_prev, m.omega = m.omega, omega[i]
                if m.omega > spec.growth_threshold:
                    crossing = _located_crossing(m.times[-2], m.clock, omega_prev, m.omega,
                                                 spec.growth_threshold)
                    m.stop = RunEvent("growth", m.clock, f"amplitude = {m.omega:.3e}", crossing)
                    record(m, field_of(m, i, *(rate := rate or rates())))
                    leaving = True
                elif m.emit_idx < len(emit) and m.clock >= emit[m.emit_idx] - 1e-12:
                    record(m, field_of(m, i, *(rate := rate or rates())))
                    while m.emit_idx < len(emit) and m.clock >= emit[m.emit_idx] - 1e-12:
                        m.emit_idx += 1
        else:
            raise StepFailure("step budget exhausted")
    return results


def evolve_self_similar(profile, params: ExpansionParams, initial, s_end: float,
                        spec: SolverSpec | None = None, mu: float = 1.0) -> RunResult:
    """Evolve a perturbation of the self-similarly expanding star to s_end."""
    return evolve_ensemble(profile, params, [initial], s_end, spec, mu)[0]


def evolve_linear_isentropic(profile, params: ExpansionParams, initial, tau_end: float,
                             spec: SolverSpec | None = None, mu: float = 1.0,
                             weights: WeightSpec | None = None) -> RunResult:
    """Evolve a perturbation of the linearly expanding isentropic star to tau_end.

    With weights the run keeps its energy ledger (see the module docstring).
    Outside the proven stability range, delta <= -a0 a1^2/8, this warns and
    the run carries a non-stop `outside-stability-range` event.
    """
    return evolve_ensemble(profile, params, [initial], tau_end, spec, mu, LINEAR_REGIME,
                           weights)[0]


def evolve_linear_thermo(profile, params: ExpansionParams, initial, tau_end: float,
                         spec: SolverSpec | None = None, mu: float = 1.0,
                         weights: WeightSpec | None = None) -> RunResult:
    """Evolve (xi, zeta) for the linearly expanding thermodynamic star.

    alpha = a0 + a1 t exactly (delta-free); requires params built with
    delta = 0.  zeta(R0) = 0 is a hard Dirichlet row; the viscous heating is
    assembled in its squared form so it is nonnegative at every node.  Only
    IMEX Euler is implemented here: order 2 raises ConfigInvalid.  weights
    act as in `evolve_linear_isentropic`.
    """
    return evolve_ensemble(profile, params, [initial], tau_end, spec, mu, THERMO_REGIME,
                           weights)[0]


# ---------------------------------------------------------------------------
# Eulerian reconstruction
# ---------------------------------------------------------------------------

def reconstruct_eulerian(field, alpha_clock: _AlphaClock) -> EulerianSnapshot:
    """Map a Lagrangian perturbation field to Eulerian (r, rho, u[, theta]).

    r = alpha x (1 + f), rho = x^2 rho_bar / (r^2 r_x), u = r_t through the
    chain rule of the field's clock, with alpha and alpha'(t) from the clock
    the run stepped with (`RunResult.alpha_clock`).  The mass identity uses the
    same discrete r_x that built rho, so its residual isolates wiring errors
    from quadrature error.
    """
    x = np.asarray(field.x_nodes, dtype=float)
    bg = field.background
    if bg is None:
        raise InvalidParams("field carries no background; cannot reconstruct the density")
    stencil = bg.require_grid(x)
    if alpha_clock.regime != field.regime:
        raise InvalidParams(f"a {field.regime} field needs the alpha clock of its run")
    f, v = field.theta, field.theta_t
    alpha = alpha_clock.alpha(field.clock)
    v_scale = alpha**-0.5 if field.regime == SELF_SIMILAR_REGIME else 1.0
    u = alpha_clock.alpha_prime(field.clock) * x * (1.0 + f) + v_scale * x * v

    H = 1.0 + f
    f_x = gradient(f, stencil)
    J = H + x * f_x
    if np.any(J <= 0.0) or np.any(H <= 0.0):
        raise DomainViolation("flow map degenerate; cannot reconstruct")
    r = alpha * x * H
    if np.any(np.diff(r) <= 0.0):
        raise DomainViolation("r is not strictly increasing in x")

    theta_abs = (field.zeta + bg.theta) / alpha if field.regime == THERMO_REGIME else None

    # rho = x^2 rho_bar / (r^2 r_x) = alpha^-3 rho_bar / (H^2 J)
    rho_b = bg.rho
    rho = alpha**-3 * rho_b / (H**2 * J)

    # mass check: r^2 rho r_x == x^2 rho_bar nodewise by construction
    r_x = alpha * J
    ident = r**2 * rho * r_x - x**2 * rho_b
    scale = max(np.max(x**2 * rho_b), 1e-300)
    mass_ident = float(np.max(np.abs(ident)) / scale)

    return EulerianSnapshot(r=r, rho=rho, u=u, theta_abs=theta_abs,
                            mass_identity_residual=mass_ident)
