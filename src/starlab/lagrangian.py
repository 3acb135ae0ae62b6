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
self-similar probe of energy E, dissipation D and viscous work W, run only
when the caller asks for it (`energy=True`) and then on every accepted state,
from its geometry rebuilt at the fold (elementwise, so the step's bits), with W
the trapezoid integral of alpha^{3/2} D.  At order 2 nothing reads an accepted
state's Gram factors (the midpoint solve builds its own), so no run builds them.

Every regime emits `PerturbationField`, tagged with its regime; thermodynamic
fields also carry zeta and zeta_t.  One `expansion.AlphaClock` per run gives
alpha(clock) to the driver, the ledger and, through `RunResult.alpha_clock`, to
`reconstruct_eulerian`; its `coefficients(clock)` is the one regime switch for
the momentum equation's (inertia, damping, viscosity).  A linearly expanding
run made with `weights` checks them against R0, integrates
`functionals.ledger_integrands` over every step and keeps the integrals at each
snapshot for `functionals.total_energy_ledger`.  Each run samples its static
star once on the solver grid (`profiles.sample_background`); the kernel, the
fields, the RunResult and `reconstruct_eulerian` read it from there only.

An accepted state becomes output at a fold, and nowhere else.  The step loop
keeps each accepted state's rows, with the v (and zeta) rows of the state before
it (the in-place rule never overwrites them), and decides whether it emits (dt
is clamped to the next emission time).  It holds back each member's newest state
until the member steps on; the driver folds the other pending states in step
order in blocks of `functionals._PROBE_BLOCK`, and all of them, with the newest
state of each member that leaves, before a member leaves the batch.  A fold
evaluates `functionals._amplitude` once on the block's stacked rows and walks it
in step order: each state's omega; the rates theta_tt = (v - v_prev) / dt (and
zeta_t) of a stepped state that emits or feeds the ledger; the snapshot of a
state that emits or is the last of a member that leaves (a batch row is copied);
and at a member's first omega above the threshold its growth event, which drops
the member's later times and pending states.  The ledger, or E/D/W, then folds
the states kept, each integral by the trapezoid rule.  So a member steps on for
at most `_PROBE_BLOCK` states past its growth, on its own rows, and the growth
event replaces any stop it meets there: every output keeps the bits of a run
resolved at every step, and a stopped run's last snapshot carries its rates like
any other.

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
from .expansion import (_LINEAR_END, _SS_END, _SS_EXP_MAX, LINEAR, SELF_SIMILAR_REGIME,
                        AlphaClock, ExpansionParams)
from .kernel import _columns, _Kernel
from .profiles import Background, sample_background

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
    times: np.ndarray              # every accepted state's clock
    energy: np.ndarray | None      # perturbation energy E(s) per accepted state (ss, energy)
    dissipation: np.ndarray | None  # D(s) per accepted state (ss run with energy)
    visc_work: np.ndarray | None   # cumulative int alpha^{3/2} D ds, trapezoid (ss, energy)
    dissipation_online: dict | None  # ledger integrals at each snapshot's clock
    weights: WeightSpec | None     # the ledger's weights (linear runs that keep one)
    background: Background
    alpha_clock: AlphaClock        # carries the expansion parameters
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
# the stepping driver
# ---------------------------------------------------------------------------

def evolve_ensemble(profile, params: ExpansionParams, initials, clock_end: float,
                    spec: SolverSpec | None = None, mu: float = 1.0,
                    regime: str = SELF_SIMILAR_REGIME,
                    weights: WeightSpec | None = None, energy: bool = False) -> list[RunResult]:
    """Step each initial tuple of `initials` from clock 0 to clock_end, as one batch.

    Returns one RunResult per member, in order, each the bits of that member's
    own run; see the module docstring.  With weights (a linearly expanding run),
    every member's dissipation-ledger integrands are integrated in time here.
    With energy (a self-similar run), every member keeps E, D and W per step;
    without it they are None.  Neither request moves a step.
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
             "zeta(R0) = 0 initially"),
            (weights is None or regime != SELF_SIMILAR_REGIME,
             "weights only for a linearly expanding run"),
            (not energy or regime == SELF_SIMILAR_REGIME,
             "energy only for the self-similar regime")]
    if bad := spec.violations(thermo) + [text for ok, text in rows if not ok]:
        raise ConfigInvalid(bad)
    alpha_clock = AlphaClock(params, regime)
    kernel = _Kernel(bg, alpha_clock, mu)
    # the (B, N+1) state, or one member's 1-d state (see the module docstring)
    f, v, z = (None if k >= 2 + thermo else init[0][k] if len(init) == 1
               else np.array([m[k] for m in init]) for k in range(3))
    emit = np.linspace(0.0, clock_end, spec.n_emit).tolist()
    results = [None] * len(init)

    batch = f.ndim > 1

    def rows_of(i, arrays):
        """Row i of each array, as views of a batch; a one-member state's arrays are its rows."""
        return [None if a is None else a[i] for a in arrays] if batch else list(arrays)

    def field_of(rows, clock):
        """A field of (theta, theta_t, theta_tt, zeta, zeta_t) rows at the clock."""
        return PerturbationField(bg.x, *rows[:3], clock, regime, *rows[3:5], bg)

    def finish(m):
        """Close member m: its stop and its RunResult; dropping its held entry leaves no cycle."""
        m.events += [m.stop] if m.stop else []
        m.last = None
        results[m.index] = RunResult(
            regime, m.snapshots, np.asarray(m.omegas), m.events, np.asarray(m.times),
            *(map(np.asarray, (m.E, m.D, m.series["W"])) if energy else (None,) * 3),
            {k: np.asarray(vs) for k, vs in m.series.items()} if weights is not None else None,
            weights, bg, alpha_clock, m.stop is None)

    if energy:                                         # (c) the E/D/W probe
        # the grid's node spacings and weights, computed once for every probe
        spacing, rho4 = bg.x[1:] - bg.x[:-1], bg.x**4 * kernel.rho
        w = (bg.x[1] - bg.x[0]) * (bg.xm**2 * bg.rho43_m)
    # [member, its row, the step's (f, v, theta_tt, z, zeta_t, v_prev, z_prev), dt, emits,
    # index in its times] of each accepted state not yet folded; a member's newest state is
    # held back (`m.last`) until the member steps on or leaves
    pending = []

    def resolve(entries):
        """Each state's omega, in step order: its snapshot if it emits or is its member's last,
        and at a member's first omega above the threshold the growth event, which drops all
        the member has after it."""
        nonlocal leaving
        omegas = _per_row(functionals._amplitude(
            bg.x, bg.grad, [e[1][0] for e in entries], [e[1][1] for e in entries],
            np.array([e[1][3] for e in entries]) if thermo else None))
        kept = []
        for entry, omega in zip(entries, omegas):
            m, rows, step, emits, j = entry
            if m.stop and m.stop.kind == "growth":
                continue
            omega_prev, m.omega = m.omega, omega
            if j and omega > spec.growth_threshold:      # replaces any later stop of m
                clock = m.times[j]
                crossing = _located_crossing(m.times[j - 1], clock, omega_prev, omega,
                                             spec.growth_threshold)
                m.stop = RunEvent("growth", clock, f"amplitude = {omega:.3e}", crossing)
                m.clock, m.last, leaving, emits = clock, None, True, True
                del m.times[j + 1:]
                pending[:] = [e for e in pending if e[0] is not m]
            elif j == m.last[5]:           # held back until now: the last state of a leaver
                emits = emits or m.snapshots[-1].clock < m.times[j] - 1e-12
            if rows[2] is None and (emits or weights is not None):   # the rates of a step
                rows[2] = (rows[1] - rows[5]) / step
                rows[4] = (rows[3] - rows[6]) / step if thermo else None
            if emits:                      # a batch row is copied: it holds no other member
                m.snapshots.append(field_of([None if a is None else a.copy() for a in rows]
                                            if batch else rows, m.times[j]))
                m.omegas.append(omega)
            entry[3] = emits               # and the ledger keeps its online integrals
            kept.append(entry)
        return kept

    def fold():
        """Resolve the first `_PROBE_BLOCK` pending states, then fold the ledger (or E, D and W)
        of those kept in step order, each term by the trapezoid rule."""
        block, pending[:] = pending[:(n := functionals._PROBE_BLOCK)], pending[n:]
        entries = resolve([[m, rows_of(i, state), step, emits, j]
                           for m, i, state, step, emits, j in block])
        if weights is not None:
            vals = functionals.ledger_integrands([field_of(e[1], e[0].times[e[4]])
                                                  for e in entries], weights, alpha_clock)
        elif energy:         # (c) E and D of each state from its geometry, the integrand of W
            aE, D = functionals._energy_ss(
                spacing, bg.xm, np.array([e[1][1] for e in entries]),
                kernel.edge_geometry(np.array([e[1][0] for e in entries])),
                rho4, w, params.b, params.delta)
            vals = {"W": []}
            for (m, *_, j), ae, d in zip(entries, aE, D):
                alpha = alpha_clock.alpha(m.times[j])
                m.E.append(ae / alpha)
                m.D.append(d)
                vals["W"].append(alpha ** 1.5 * d)
        else:
            return
        for r, (m, _, step, emits, _) in enumerate(entries):
            row = {k: vs[r] for k, vs in vals.items()}
            if m.prev is None:                        # the initial state
                m.online, m.series = dict.fromkeys(row, 0.0), {k: [] for k in row}
            for k, val in row.items() if m.prev is not None else ():
                m.online[k] += 0.5 * step * (val + m.prev[k])
            m.prev = row
            for k in m.series if emits or energy else ():    # W at every state
                m.series[k].append(m.online[k])

    t_last = clock_end * (1.0 - 1e-14)     # a member that stops or gets here leaves the batch
    half, gram = (0.5, False) if spec.order == 2 else (1.0, True)  # midpoint share, Gram use
    change_bound = min(spec.max_rel_change, sys.float_info.max)   # rejects a non-finite change
    leaving = t_last <= 0.0
    # a non-finite initial rate or trial state ends in a failed attempt, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        geom = kernel.edge_geometry(f)        # the edge geometry of the current states
        if np.any(kernel.check_geometry(geom) <= 0.0):
            raise DomainViolation("initial data degenerates the flow map")
        if thermo and np.any(z[..., 1:-1] + kernel.theta_b[1:-1] <= 0.0):
            raise InvalidParams("initial absolute temperature must stay positive")
        acc = kernel.acceleration(geom, v, alpha_clock.coefficients(0.0), z)
        state = (f, v, acc, z, kernel.zeta_rate(f, geom, v, z, 0.0) if thermo else None,
                 None, None)
        members = [SimpleNamespace(
            index=i, clock=0.0, dt=spec.dt_init or math.inf, emit_idx=1, omega=None,
            omegas=array("d"), stop=None, snapshots=[], series={}, prev=None,
            events=[RunEvent("outside-stability-range", 0.0, notice)] * outside,
            times=array("d", [0.0]), E=array("d"), D=array("d"))  # compact float arrays
            for i in range(len(init))]
        for i, m in enumerate(members):
            m.last = [m, i, state, 0.0, True, 0]

        for _ in range(2_000_000):
            if leaving:                # the last states of the members that leave are folded too
                pending += [m.last for m in members if m.stop or m.clock >= t_last]
            while pending and (leaving or len(pending) >= functionals._PROBE_BLOCK):
                fold()                 # a full block, and all of them before a member leaves
            if leaving:
                ended = [i for i, m in enumerate(members) if m.stop or m.clock >= t_last]
                for i in ended:
                    finish(members[i])
                if not (live := [i for i in range(len(members)) if i not in ended]):
                    break
                members = [members[i] for i in live]
                f, v, z = (None if a is None else a[live] for a in (f, v, z))
                geom, leaving = kernel.edge_geometry(f, gram), False
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
                geom_new = kernel.edge_geometry(np.add(f_new, f, f_new), gram)
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

            state = (f_new, v_new, None, z_new, None, v, z)   # rows kept to the fold
            f, v, z, geom = f_new, v_new, z_new, geom_new
            for i, m in enumerate(members):
                if m.stop:
                    continue
                m.clock += m.dt
                m.times.append(m.clock)
                leaving = leaving or m.clock >= t_last
                if emits := m.emit_idx < len(emit) and m.clock >= emit[m.emit_idx] - 1e-12:
                    while m.emit_idx < len(emit) and m.clock >= emit[m.emit_idx] - 1e-12:
                        m.emit_idx += 1
                pending.append(m.last)         # the state it held back until this step
                m.last = [m, i, state, m.dt, emits, len(m.times) - 1]
        else:
            raise StepFailure("step budget exhausted")
    return results


def evolve_self_similar(profile, params: ExpansionParams, initial, s_end: float,
                        spec: SolverSpec | None = None, mu: float = 1.0,
                        energy: bool = False) -> RunResult:
    """Evolve a perturbation of the self-similarly expanding star to s_end.

    With energy the run keeps the energy E, dissipation D and viscous work W of
    every accepted step (`RunResult.energy`, `dissipation`, `visc_work`);
    without it they are None and no step pays for them.
    """
    return evolve_ensemble(profile, params, [initial], s_end, spec, mu, energy=energy)[0]


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

def reconstruct_eulerian(field, alpha_clock: AlphaClock) -> EulerianSnapshot:
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
