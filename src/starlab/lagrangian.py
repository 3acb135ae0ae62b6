"""Lagrangian evolution of perturbations on the fixed star domain [0, R0].

Three regimes share one spatial discretization: vertex-centered nodes
x_0 = 0 .. x_N = R0 (uniform), fields collocated at nodes, fluxes and the
viscous bilinear form on cell midpoints.  The schemes are formulated in the
perturbation variable, and every background term is differenced with the
same midpoint-flux operator as its perturbed counterpart, so the unperturbed
star is preserved to machine precision.

Viscous operator.  Written against the test pairing x^3 (1+f)^2 w, the
monatomic-gas viscosity reduces (after integration by parts, using the
zero-stress boundary condition at R0 and x^3 at the center) to the
symmetric negative-semidefinite form

    T(v, w) = -(4 mu/3) int x^4 (H v_x - v f_x)(H w_x - w f_x) / J dx,

H = 1 + f, J = 1 + f + x f_x.  Discretized by midpoint quadrature this is a
Gram matrix K, so the step's dissipation equals the quadrature of the
continuous dissipation integrand x^2 ((1+f) x v_x - x f_x v)^2 / J exactly;
the boundary stress flux at R0 is zero by construction (natural condition)
and the kernel of K is uniform-in-x motion, which therefore dissipates
nothing, mirroring the continuous model.

Mass is lumped with trapezoid weights; it vanishes at the center (x = 0)
and at the vacuum node (rho(R0) = 0), whose rows become the quasi-static
force balances that the continuum also imposes there; the implicit
viscosity+damping solve absorbs them.

Time stepping is first-order IMEX: implicit in viscosity and damping
(linear in the new velocity at frozen geometry), explicit in pressure and
gravity, with step control on the CFL of the explicit part and on the
per-step change of the flow map.  An optional midpoint variant (order = 2,
implicit weight 1/2 in the same velocity solve) serves the isentropic regimes.

One driver steps all three regimes (`_evolve`).  It owns the dt choice (CFL,
the 1.25 growth factor, dt_max, emission times, the end time), retry by
halving with the cfl-floor and step-failure events, the geometry check,
growth detection (a growth event stops the run and carries the located
crossing), snapshot emission, the online ledger accumulation and the
RunResult.  Only three parts depend on the regime:

  (a) the thermodynamic state zeta and its implicit temperature step;
  (b) the thermodynamic stop when the absolute temperature turns <= 0;
  (c) the self-similar probe of energy E, dissipation D and viscous work W, from
      the kernel's edge geometry and Gram factors of each accepted state.

Every regime emits `PerturbationField`, tagged with its regime; thermodynamic
fields also carry zeta and zeta_t.  One `_AlphaClock` per run gives alpha(clock)
to the driver, the ledger and, through `RunResult.alpha_clock`, to
`reconstruct_eulerian`; its `coefficients(clock)` is the one regime switch for
the momentum equation's (inertia, damping, viscosity).

A linearly expanding run made with `weights` owns its energy ledger: the driver
checks them against R0, integrates `functionals.ledger_integrands` over every
step and keeps the weights and the integrals at each emission on the RunResult
for `functionals.total_energy_ledger(run)`.

One background per grid: each run samples its profile once
(`profiles.sample_background`) on the solver grid, with its gradient stencil.
The step kernel, every emitted field, the RunResult and `reconstruct_eulerian`
read the static star from that Background only.

The first snapshot carries the initial second clock derivatives that the
equations of motion imply: theta_tt, and zeta_t in the thermodynamic regime.
They invert the rho-weighted mass only where it is positive (the end nodes
are one-sided quadratic limits), so pointwise values lose accuracy inside the
vacuum boundary layer; every ledger use is rho-weighted.

One step kernel per run, `_Kernel(bg, clock, mu)`, built after the clock: it
builds the static row weights once and holds the operators, the velocity solve,
the acceleration and the temperature step.  It computes the edge geometry
(Hm, df, Jm) of each new state once; the temperature step, the geometry check
and, once accepted, E and D, the next step's CFL limit, viscous matrix and
pressure/gravity rows use it.  The order-2 midpoint state has its own.
Tridiagonal solves call dgtsv.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from . import functionals
from .functionals import WeightSpec, gradient
from .errors import (ConfigInvalid, DomainViolation, InvalidParams, StepFailure,
                     WrongClassification)
from .expansion import LINEAR, SELF_SIMILAR, ExpansionParams
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


def _solve_tridiag(diag, upper, lower, rhs):
    """dgtsv on upper[i] = A[i, i+1], lower[i] = A[i+1, i], with scipy's banded checks."""
    if not all(np.isfinite(arr).all() for arr in (diag, upper, lower, rhs)):
        raise ValueError("array must not contain infs or NaNs")
    x, info = dgtsv(lower, diag, upper, rhs)[3:]     # copies: the inputs stay intact
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


_OVERDAMPED_RATIO = 1e12


def _cap_overdamped(visc, mass_term, K_diag):
    """Saturate the implicit viscous factor deep in the overdamped regime.

    Once visc*K exceeds the inertial rows by ~1e12 the velocity solve is the
    quasi-static limit to double precision and larger factors only destroy
    the conditioning of the semidefinite K against the lumped mass; the
    capped solve agrees with the uncapped one to O(1e-12).
    """
    scale_m = float(mass_term.max())
    k_max = float(K_diag.max())
    if visc * k_max > _OVERDAMPED_RATIO * scale_m > 0.0:
        return _OVERDAMPED_RATIO * scale_m / k_max
    return visc


def _flux_div(flux):
    """Node differences of edge fluxes with zero flux beyond both ends (np.diff's bits)."""
    out = np.empty(flux.size + 1)
    out[0] = flux[0] - 0.0
    out[1:-1] = flux[1:] - flux[:-1]
    out[-1] = 0.0 - flux[-1]
    return out


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


def _quad_extrap(x, vals, idx):
    """Quadratic extrapolation of vals to node idx from its 3 nearest interior nodes."""
    js = [1, 2, 3] if idx == 0 else [idx - 1, idx - 2, idx - 3]
    c = np.polyfit(x[js], vals[js], 2)
    return float(np.polyval(c, x[idx]))


# ---------------------------------------------------------------------------
# the alpha clock
# ---------------------------------------------------------------------------

class _AlphaClock:
    """alpha, alpha_tau, alpha'(t) and the momentum coefficients of the rescaled clock."""

    def __init__(self, params: ExpansionParams, regime: str, clock_end: float):
        self.params = params
        self.regime = regime
        if regime == SELF_SIMILAR_REGIME:
            if params.classification != SELF_SIMILAR:
                raise WrongClassification("self-similar run needs SelfSimilar parameters")
        elif params.classification != LINEAR:
            raise WrongClassification("linearly expanding run needs Linear parameters")
        self._dense = None
        if regime != SELF_SIMILAR_REGIME and params.delta != 0.0:
            rad = params.a1**2 + 2.0 * params.delta / params.a0

            def rhs(tau, y):
                return [y[0] * math.sqrt(max(rad - 2.0 * params.delta / y[0], 0.0))]

            sol = solve_ivp(rhs, (0.0, clock_end * 1.01), [params.a0], method="DOP853",
                            rtol=1e-12, atol=1e-12, dense_output=True)
            if not sol.success:
                raise StepFailure(f"alpha(tau) integration failed: {sol.message}")
            self._dense = sol.sol
            self._rad = rad

    def alpha(self, clock: float) -> float:
        p = self.params
        if self.regime == SELF_SIMILAR_REGIME:
            return p.a0 * math.exp(p.b * clock)
        if p.delta == 0.0:
            return p.a0 * math.exp(p.a1 * clock)
        return float(self._dense(clock)[0])

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
# the step kernel
# ---------------------------------------------------------------------------

class _Kernel:
    """The IMEX step of one run: its static weights, operators, momentum and temperature steps.

    Static arrays come from the Background `bg`; the kernel keeps only those it
    derives.  `geom` is the (Hm, df, Jm) of edge_geometry.
    """

    def __init__(self, bg: Background, clock: _AlphaClock, mu: float):
        self.bg, self.clock, self.mu = bg, clock, mu
        self.delta = clock.params.delta
        x = bg.x
        self.dx = x[1] - x[0]
        self.wq = np.full(x.size, self.dx)
        self.wq[0] = self.wq[-1] = 0.5 * self.dx
        self.rho = bg.rho.copy()             # the vacuum node is exactly massless
        self.rho[-1] = 0.0
        self.mass = self.wq * x**4 * self.rho
        self.x3 = x**3
        self.gw = (4.0 * mu / 3.0) * self.dx * bg.xm**2      # the Gram factor g times Jm
        self.thermo = bg.theta is not None
        if self.thermo:
            self.theta_b = bg.theta.copy()
            self.theta_b[-1] = 0.0
            self.mass_z = self.wq * 3.0 * bg.K * x**2 * self.rho
        else:
            self.rho13_m = bg.rho_m ** (1.0 / 3.0)
            self.grav_w = self.wq * self.delta * x**4 * self.rho
        self.div_b = _flux_div(bg.ptheta_m if self.thermo else bg.rho43_m)

    def edge_geometry(self, f):
        Hm = 1.0 + 0.5 * (f[:-1] + f[1:])
        df = (f[1:] - f[:-1]) / self.dx
        Jm = Hm + self.bg.xm * df
        return Hm, df, Jm

    def viscous_matrix(self, geom):
        """Gram matrix K with T(v, w) = -w^T K v as (diag, off): K[i, i+1] = K[i+1, i] = off[i]."""
        g, a, b = functionals._gram_factors(geom, self.bg.xm, self.dx, self.gw)
        diag = np.zeros(a.size + 1)
        diag[:-1] += g * b * b
        diag[1:] += g * a * a
        return diag, g * a * b

    def apply_viscous(self, K, v):
        diag, off = K
        out = diag * v
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
        return out

    def pressure_gravity(self, f, geom, zeta=None):
        """Weak rows of the pressure + gravity terms (already Delta-x scaled).

        Fluxes at the outer boundary are zero: the background pressure
        vanishes at the vacuum. The background gradient is differenced with
        the same midpoint fluxes, so the rows vanish identically at f = 0.
        """
        bg = self.bg
        H = 1.0 + f
        H2 = H**2
        Hm, _, Jm = geom
        if self.thermo:
            Gm = 1.0 / (Hm * Hm * Jm)
            zm = 0.5 * (zeta[:-1] + zeta[1:])
            flux = (bg.ptheta_m + bg.K * bg.rho_m * zm) * Gm
        else:
            Gm = (Hm * Hm * Jm) ** (-4.0 / 3.0)
            flux = bg.rho43_m * Gm
        rows = self.x3 * (H2 * _flux_div(flux) - self.div_b / H2)
        if not self.thermo and self.delta != 0.0:
            rows = rows + self.grav_w * (H - 1.0 / H2)
        return rows

    def check_geometry(self, f, geom):
        return float(min((1.0 + f).min(), geom[2].min()))

    def wave_speed(self, geom, inertia: float, zeta=None):
        Hm, _, Jm = geom
        if self.thermo:
            zm = 0.5 * (zeta[:-1] + zeta[1:])
            c2 = self.bg.K * np.max(np.abs(self.bg.theta_m + zm) * Hm**2 / Jm**2) / inertia
        else:
            c2 = (4.0 / 3.0) * np.max(self.rho13_m
                                      * Hm**4 * (Hm * Hm * Jm) ** (-7.0 / 3.0)) / inertia
        return math.sqrt(max(c2, 1e-30))

    # -- momentum --------------------------------------------------------------

    def solve_velocity(self, f, geom, v_old, dt, clock, zeta=None, weight=1.0):
        """One implicit viscosity+damping solve at frozen geometry f (edge geometry geom).

        weight is the implicit share of damping and viscosity: 1 for IMEX
        Euler, 1/2 for the midpoint rule, whose explicit half (at v_old)
        then equals its implicit half.
        """
        inertia, damping, visc = self.clock.coefficients(clock)
        K = self.viscous_matrix(geom)
        rows = self.pressure_gravity(f, geom, zeta=zeta)
        mass_term = (inertia / dt + weight * damping) * self.mass
        visc = _cap_overdamped(weight * visc, mass_term, K[0])
        diag = mass_term + visc * K[0]
        explicit = 1.0 - weight
        rhs = (inertia / dt - explicit * damping) * self.mass * v_old
        if explicit:
            rhs -= visc * self.apply_viscous(K, v_old)
        rhs -= rows
        off = visc * K[1]
        return _solve_tridiag(diag, off, off, rhs)

    def acceleration(self, f, geom, v, clock, zeta=None):
        """Pointwise clock-acceleration from the semi-discrete equations.

        Valid where the lumped mass is positive; the massless end nodes are
        filled by quadratic extrapolation (their rows are force balances).
        """
        inertia, damping, visc = self.clock.coefficients(clock)
        K = self.viscous_matrix(geom)
        rows = self.pressure_gravity(f, geom, zeta=zeta)
        num = visc * (-self.apply_viscous(K, v)) - rows - damping * self.mass * v
        acc = np.zeros_like(f)
        inner = self.mass > 0
        acc[inner] = num[inner] / (inertia * self.mass[inner])
        acc[0] = _quad_extrap(self.bg.x, acc, 0)
        acc[-1] = _quad_extrap(self.bg.x, acc, acc.size - 1)
        return acc

    # -- temperature -----------------------------------------------------------

    def thermo_aux(self, f, v):
        """Nodal advection bracket, Jacobian, and viscous-heating rate."""
        x, grad = self.bg.x, self.bg.grad
        H = 1.0 + f
        f_x = gradient(f, grad)
        v_x = gradient(v, grad)
        J = H + x * f_x
        prod = x**3 * H**2 * v
        dprod = gradient(prod, grad)
        frakF = (4.0 / 3.0) * ((v + x * v_x) / J - v / H) ** 2
        return H, J, dprod, frakF

    def zeta_terms(self, f, geom, v, z, alpha: float):
        """Terms of the temperature equation, unsummed so each caller keeps its order.

        Returns the nodal advection and viscous heating, and at the edges the
        diffusion coefficient and the flux of the background temperature.
        """
        x, xm = self.bg.x, self.bg.xm
        H, J, dprod, frakF = self.thermo_aux(f, v)
        adv = self.bg.K * self.rho * (z + self.theta_b) * dprod / (H**2 * J)
        heat = alpha * x**2 * H**2 * J * self.mu * frakF
        Hm, _, Jm = geom
        cdiff = xm**2 * Hm**2 / Jm
        bgflux = (Hm**2 / Jm - 1.0) * xm**2 * self.bg.thetap_m
        return adv, heat, cdiff, bgflux

    def zeta_rate(self, f, geom, v, z, clock: float):
        """Pointwise zeta_tau from the semi-discrete temperature equation."""
        alpha = self.clock.alpha(clock)
        adv, heat, cdiff, bgflux = self.zeta_terms(f, geom, v, z, alpha)
        Fz = cdiff * np.diff(z) / self.dx + bgflux
        div = _flux_div(Fz)
        num = -self.wq * adv + self.wq * heat + alpha**2 * div
        rate = np.zeros_like(z)
        inner = self.mass_z > 0
        rate[inner] = num[inner] / self.mass_z[inner]
        rate[0] = _quad_extrap(self.bg.x, rate, 0)
        rate[-1] = 0.0
        return rate

    def temperature_step(self, f, geom, v, z, dt: float, clock: float):
        """zeta after one step to the clock: implicit diffusion, explicit advection and heating."""
        alpha = self.clock.alpha(clock)
        adv, heat, cdiff, bgflux = self.zeta_terms(f, geom, v, z, alpha)
        dx = self.dx
        bdiv = _flux_div(bgflux)
        # symmetric tridiagonal diffusion operator (zero natural flux at the center)
        diag = self.mass_z / dt + alpha**2 * (
            np.concatenate([cdiff, [0.0]]) + np.concatenate([[0.0], cdiff])) / dx
        off = -alpha**2 * cdiff / dx
        rhs = (self.mass_z / dt) * z - self.wq * adv + self.wq * heat + alpha**2 * bdiv
        # Dirichlet zeta(R0) = 0: identity row, decoupled from zeta_{N-1}
        diag[-1] = 1.0
        off[-1] = 0.0
        rhs[-1] = 0.0
        return _solve_tridiag(diag, off, off, rhs)


# ---------------------------------------------------------------------------
# the stepping driver
# ---------------------------------------------------------------------------

def _evolve(profile, params, initial, clock_end, spec, mu, regime, weights=None):
    """Step one regime from clock 0 to clock_end; see the module docstring.

    With weights, the dissipation-ledger integrands are integrated in time here.
    """
    thermo = regime == THERMO_REGIME
    if weights is not None:
        weights.validate(profile.R0)
    f, v, *rest = (np.array(a, dtype=float) for a in initial)
    z = rest[0] if thermo else None          # (a) the temperature state
    bg = sample_background(profile, np.linspace(0.0, profile.R0, spec.n_cells + 1))
    rows = [(thermo or profile.delta == params.delta, "profile and expansion share delta"),
            (0 < mu < math.inf, "0 < mu < inf"), (0 <= clock_end < math.inf, "0 <= end < inf"),
            (all(a.shape == bg.x.shape and np.isfinite(a).all() for a in (f, v, *rest)),
             f"initial fields are finite on {bg.x.size} nodes"),
            (not thermo or not z[-1:].any(), "zeta(R0) = 0 initially")]
    if bad := spec.violations(thermo) + [text for ok, text in rows if not ok]:
        raise ConfigInvalid(bad)
    alpha_clock = _AlphaClock(params, regime, clock_end)
    kernel = _Kernel(bg, alpha_clock, mu)
    geom = kernel.edge_geometry(f)            # the edge geometry of the current state
    if kernel.check_geometry(f, geom) <= 0.0:
        raise DomainViolation("initial data degenerates the flow map")
    if thermo and np.any(z[1:-1] + kernel.theta_b[1:-1] <= 0.0):
        raise InvalidParams("initial absolute temperature must stay positive")

    clock = 0.0
    emit = np.linspace(0.0, clock_end, spec.n_emit)
    emit_idx = 1
    events, snapshots, times = [], [], [0.0]
    online = prev_online_vals = None
    online_series: dict[str, list[float]] = {}

    def mk_field(acc, z_rate):
        """The current state as a field, uncopied: no step writes an array in place."""
        return PerturbationField(bg.x, f, v, acc, clock, regime, z, z_rate, background=bg)

    def record(field):
        """Emit a snapshot with the online ledger integrals accumulated so far."""
        snapshots.append(field)
        for k in online_series:
            online_series[k].append(online[k])

    track_energy = regime == SELF_SIMILAR_REGIME   # (c) the E/D/W probe
    if track_energy:
        rho4, rho43 = bg.x**4 * kernel.rho, bg.xm**2 * bg.rho43_m

        def energy_now(alpha):
            gram = functionals._gram_factors(geom, bg.xm, kernel.dx, kernel.gw)
            aE, D = functionals._energy_ss(bg.x, bg.xm, f, v, geom, gram, rho4, rho43,
                                           params.b, params.delta)
            return aE / alpha, D

        ab32 = alpha_clock.alpha(0.0) ** 1.5     # alpha^(3/2) of the last accepted state
        E, D = energy_now(alpha_clock.alpha(0.0))
        E_series, D_series, W_series = [E], [D], [0.0]

    acc = kernel.acceleration(f, geom, v, 0.0, zeta=z)
    z_rate = kernel.zeta_rate(f, geom, v, z, 0.0) if thermo else None
    field = mk_field(acc, z_rate)
    record(field)
    omega = functionals.amplitude(field)     # of the last accepted state
    if weights is not None:
        prev_online_vals = functionals.ledger_integrands(field, weights, alpha_clock)
        online = dict.fromkeys(prev_online_vals, 0.0)
        online_series = {k: [0.0] for k in prev_online_vals}

    dt = spec.dt_init or math.inf     # the first step is set by the CFL limit
    completed = True
    for _ in range(2_000_000):
        if clock >= clock_end * (1.0 - 1e-14):
            break
        inertia = alpha_clock.coefficients(clock)[0]
        dt_cfl = spec.cfl * kernel.dx / kernel.wave_speed(geom, inertia, zeta=z)
        dt = min(dt * 1.25, dt_cfl, spec.dt_max or np.inf, clock_end - clock)
        if emit_idx < emit.size:
            dt = min(dt, emit[emit_idx] - clock + 1e-15)
        stop = None
        for _retry in range(40):
            clock_new = clock + dt
            if spec.order == 2:
                f_mid = f + 0.5 * dt * v
                v_new = kernel.solve_velocity(f_mid, kernel.edge_geometry(f_mid), v, dt,
                                              clock + 0.5 * dt, weight=0.5)
                f_new = f + 0.5 * dt * (v + v_new)
            else:
                v_new = kernel.solve_velocity(f, geom, v, dt, clock_new, zeta=z)
                f_new = f + dt * v_new
            geom_new = kernel.edge_geometry(f_new)
            if thermo:
                z_new = kernel.temperature_step(f_new, geom_new, v_new, z, dt, clock_new)
            change = np.abs(f_new - f).max() / max(1.0, np.abs(1.0 + f).max())
            if change <= spec.max_rel_change and np.all(np.isfinite(f_new)) \
                    and (not thermo or np.all(np.isfinite(z_new))):
                break
            dt *= 0.5
            if dt < spec.dt_floor:
                stop = RunEvent("cfl-floor", clock, f"dt = {dt:.3e}")
                break
        else:
            stop = RunEvent("step-failure", clock, "no acceptable step")
        if stop is None and (low := kernel.check_geometry(f_new, geom_new)) <= 0.0:
            stop = RunEvent("jacobian-degenerate", clock, f"min(1+f, J) = {low:.3e}")
        if stop is None and thermo:           # (b) the absolute temperature stays positive
            temp_abs = z_new[1:-1] + kernel.theta_b[1:-1]
            if np.any(temp_abs <= 0.0):
                stop = RunEvent("temperature-negative", clock, f"min = {temp_abs.min():.3e}")
        if stop is not None:
            events.append(stop)
            completed = False
            break

        acc = (v_new - v) / dt
        if thermo:
            z_rate = (z_new - z) / dt
            z = z_new
        f, v, geom, clock = f_new, v_new, geom_new, clock_new
        times.append(clock)
        if track_energy:
            alpha = alpha_clock.alpha(clock)
            E, D = energy_now(alpha)
            ab32_prev, ab32 = ab32, alpha ** 1.5
            W_series.append(W_series[-1] + 0.5 * dt * (ab32 * D + ab32_prev * D_series[-1]))
            E_series.append(E)
            D_series.append(D)
        field = mk_field(acc, z_rate)
        if weights is not None:
            vals = functionals.ledger_integrands(field, weights, alpha_clock)
            for k, val in vals.items():
                online[k] += 0.5 * dt * (val + prev_online_vals[k])
            prev_online_vals = vals

        omega_prev, omega = omega, functionals.amplitude(field)
        if omega > spec.growth_threshold:
            crossing = _located_crossing(times[-2], clock, omega_prev, omega,
                                         spec.growth_threshold)
            events.append(RunEvent("growth", clock, f"amplitude = {omega:.3e}", crossing))
            record(field)
            completed = False
            break

        if emit_idx < emit.size and clock >= emit[emit_idx] - 1e-12:
            record(field)
            while emit_idx < emit.size and clock >= emit[emit_idx] - 1e-12:
                emit_idx += 1
    else:
        raise StepFailure("step budget exhausted")

    if snapshots[-1].clock < clock - 1e-12:
        record(mk_field(None, None))

    energy = dissipation = visc_work = None
    if track_energy:
        energy, dissipation, visc_work = map(np.asarray, (E_series, D_series, W_series))
    return RunResult(
        regime=regime, snapshots=snapshots, events=events, times=np.asarray(times),
        energy=energy, dissipation=dissipation, visc_work=visc_work,
        dissipation_online={k: np.asarray(vs) for k, vs in online_series.items()}
        if weights is not None else None,
        weights=weights, background=bg, alpha_clock=alpha_clock, completed=completed)


def evolve_self_similar(profile, params: ExpansionParams, initial, s_end: float,
                        spec: SolverSpec | None = None, mu: float = 1.0) -> RunResult:
    """Evolve a perturbation of the self-similarly expanding star to s_end."""
    return _evolve(profile, params, initial, s_end, spec or SolverSpec(), mu,
                   SELF_SIMILAR_REGIME)


def evolve_linear_isentropic(profile, params: ExpansionParams, initial, tau_end: float,
                             spec: SolverSpec | None = None, mu: float = 1.0,
                             weights: WeightSpec | None = None) -> RunResult:
    """Evolve a perturbation of the linearly expanding isentropic star to tau_end.

    With weights the run keeps its energy ledger (see the module docstring).
    Outside the proven stability range, delta <= -a0 a1^2/8, this warns and
    the run carries a non-stop `outside-stability-range` event.
    """
    notice = "delta <= -a0 a1^2/8: outside the proven stability range"
    outside = params.classification == LINEAR and params.delta <= -params.a0 * params.a1**2 / 8.0
    if outside:
        warnings.warn(notice, stacklevel=2)
    run = _evolve(profile, params, initial, tau_end, spec or SolverSpec(), mu,
                  LINEAR_REGIME, weights)
    if outside:
        run.events.insert(0, RunEvent("outside-stability-range", 0.0, notice))
    return run


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
    if params.delta != 0.0 or params.classification != LINEAR:
        raise WrongClassification("thermodynamic expansion requires delta = 0 Linear parameters")
    return _evolve(profile, params, initial, tau_end, spec or SolverSpec(), mu, THERMO_REGIME,
                   weights)


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
