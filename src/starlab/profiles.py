"""Stationary star profiles on [0, R0].

Both profile families solve a singular second-order ODE from the center out
to the first zero of the density (the vacuum boundary).  The center
singularity is removed with a short Taylor start; the first zero is located
by event detection on the adaptive integrator and refined on its dense
output.  Mass moments are accumulated as extra quadrature states so they
inherit the integrator accuracy.

Isentropic family (pressure rho^{4/3}): w = rho^{1/3} solves

    w'' + (2/y) w' + w^3/4 + 3*delta/4 = 0,   w(0) = 1, w'(0) = 0.

Thermodynamic family (pressure K*rho*theta, heating rate epsilon): the
coupled hydrostatic/temperature system

    K y^2 (rho*theta)' + rho * M(y) = 0,      M' = y^2 rho,
    -(y^2 theta')' = epsilon y^2 rho,

with theta(0) = 1, rho(0) = A (the solver takes A = 1).  Exact solutions
satisfy rho = A*theta^m, m = (1 - eps*K)/(eps*K); the solver integrates the
coupled system and the power-law relation is kept as an independent
consistency oracle, never used in the construction.  Because rho vanishes
like theta^m, its equation is integrated under relative error control
(vanishing absolute tolerance) and the run stops at a small positive
temperature cut; the remaining sliver up to the true zero is closed with a
Taylor step, which costs O(theta_cut^2).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    ConfigInvalid,
    InvalidParams,
    NoFirstZero,
    NonPhysicalVacuum,
    OutOfRange,
    ToleranceNotMet,
    ZerosDoNotCoincide,
)
from .functionals import chi_cutoff, gradient_stencil

# Ballpark radius of the delta = 0 star; used only to place the series start
# and to cap step sizes so the dense output stays as accurate as the steps.
_R0_SCALE_GUESS = 13.8

# Integrate this much tighter than the contract tolerance: the dense-output
# interpolant (what every downstream module evaluates) then meets the
# contract with margin.
_TOL_SAFETY = 1e-3
_TOL_FLOOR = 1e-14

_ROOT_TOL = 1e-12       # |w(R0)| / w(0) allowed at the located zero
_SERIES_FRAC = 1e-3     # series start at this fraction of the radius guess
_SLOPE_FLOOR = 1e-6     # a physical-vacuum slope must exceed this in magnitude
_SLOPE_CAP = 1e6
_THETA_CUT = 1e-9       # thermo: stop when theta falls to this


@dataclass(frozen=True)
class GridSpec:
    """Resolution and tolerance block for profile construction."""

    n_cells: int = 512
    rtol: float = 1e-10
    atol: float = 1e-10
    y_max: float = 200.0           # abort if no zero before this radius

    def __post_init__(self):
        if bad := self.violations():
            raise ConfigInvalid(bad)

    def violations(self) -> list[str]:
        """Named constraints this spec breaks (none once built)."""
        rows = [(isinstance(self.n_cells, numbers.Integral), "grid.n_cells is an integer"),
                (self.n_cells >= 8, "grid.n_cells >= 8"),
                (self.rtol > 0 and self.atol > 0, "grid tolerances > 0"),
                (self.y_max > 0, "grid.y_max > 0")]
        return [text for ok, text in rows if not ok]

    @property
    def tol_eff(self) -> float:
        return max(_TOL_FLOOR, self.rtol * _TOL_SAFETY)


class _DenseOutput:
    """First n states of a DOP853 dense output in arrays: {state: values}, OdeSolution's bits.

    Segment = interior breakpoints ts[1:-1] below t (scipy's clamped searchsorted);
    Horner over F reversed in x = (t - t_old) / h, times x and 1 - x in turn; y_old last.
    """

    def __init__(self, sol, n):
        self.ts = sol.ts[1:-1]
        self.t_old, self.h = np.array([(p.t_old, p.h) for p in sol.interpolants]).T
        self.y_old = np.array([p.y_old for p in sol.interpolants]).T[:n]
        # (state, Horner step, segment); + 0.0 gives the +0.0 of scipy's 0 + F[-1]
        self.F = np.array([p.F for p in sol.interpolants])[:, ::-1, :n].transpose(2, 1, 0) + 0.0

    def __call__(self, t, rows) -> dict:
        t = np.asarray(t, dtype=float)
        seg = np.searchsorted(self.ts, t, side="left")
        x = (t - self.t_old[seg]) / self.h[seg]
        F, y_old = self.F[:, :, seg][rows], self.y_old[:, seg][rows]
        out = {}
        for r, f, y in zip(rows, F, y_old):
            v = f[0] * x
            for i in range(1, len(f)):
                v = (v + f[i]) * (x if i % 2 == 0 else 1 - x)
            out[r] = v + y
        return out


@dataclass
class MassMoments:
    """The fourth moment of the density."""

    fourth_moment: float          # int_0^{R0} s^4 rho(s) ds


@dataclass
class IsentropicProfile:
    delta: float
    R0: float
    y_nodes: np.ndarray
    w: np.ndarray                 # rho^{1/3} at the nodes
    rho_bar: np.ndarray
    mass_moments: MassMoments
    boundary_slope: float         # d/dy rho^{1/3} at R0 (finite, negative)
    _dense: _DenseOutput = field(repr=False, default=None)
    _y_series: float = field(repr=False, default=0.0)

    # Evaluation helpers, valid for 0 <= y <= R0.  sample_background uses
    # them once per grid to place profile data on nodes and cell edges.

    def _blend(self, y, series_fn, idx):
        y = np.asarray(y, dtype=float)
        dense = self._dense(np.clip(y, self._y_series, self.R0), [idx])[idx]
        return np.where(y < self._y_series, series_fn(y), dense)

    def w_at(self, y):
        c2 = -(1.0 + 3.0 * self.delta) / 24.0
        return self._blend(y, lambda t: 1.0 + c2 * t**2, 0)

    def wprime_at(self, y):
        c2 = -(1.0 + 3.0 * self.delta) / 24.0
        return self._blend(y, lambda t: 2.0 * c2 * t, 1)

    def rho_at(self, y):
        return np.clip(self.w_at(y), 0.0, None) ** 3

    def rho43_at(self, y):
        return np.clip(self.w_at(y), 0.0, None) ** 4


@dataclass
class ThermoProfile:
    K: float
    epsilon: float
    c_nu: float                   # fixed to 3K
    R0: float
    y_nodes: np.ndarray
    rho_bar: np.ndarray
    theta_bar: np.ndarray
    reduction_constant: float     # A in rho = A * theta^m
    mass_moments: MassMoments
    theta_boundary_slope: float   # d/dy theta at R0
    rho_pow_boundary_slope: float  # d/dy rho^{1/m} at R0
    zero_gap: float = 0.0         # |implied rho zero - theta zero|
    _dense: _DenseOutput = field(repr=False, default=None)
    _y_series: float = field(repr=False, default=0.0)
    _y_cut: float = field(repr=False, default=0.0)
    _cut: tuple = field(repr=False, default=(0.0, 0.0, 0.0))   # rho, theta, M at _y_cut

    @property
    def exponent(self) -> float:
        """m = (1 - eps K)/(eps K); rho = A theta^m for exact solutions."""
        ek = self.epsilon * self.K
        return (1.0 - ek) / ek

    def _series(self, y, which):
        A, m = self.reduction_constant, self.exponent
        t2 = -self.epsilon * A / 6.0
        if which == "rho":
            return A * (1.0 + m * t2 * y**2)
        if which == "theta":
            return 1.0 + t2 * y**2
        if which == "thetaprime":
            return 2.0 * t2 * y
        if which == "mass":
            return A * (y**3 / 3.0 + m * t2 * y**5 / 5.0)
        raise KeyError(which)

    def _tail_theta(self, y):
        # Linear vacuum behavior past the temperature cut.
        return np.clip(self.theta_boundary_slope * (y - self.R0), 0.0, None)

    def _mid(self, y, rows):   # dense states at y, which quantities at y share
        return self._dense(np.clip(y, self._y_series, self._y_cut), rows)

    def _eval(self, y, which, mid=None):
        y = np.asarray(y, dtype=float)
        if mid is None:
            mid = self._mid(y, [0, 1, 2, 3])
        rho_c, theta_c, M_c = self._cut
        if which == "rho":
            tail = rho_c * (self._tail_theta(y) / theta_c) ** self.exponent
            vals = np.where(y > self._y_cut, tail, np.clip(mid[0], 0.0, None))
        elif which == "theta":
            vals = np.where(y > self._y_cut, self._tail_theta(y), np.clip(mid[1], 0.0, None))
        elif which == "thetaprime":
            with np.errstate(divide="ignore", invalid="ignore"):
                inner = mid[2] / np.maximum(y, 1e-300) ** 2
            vals = np.where(y > self._y_cut, self.theta_boundary_slope, inner)
        elif which == "mass":
            vals = np.where(y > self._y_cut, M_c, mid[3])
        return np.where(y < self._y_series, self._series(y, which), vals)

    def rho_at(self, y):
        return self._eval(y, "rho")

    def theta_at(self, y):
        return self._eval(y, "theta")

    def thetaprime_at(self, y):
        return self._eval(y, "thetaprime")

    def cumulative_mass_at(self, y):
        return self._eval(y, "mass")


@dataclass(frozen=True, eq=False)
class Background:
    """A solved profile sampled once on a node grid x and its cell midpoints xm.

    The static star never changes during a run: solvers, ledgers and the
    Eulerian reconstruction read it from here, never from the dense output.
    The read-only node values are raw (rho at R0 is not zeroed).
    """

    x: np.ndarray
    xm: np.ndarray
    R0: float
    rho: np.ndarray
    rho_m: np.ndarray
    chi: np.ndarray                     # ledger interior cut-off at the nodes
    grad: tuple                         # gradient_stencil(x)
    rho43: np.ndarray | None = None     # isentropic: rho^{4/3}
    rho43_m: np.ndarray | None = None
    K: float | None = None              # thermo: pressure constant
    theta: np.ndarray | None = None
    theta_m: np.ndarray | None = None
    thetap_m: np.ndarray | None = None  # d theta / dy at the midpoints
    ptheta_m: np.ndarray | None = None  # K rho theta at the midpoints

    def require_grid(self, x) -> tuple:
        """The gradient stencil of x; InvalidParams unless this background was sampled on x."""
        if x is not self.x and not np.array_equal(x, self.x):
            raise InvalidParams(f"background sampled on {self.x.size} nodes over "
                                f"[0, {self.R0:.6g}] does not match the field grid")
        return self.grad


def sample_background(profile, x) -> Background:
    """Sample a solved profile once on the node grid x and its cell midpoints."""
    x = np.array(x, dtype=float)
    xm = 0.5 * (x[:-1] + x[1:])
    arrays = {"x": x, "xm": xm, "chi": chi_cutoff(x, profile.R0)}
    thermo = isinstance(profile, ThermoProfile)
    if thermo:
        for key, y, rows in (("", x, [0, 1]), ("_m", xm, [0, 1, 2])):
            mid = profile._mid(y, rows)
            arrays["rho" + key] = profile._eval(y, "rho", mid)
            arrays["theta" + key] = profile._eval(y, "theta", mid)
        arrays["thetap_m"] = profile._eval(xm, "thetaprime", mid)   # the loop's last mid, xm's
        arrays["ptheta_m"] = profile.K * arrays["rho_m"] * arrays["theta_m"]
    else:
        for key, y in (("", x), ("_m", xm)):
            w = np.clip(profile.w_at(y), 0.0, None)
            arrays["rho" + key], arrays["rho43" + key] = w**3, w**4
    for arr in arrays.values():
        arr.setflags(write=False)
    return Background(R0=profile.R0, K=profile.K if thermo else None,
                      grad=gradient_stencil(x), **arrays)


def solve_isentropic_profile(delta: float, grid_spec: GridSpec | None = None) -> IsentropicProfile:
    """Integrate the isentropic profile ODE out to its first density zero."""
    gs = grid_spec or GridSpec()
    c2 = -(1.0 + 3.0 * delta) / 24.0
    y0 = _SERIES_FRAC * _R0_SCALE_GUESS
    state0 = [
        1.0 + c2 * y0**2,                      # w
        2.0 * c2 * y0,                         # w'
        y0**3 / 3.0 + 3.0 * c2 * y0**5 / 5.0,  # int s^2 rho
        y0**5 / 5.0 + 3.0 * c2 * y0**7 / 7.0,  # int s^4 rho
    ]

    def rhs(y, u):
        w, wp, _, _ = u
        w3 = w * w * w
        return (wp, -2.0 * wp / y - 0.25 * w3 - 0.75 * delta, y * y * w3, y**4 * w3)

    def hit_zero(y, u):
        return u[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    tol = gs.tol_eff
    sol = solve_ivp(rhs, (y0, gs.y_max), state0, method="DOP853",
                    rtol=tol, atol=tol, events=hit_zero, dense_output=True,
                    max_step=0.02 * _R0_SCALE_GUESS)
    if not sol.success:
        raise ToleranceNotMet(f"profile integration failed: {sol.message}")
    if sol.t_events[0].size == 0:
        raise NoFirstZero(
            f"rho^(1/3) stayed positive up to y = {gs.y_max} for delta = {delta}; "
            "delta may be below the solvable range or y_max too small")

    R0 = float(sol.t_events[0][0])
    w_R0, slope, _, q4_R0 = sol.sol(R0)
    if abs(w_R0) > _ROOT_TOL:
        raise ToleranceNotMet(f"|w(R0)| = {abs(w_R0):.3e} above root tolerance {_ROOT_TOL}")
    if not np.isfinite(slope) or abs(slope) > _SLOPE_CAP:
        raise NonPhysicalVacuum(f"boundary slope {slope} diverged")
    if slope > -_SLOPE_FLOOR:
        raise NonPhysicalVacuum(
            f"boundary slope {slope:.3e} is not strictly negative; vacuum is not physical")

    y_nodes = np.linspace(0.0, R0, gs.n_cells + 1)
    profile = IsentropicProfile(
        delta=float(delta),
        R0=R0,
        y_nodes=y_nodes,
        w=None,
        rho_bar=None,
        mass_moments=MassMoments(fourth_moment=float(q4_R0)),
        boundary_slope=float(slope),
        _dense=_DenseOutput(sol.sol, 2),    # w and w'; the moments are read at R0 only
        _y_series=y0,
    )
    w = profile.w_at(y_nodes)       # w(0) = 1 exactly, from the series
    w[-1] = max(w[-1], 0.0)
    if np.any(w[1:-1] <= 0.0):
        raise ToleranceNotMet("interior density lost positivity before the located zero")
    profile.w, profile.rho_bar = w, w**3
    return profile


def solve_thermo_profile(K: float, epsilon: float,
                         grid_spec: GridSpec | None = None) -> ThermoProfile:
    """Integrate the coupled thermodynamic equilibrium out to the common zero.

    theta(0) and rho(0) are normalized to 1, which selects one branch of the
    one-parameter equilibrium family.  rho and theta must vanish together:
    the implied zeros of theta (Taylor-extended) and of the linearly
    vanishing variable rho^{1/m} are compared and ZerosDoNotCoincide is
    raised if they disagree by more than 1e-6 * R0.
    """
    gs = grid_spec or GridSpec()
    ek = epsilon * K
    if not (1.0 / 6.0 < ek < 1.0):
        raise OutOfRange(f"epsilon*K = {ek} outside (1/6, 1)")
    m = (1.0 - ek) / ek

    # Lane-Emden scaling of the reduced equation sets the radius scale.
    r0_guess = _R0_SCALE_GUESS / 2.0 / np.sqrt(epsilon)
    y0 = _SERIES_FRAC * r0_guess
    t2 = -epsilon / 6.0
    state0 = [
        1.0 + m * t2 * y0**2,                       # rho
        1.0 + t2 * y0**2,                           # theta
        2.0 * t2 * y0**3,                           # g = y^2 theta'
        y0**3 / 3.0 + m * t2 * y0**5 / 5.0,         # M = int s^2 rho
        y0**5 / 5.0 + m * t2 * y0**7 / 7.0,         # int s^4 rho
    ]

    def rhs(y, u):
        rho, theta, g, M, _ = u
        y2 = y * y
        theta_p = g / y2
        rho_p = -rho * (M / (K * y2) + theta_p) / theta
        return (rho_p, theta_p, -epsilon * y2 * rho, y2 * rho, y2 * y2 * rho)

    def hit_cut(y, u):
        return u[1] - _THETA_CUT

    hit_cut.terminal = True
    hit_cut.direction = -1

    tol = gs.tol_eff
    # Vanishing atol on rho keeps its error control relative all the way
    # into the vacuum tail.
    sol = solve_ivp(rhs, (y0, gs.y_max), state0, method="DOP853",
                    rtol=tol, atol=[0.0, tol, tol, tol, tol],
                    events=hit_cut, dense_output=True, max_step=0.04 * r0_guess)
    if not sol.success:
        raise ToleranceNotMet(f"thermo profile integration failed: {sol.message}")
    if sol.t_events[0].size == 0:
        raise NoFirstZero(f"theta stayed positive up to y = {gs.y_max}")

    y_cut = float(sol.t_events[0][0])
    rho_c, theta_c, g_c, M_c, q4_c = sol.sol(y_cut)
    theta_p = g_c / y_cut**2
    theta_pp = -2.0 * theta_p / y_cut - epsilon * rho_c
    if theta_p >= 0:
        raise NonPhysicalVacuum("theta is not decreasing at the cut")

    # Quadratic Taylor step from the cut to the true zero of theta.
    d = theta_c / (-theta_p)
    d -= (theta_c + theta_p * d + 0.5 * theta_pp * d * d) / (theta_p + theta_pp * d)
    R0 = y_cut + d
    theta_slope = theta_p + theta_pp * d

    if not np.isfinite(theta_slope) or theta_slope > -_SLOPE_FLOOR:
        raise NonPhysicalVacuum(f"theta boundary slope {theta_slope:.3e} not strictly negative")

    # rho^{1/m} vanishes linearly; its implied zero must match R0.
    rho_p = -rho_c * (M_c / (K * y_cut**2) + theta_p) / theta_c
    if rho_p >= 0:
        raise NonPhysicalVacuum("rho is not decreasing at the cut")
    R0_rho = y_cut + m * rho_c / (-rho_p)
    if abs(R0_rho - R0) > 1e-6 * R0:
        raise ZerosDoNotCoincide(
            f"implied rho zero differs from theta zero by {abs(R0_rho - R0):.3e} (> 1e-6 R0)")
    rho_pow_slope = (rho_c ** (1.0 / m)) * rho_p / (m * rho_c)
    if not np.isfinite(rho_pow_slope) or rho_pow_slope >= 0:
        raise NonPhysicalVacuum("rho^(eps K/(1-eps K)) boundary slope not strictly negative")

    # Close the fourth moment over the sliver [y_cut, R0] analytically
    # (rho ~ rho_c ((R0-y)/(R0-y_cut))^m there).
    q4_R0 = q4_c + y_cut**4 * rho_c * (R0 - y_cut) / (m + 1.0)

    y_nodes = np.linspace(0.0, R0, gs.n_cells + 1)
    profile = ThermoProfile(
        K=float(K),
        epsilon=float(epsilon),
        c_nu=3.0 * float(K),
        R0=R0,
        y_nodes=y_nodes,
        rho_bar=np.zeros_like(y_nodes),
        theta_bar=np.zeros_like(y_nodes),
        reduction_constant=1.0,
        mass_moments=MassMoments(fourth_moment=float(q4_R0)),
        theta_boundary_slope=float(theta_slope),
        rho_pow_boundary_slope=float(rho_pow_slope),
        zero_gap=float(abs(R0_rho - R0)),
        _dense=_DenseOutput(sol.sol, 4),    # rho, theta, g, M; q4 is closed at the cut
        _y_series=y0,
        _y_cut=y_cut,
        _cut=(float(rho_c), float(theta_c), float(M_c)),
    )
    mid = profile._mid(y_nodes, [0, 1])   # one dense evaluation for the nodes
    profile.rho_bar, profile.theta_bar = (profile._eval(y_nodes, q, mid) for q in ("rho", "theta"))
    profile.rho_bar[-1] = profile.theta_bar[-1] = 0.0
    if np.any(profile.rho_bar[1:-1] <= 0.0) or np.any(profile.theta_bar[1:-1] <= 0.0):
        raise ToleranceNotMet("interior positivity lost before the located zero")
    return profile


def isentropic_ode_residual(profile: IsentropicProfile, h: float = 1e-5) -> np.ndarray:
    """Residual of the profile ODE at the interior nodes, via an independent stencil.

    w'' is reconstructed by central-differencing the integrator's first
    derivative, so the check is independent of the right-hand side wiring.
    """
    y = profile.y_nodes[1:-1]
    wpp = (profile.wprime_at(y + h) - profile.wprime_at(y - h)) / (2.0 * h)
    w = profile.w_at(y)
    wp = profile.wprime_at(y)
    return wpp + 2.0 * wp / y + 0.25 * w**3 + 0.75 * profile.delta


def thermo_ode_residual(profile: ThermoProfile, h: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of both equilibrium equations at interior nodes (FD stencils)."""
    y = profile.y_nodes[1:-1]
    p = lambda t: profile.K * profile.rho_at(t) * profile.theta_at(t)
    dp = (p(y + h) - p(y - h)) / (2.0 * h)
    res_mom = y**2 * dp + profile.rho_at(y) * profile.cumulative_mass_at(y)
    dg = ((y + h) ** 2 * profile.thetaprime_at(y + h)
          - (y - h) ** 2 * profile.thetaprime_at(y - h)) / (2.0 * h)
    res_temp = -dg - profile.epsilon * y**2 * profile.rho_at(y)
    return res_mom / max(profile.K, 1.0), res_temp


def boundary_slope_fd(y_nodes: np.ndarray, values: np.ndarray) -> float:
    """One-sided second-order slope estimate at the last grid node."""
    h = y_nodes[-1] - y_nodes[-2]
    return float((3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h))
