"""Stationary star profiles on [0, R0].

Both profile families solve a singular second-order ODE from the center out
to the first zero of the density (the vacuum boundary).  Both start from a
fourth-order center series, which the profile also evaluates below the start;
one DOP853 launcher integrates each star from there and stops at a terminal
downward event.  The integrator is the in-house `_dop853`: scipy's DOP853
steps, dense output and event root with scipy's bits, without importing
scipy.integrate or scipy.optimize.  The fourth mass moment is accumulated as
an extra quadrature state, so it inherits the integrator accuracy.

Isentropic family (pressure rho^{4/3}): w = rho^{1/3} solves

    w'' + (2/y) w' + w^3/4 + 3*delta/4 = 0,   w(0) = 1, w'(0) = 0.

Thermodynamic family (pressure K*rho*theta, heating rate epsilon): the
coupled hydrostatic/temperature system

    K y^2 (rho*theta)' + rho * M(y) = 0,      M' = y^2 rho,
    -(y^2 theta')' = epsilon y^2 rho,

with theta(0) = 1, rho(0) = A (the solver takes A = 1).  Exact solutions
satisfy rho = A*theta^m, m = (1 - eps*K)/(eps*K); the solver integrates the
coupled system and the power-law relation is kept as an independent
consistency oracle, never used in the construction.  rho vanishes like
theta^m, so the solve carries u = rho^(1/m) instead: the Lane-Emden theta
(Chandrasekhar 1939, ch. IV), which vanishes linearly, so one uniform
tolerance controls it into the vacuum tail.  The run stops at a small positive
temperature cut; the sliver up to the true zero is closed with a Taylor step,
which costs O(theta_cut^2).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._dop853 import DenseOutput, dop853
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
    """Resolution and tolerance block for profile construction (solves read rtol
    through tol_eff; atol is validated and written to the manifest, but no solve reads it)."""

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
        """rtol and atol of both solves: rtol * 1e-3, at least 1e-14.  The solve then raises
        its rtol, not its atol, to 100 eps (2.2e-14) as scipy's DOP853 does, so a grid rtol
        below about 2.2e-11 tightens only the absolute tolerance."""
        return max(_TOL_FLOOR, self.rtol * _TOL_SAFETY)


def _isentropic_series(y, delta):
    """w, w' and int s^4 rho at y to fourth order: the solve's start state and the
    profile below it.  w = 1 + c2 y^2 + c4 y^4, rho = w^3 = 1 + r2 y^2 + r4 y^4."""
    c2 = -(1.0 + 3.0 * delta) / 24.0
    c4 = -3.0 * c2 / 80.0
    r2, r4 = 3.0 * c2, 3.0 * c4 + 3.0 * c2 * c2
    y2 = y * y
    return (1.0 + (c2 + c4 * y2) * y2, (2.0 * c2 + 4.0 * c4 * y2) * y,
            (0.2 + (r2 / 7.0 + r4 * y2 / 9.0) * y2) * y2 * y2 * y)


@dataclass
class IsentropicProfile:
    delta: float
    R0: float
    y_nodes: np.ndarray
    w: np.ndarray                 # rho^{1/3} at the nodes
    rho_bar: np.ndarray
    fourth_moment: float          # int_0^{R0} s^4 rho(s) ds
    boundary_slope: float         # d/dy rho^{1/3} at R0 (finite, negative)
    _dense: DenseOutput = field(repr=False, default=None)
    _y_series: float = field(repr=False, default=0.0)

    # Evaluation helpers, valid for 0 <= y <= R0.  sample_background uses
    # them once per grid to place profile data on nodes and cell edges.

    def _blend(self, y, idx):
        y = np.asarray(y, dtype=float)
        dense = self._dense(np.clip(y, self._y_series, self.R0), [idx])[idx]
        return np.where(y < self._y_series, _isentropic_series(y, self.delta)[idx], dense)

    def w_at(self, y):
        return self._blend(y, 0)

    def wprime_at(self, y):
        return self._blend(y, 1)

    def rho_at(self, y):
        return np.clip(self.w_at(y), 0.0, None) ** 3

    def rho43_at(self, y):
        return np.clip(self.w_at(y), 0.0, None) ** 4


def _thermo_series(y, epsilon, m):
    """theta, theta', M and int s^4 rho at y to fourth order (A = 1): the solve's start state
    and the profile below it.  theta = 1 + t2 y^2 + t4 y^4, rho = theta^m = 1 + c2 y^2 + c4 y^4."""
    t2 = -epsilon / 6.0
    t4 = epsilon * epsilon * m / 120.0
    c2, c4 = m * t2, m * t4 + 0.5 * m * (m - 1.0) * t2 * t2
    y2 = y * y
    return (1.0 + (t2 + t4 * y2) * y2, (2.0 * t2 + 4.0 * t4 * y2) * y,
            (1.0 / 3.0 + (c2 / 5.0 + c4 * y2 / 7.0) * y2) * y2 * y,
            (0.2 + (c2 / 7.0 + c4 * y2 / 9.0) * y2) * y2 * y2 * y)


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
    fourth_moment: float          # int_0^{R0} s^4 rho(s) ds
    theta_boundary_slope: float   # d/dy theta at R0
    rho_pow_boundary_slope: float  # d/dy rho^{1/m} at R0
    zero_gap: float = 0.0         # |implied rho zero - theta zero|
    _dense: DenseOutput = field(repr=False, default=None)
    _y_series: float = field(repr=False, default=0.0)
    _y_cut: float = field(repr=False, default=0.0)
    _cut: tuple = field(repr=False, default=(0.0, 0.0, 0.0))   # rho, theta, M at _y_cut

    @property
    def exponent(self) -> float:
        """m = (1 - eps K)/(eps K); rho = A theta^m for exact solutions."""
        ek = self.epsilon * self.K
        return (1.0 - ek) / ek

    def _series(self, y, which):
        theta, thetap, mass, _ = _thermo_series(y, self.epsilon, self.exponent)
        return {"rho": np.maximum(theta, 0.0) ** self.exponent, "theta": theta,
                "thetaprime": thetap, "mass": mass}[which]

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
            vals = np.where(y > self._y_cut, tail, np.clip(mid[0], 0.0, None) ** self.exponent)
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

    @cached_property
    def ledger_weights(self) -> tuple:
        """(x^2, x^4, x^4 rho, chi x^2 rho): the ledger integrands' grid factors, built once."""
        return self.x**2, self.x**4, self.x**4 * self.rho, self.chi * self.x**2 * self.rho


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


def _launch(rhs, y0, state0, gs, max_step, row, level, what):
    """DOP853 from the series start y0 until state[row] falls to level (a terminal event):
    the stop y, the state there and the solution's steps."""
    if not gs.y_max > y0:
        raise NoFirstZero(f"{what} profile: grid.y_max = {gs.y_max} is not beyond the "
                          f"series start y = {y0:.6g}")
    sol = dop853(rhs, (y0, gs.y_max), state0, gs.tol_eff, max_step, row, level)
    if sol.message:
        raise ToleranceNotMet(f"{what} profile integration failed: {sol.message}")
    if sol.t_event is None:
        raise NoFirstZero(f"{what} profile stayed positive up to y = {gs.y_max}; the "
                          "parameters may be outside the solvable range or y_max too small")
    return sol.t_event, sol.y_event, sol


def solve_isentropic_profile(delta: float, grid_spec: GridSpec | None = None) -> IsentropicProfile:
    """Integrate the isentropic profile ODE out to its first density zero."""
    gs = grid_spec or GridSpec()
    y0 = _SERIES_FRAC * _R0_SCALE_GUESS

    def rhs(y, u):
        w, wp, _ = u
        w3 = w * w * w
        return (wp, -2.0 * wp / y - 0.25 * w3 - 0.75 * delta, y**4 * w3)

    R0, (w_R0, slope, q4_R0), sol = _launch(rhs, y0, _isentropic_series(y0, delta), gs,
                                            0.02 * _R0_SCALE_GUESS, 0, 0.0, "isentropic")
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
        fourth_moment=float(q4_R0),
        boundary_slope=float(slope),
        _dense=DenseOutput(sol, 2),    # w and w'; the moment is read at R0 only
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
    if not K > 0:
        raise OutOfRange(f"K = {K} is not > 0")
    ek = epsilon * K
    if not (1.0 / 6.0 < ek < 1.0):
        raise OutOfRange(f"epsilon*K = {ek} outside (1/6, 1)")
    m = (1.0 - ek) / ek

    # Lane-Emden scaling of the reduced equation sets the radius scale.
    r0_guess = _R0_SCALE_GUESS / 2.0 / np.sqrt(epsilon)
    y0 = _SERIES_FRAC * r0_guess
    theta0, thetap0, M0, q4_0 = _thermo_series(y0, epsilon, m)
    state0 = [theta0, theta0, y0 * y0 * thetap0, M0, q4_0]   # u, theta, g = y^2 theta', M, q4

    def rhs(y, s):
        u, theta, g, M, _ = s
        y2 = y * y
        theta_p = g / y2
        rho = max(u, 0.0) ** m
        return (-u * (M / (K * y2) + theta_p) / (m * theta), theta_p,
                -epsilon * y2 * rho, y2 * rho, y2 * y2 * rho)

    # u = rho^(1/m) vanishes linearly, like theta (rho itself like (R0 - y)^m), so
    # one absolute tolerance controls it into the vacuum tail, and its own zero must match R0.
    y_cut, (u_c, theta_c, g_c, M_c, q4_c), sol = _launch(
        rhs, y0, state0, gs, 0.04 * r0_guess, 1, _THETA_CUT, "thermo")
    rho_c = u_c**m
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

    u_p = -u_c * (M_c / (K * y_cut**2) + theta_p) / (m * theta_c)
    if not np.isfinite(u_p) or u_p >= 0:
        raise NonPhysicalVacuum("rho^(1/m) is not decreasing at the cut")
    R0_rho = y_cut + u_c / (-u_p)
    if abs(R0_rho - R0) > 1e-6 * R0:
        raise ZerosDoNotCoincide(
            f"implied rho zero differs from theta zero by {abs(R0_rho - R0):.3e} (> 1e-6 R0)")

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
        fourth_moment=float(q4_R0),
        theta_boundary_slope=float(theta_slope),
        rho_pow_boundary_slope=float(u_p),
        zero_gap=float(abs(R0_rho - R0)),
        _dense=DenseOutput(sol, 4),    # u, theta, g, M; q4 is closed at the cut
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
