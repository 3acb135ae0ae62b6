"""Phase plane of spatially uniform perturbations of the self-similar star.

A uniform perturbation phi(s) of the self-similarly expanding background
(delta < 0, b = sqrt(2|delta|)) obeys the autonomous second-order ODE

    phi_ss + (b/2) phi_s + |delta| (1/(1+phi)^2 - (1+phi)) = 0,

whose steady point is (0, 0).  The zero-energy level set through the origin
is the curve phi_s = -b(1+phi) + b(1+phi)^{-1/2}; it is the stable manifold
of the saddle at the origin.  The bracket

    B = phi_s + b((1+phi) - (1+phi)^{-1/2})

(the signed vertical distance to the curve) satisfies
B_s = (b/2)(1 + (1+phi)^{-3/2}) B, so off-curve states escape: B > 0 leads
to unbounded expansion (phi -> infinity), B < 0 to collapse (phi -> -1 at
finite s).

A trajectory is an expansion path A = alpha_ss (1 + phi) of the same delta, with
A(0) = 1 + phi0 and A'(0) = b(1 + phi0) + phi_s0 = sqrt(2|delta|/A(0)) + B(0): the
side of the curve is A's class, and `energy_homogeneous` its first integral.  With
t = (e^{1.5 b s} - 1)/(1.5 b), phi = A(t) e^{-b s} - 1 and phi_s = A'(t) e^{b s/2} -
b(1 + phi) come from A's closed-form clock (`expansion.AlphaClock`).  The bracket
identity's exponent is I = (b/2)(s + s_A), s_A = int A^{-1/2} dtau, so the drift
|B e^{-I} - B(0)| measures how well the samples satisfy it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainViolation, InvalidParams
from .expansion import SELF_SIMILAR, AlphaClock, _increasing_root, classify_expansion

STATIONARY = "Stationary"
ON_CURVE = "OnCurve"
EXPAND = "Expand"
COLLAPSE = "Collapse"

_PHI_FLOOR_GAP = 1e-6   # stop at phi = -1 + gap to avoid the singularity
_PHI_CAP = 1e3          # stop runaway expansion before overflow
_ESCAPE = 0.5           # |phi| at which a trajectory has escaped
_ON_CURVE_TOL = 1e-8    # |B| bound of a trajectory that stays on the curve
_N_SAMPLES = 1000       # samples of a trajectory


@dataclass(frozen=True)
class PhaseState:
    phi: float
    phi_s: float
    delta: float

    def __post_init__(self):
        if self.delta >= 0:
            raise InvalidParams("homogeneous phase plane requires delta < 0")
        if 1.0 + self.phi <= 0.0:
            raise DomainViolation(f"1 + phi = {1.0 + self.phi} <= 0")

    @property
    def b(self) -> float:
        return math.sqrt(2.0 * abs(self.delta))


@dataclass
class PhaseTrajectory:
    s_samples: np.ndarray
    phi: np.ndarray
    phi_s: np.ndarray
    fate: str
    first_escape_s: float | None
    energy: np.ndarray
    curve_distance: np.ndarray     # |B|, the vertical distance to the curve
    identity_drift: float          # max |B(s) e^{-I(s)} - B(0)|
    delta: float
    _clock: AlphaClock | None = field(repr=False, default=None)   # the path A

    def phi_at(self, s):
        """phi at the s clock values, from the closed form of the trajectory."""
        s = np.asarray(s, dtype=float)
        if self._clock is None:
            return np.zeros_like(s)
        return _sample(self._clock, s)[0]


def curve_phi_s(phi, delta):
    """phi_s on the zero-energy curve through the origin."""
    if delta >= 0:
        raise InvalidParams("requires delta < 0")
    one = 1.0 + np.asarray(phi, dtype=float)
    if np.any(one <= 0.0):
        raise DomainViolation("phi <= -1")
    b = math.sqrt(2.0 * abs(delta))
    return -b * one + b * one**-0.5


def energy_homogeneous(phi, phi_s, delta):
    """(1/2)(phi_s + b(1+phi))^2 + delta/(1+phi); zero on the curve.

    Negative between the two zero-energy branches, positive outside.
    """
    one = 1.0 + np.asarray(phi, dtype=float)
    if np.any(one <= 0.0):
        raise DomainViolation("phi <= -1")
    b = math.sqrt(2.0 * abs(delta))
    return 0.5 * (np.asarray(phi_s, dtype=float) + b * one) ** 2 + delta / one


def bracket(phi, phi_s, delta):
    """B = phi_s + b((1+phi) - (1+phi)^{-1/2}); the growth identity variable."""
    one = 1.0 + np.asarray(phi, dtype=float)
    b = math.sqrt(2.0 * abs(delta))
    return np.asarray(phi_s, dtype=float) + b * (one - one**-0.5)


def _sample(clock: AlphaClock, s, tau=None):
    """phi, phi_s and s_A at the s values on A's path; its tau values if given.

    On the curve 1 + phi = (1 + (A0^{3/2} - 1) e^{-1.5 b s})^{2/3} at any s.
    """
    p, b = clock.params, clock.params.b
    if p.classification == SELF_SIMILAR:
        e = (p.a0**1.5 - 1.0) * np.exp(-1.5 * b * s)
        one = (1.0 + e) ** (2.0 / 3.0)
        return np.expm1(np.log1p(e) / 1.5), -b * e / np.sqrt(one), s + np.log(one / p.a0) / b
    tau = clock.tau_at(np.expm1(1.5 * b * s) / (1.5 * b)) if tau is None else tau
    A, A_tau, _ = clock.path(tau)
    one = A * np.exp(-b * s)
    return one - 1.0, A_tau / A * np.exp(0.5 * b * s) - b * one, clock.s_of(tau)


def _log_one_plus_phi(clock: AlphaClock, tau):
    """ln(1 + phi) = ln A - (2/3) ln(1 + 1.5 b t) at A's tau, its tau-derivative, and s."""
    b = clock.params.b
    A, A_tau, t = clock.path(tau)
    g = 1.0 + 1.5 * b * t
    return np.log(A) - np.log(g) / 1.5, A_tau / A - b * A / g, np.log(g) / (1.5 * b)


def _crossing(clock: AlphaClock, taus, g, level, up):
    """(tau, s) of the first crossing of ln(1 + phi) = level, or None; g = ln(1 + phi) - level."""
    sign = 1.0 if up else -1.0
    hit = np.flatnonzero((sign * g[:-1] <= 0) & (sign * g[1:] >= 0))
    if hit.size == 0:
        return None
    lo, hi, g0, g1 = taus[hit[0]], taus[hit[0] + 1], g[hit[0]], g[hit[0] + 1]
    if np.isinf(g1):                   # hi = tau_c, where ln A ~ 2 ln(tau_c - tau)
        x0 = hi - (hi - lo) * math.exp(-0.5 * g0)
    else:
        x0 = lo + (hi - lo) * g0 / (g0 - g1) if g0 != g1 else lo
    fun = lambda x: [sign * v for v in _log_one_plus_phi(clock, x)[:2]]
    tau = float(_increasing_root(fun, sign * level, lo, hi, x0))
    return tau, float(_log_one_plus_phi(clock, tau)[2])


def integrate_phase(initial: PhaseState, s_end: float) -> PhaseTrajectory:
    """Sample a uniform perturbation from its closed form and classify its fate.

    Fates: Stationary for the exact steady point; OnCurve when the state
    starts on the zero-energy curve and stays within 1e-8 of it;
    otherwise Expand/Collapse by the side of the curve, with
    first_escape_s the first s where |phi| crosses 0.5 outward.  A collapse
    stops where 1 + phi first reaches 1e-6, a runaway expansion where phi
    first reaches a large cap (at once, if it starts beyond); either stop is
    a label, not an error.
    """
    if not s_end > 0:
        raise InvalidParams("s_end must be positive")
    delta = initial.delta
    b = initial.b

    if initial.phi == 0.0 and initial.phi_s == 0.0:
        s = np.linspace(0.0, s_end, _N_SAMPLES)
        z = np.zeros_like(s)
        return PhaseTrajectory(s_samples=s, phi=z, phi_s=z.copy(), fate=STATIONARY,
                               first_escape_s=None, energy=z.copy(),
                               curve_distance=z.copy(), identity_drift=0.0,
                               delta=delta)

    one0 = 1.0 + initial.phi
    clock = AlphaClock(classify_expansion(delta, one0, b * one0 + initial.phi_s))
    escapes, tau = [], None
    s = np.linspace(0.0, s_end, _N_SAMPLES)
    if clock.params.classification != SELF_SIMILAR:     # off the curve: find the stop
        up = clock.tau_c == math.inf   # the cap past an expansion, else the floor before tau_c
        level = math.log(1.0 + _PHI_CAP) if up else math.log(_PHI_FLOOR_GAP)
        hi = clock.tau_c if not up else abs(clock._rad) ** -0.5
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):     # A = 0 at tau_c
            while up and hi < 1e300 and not _log_one_plus_phi(clock, hi)[0] >= level:
                hi *= 2.0
            taus = np.linspace(0.0, hi, 65)
            g = _log_one_plus_phi(clock, taus)[0] - level
        stop = (0.0, 0.0) if (g[0] > 0 if up else g[0] < 0) else _crossing(clock, taus, g, level, up)
        if stop is not None and stop[1] < s_end:
            s = np.linspace(0.0, stop[1], _N_SAMPLES)
        else:
            stop = None
        tau = clock.tau_at(np.expm1(1.5 * b * s) / (1.5 * b))
        if stop:
            tau[-1] = stop[0]          # the stop state itself, not the inverse of its rounded t
    phi, phi_s, s_A = _sample(clock, s, tau)
    if tau is not None:
        for level, up in ((math.log(1.0 + _ESCAPE), True), (math.log(1.0 - _ESCAPE), False)):
            if (escape := _crossing(clock, tau, np.log1p(phi) - level, level, up)) is not None:
                escapes.append(escape[1])

    B = bracket(phi, phi_s, delta)
    B0 = float(bracket(initial.phi, initial.phi_s, delta))
    drift = float(np.max(np.abs(B * np.exp(-0.5 * b * (s + s_A)) - B0)))
    first_escape = min(escapes) if escapes else None

    if abs(B0) <= 1e-10 and np.max(np.abs(B)) <= _ON_CURVE_TOL:
        fate = ON_CURVE
    elif B0 > 0:
        fate = EXPAND
    else:
        fate = COLLAPSE

    return PhaseTrajectory(
        s_samples=s, phi=phi, phi_s=phi_s, fate=fate, first_escape_s=first_escape,
        energy=energy_homogeneous(phi, phi_s, delta),
        curve_distance=np.abs(B), identity_drift=drift, delta=delta, _clock=clock)
