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
finite s).  The integration tracks the exponent integral of that identity
so the drift |B e^{-I} - B(0)| measures how well the discrete trajectory
satisfies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainViolation, InvalidParams, StepFailure

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
    _sol: object = field(repr=False, default=None)


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


def integrate_phase(initial: PhaseState, s_end: float, rtol: float = 1e-10,
                    atol: float = 1e-10) -> PhaseTrajectory:
    """Integrate a uniform perturbation and classify its fate.

    Fates: Stationary for the exact steady point; OnCurve when the state
    starts on the zero-energy curve and stays within 1e-8 of it;
    otherwise Expand/Collapse by the side of the curve, with
    first_escape_s the first s where |phi| crosses 0.5.  Collapsing
    runs stop just above phi = -1 and runaway expansions at a large cap;
    either stop is a label, not an error.
    """
    if s_end <= 0:
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

    def rhs(s, u):
        phi, phi_s, _ = u
        one = 1.0 + phi
        dphi_s = -0.5 * b * phi_s - abs(delta) * (one**-2 - one)
        # I' integrates the growth-rate factor of the bracket identity.
        return (phi_s, dphi_s, 0.5 * b * (1.0 + one**-1.5))

    def hit_up(s, u):
        return u[0] - _ESCAPE

    def hit_down(s, u):
        return u[0] + _ESCAPE

    def hit_floor(s, u):
        return u[0] + 1.0 - _PHI_FLOOR_GAP

    def hit_cap(s, u):
        return u[0] - _PHI_CAP

    hit_floor.terminal = True
    hit_floor.direction = -1
    hit_cap.terminal = True
    hit_cap.direction = 1
    hit_up.direction = 1
    hit_down.direction = -1

    sol = solve_ivp(rhs, (0.0, s_end), [initial.phi, initial.phi_s, 0.0],
                    method="DOP853", rtol=rtol, atol=atol, dense_output=True,
                    events=(hit_up, hit_down, hit_floor, hit_cap))
    if not sol.success and sol.t_events[2].size == 0 and sol.t_events[3].size == 0:
        raise StepFailure(f"phase integration failed: {sol.message}")

    s_reach = float(sol.t[-1])
    s = np.linspace(0.0, s_reach, _N_SAMPLES)
    phi, phi_s, I = sol.sol(s)

    B = bracket(phi, phi_s, delta)
    B0 = float(bracket(initial.phi, initial.phi_s, delta))
    drift = float(np.max(np.abs(B * np.exp(-I) - B0)))

    escapes = []
    if sol.t_events[0].size:
        escapes.append(float(sol.t_events[0][0]))
    if sol.t_events[1].size:
        escapes.append(float(sol.t_events[1][0]))
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
        curve_distance=np.abs(B), identity_drift=drift, delta=delta, _sol=sol)
