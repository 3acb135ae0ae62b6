"""DOP853 reference integrations of the expansion factor and the uniform phase plane.

starlab samples both from closed forms (`expansion.AlphaClock`); these integrate
the ODEs instead, with events and dense output, and serve as independent
oracles for the closed forms and for the clocks the runs step with.

    integrate_alpha(params, t_end)   alpha'' alpha^2 = delta, with s and tau as
                                     quadrature states; a collapse stops at
                                     alpha = 1e-6 a0
    integrate_phase(state, s_end)    phi_ss + (b/2) phi_s + |delta| ((1+phi)^-2
                                     - (1+phi)) = 0, with the bracket identity's
                                     exponent as a quadrature state
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

from starlab.homogeneous import bracket, energy_homogeneous

_TOL = 1e-12              # rtol and atol of both integrations
_ALPHA_MIN_FRAC = 1e-6    # a collapsing path stops at this fraction of a0
_PHI_FLOOR_GAP = 1e-6     # stop at phi = -1 + gap to avoid the singularity
_PHI_CAP = 1e3            # stop runaway expansion before overflow
_ESCAPE = 0.5             # |phi| at which a trajectory has escaped
_ON_CURVE_TOL = 1e-8      # |B| bound of a trajectory that stays on the curve


@dataclass
class OraclePath:
    params: object
    t_samples: np.ndarray
    alpha: np.ndarray
    alpha_prime: np.ndarray
    s_samples: np.ndarray
    tau_samples: np.ndarray
    T_collapse: float | None
    sol: object

    def alpha_at(self, t):
        return self.sol.sol(np.asarray(t, dtype=float))[0]

    def alpha_prime_at(self, t):
        return self.sol.sol(np.asarray(t, dtype=float))[1]


@dataclass
class OracleTrajectory:
    s_samples: np.ndarray
    phi: np.ndarray
    phi_s: np.ndarray
    fate: str
    first_escape_s: float | None
    energy: np.ndarray
    curve_distance: np.ndarray
    identity_drift: float
    sol: object


def integrate_alpha(params, t_end: float, n_samples: int = 512) -> OraclePath:
    """Integrate alpha and both rescaled clocks up to t_end.

    A collapsing path stops at alpha = 1e-6 a0 and carries T_collapse: the
    event time plus the exact quadrature remainder of dt = d alpha / |alpha'|.
    """
    delta, a0, a1 = params.delta, params.a0, params.a1

    def rhs(t, u):
        a = u[0]
        return (u[1], delta / (a * a), a**-1.5, 1.0 / a)

    alpha_min = _ALPHA_MIN_FRAC * a0

    def hit_floor(t, u):
        return u[0] - alpha_min

    hit_floor.terminal = True
    hit_floor.direction = -1

    sol = solve_ivp(rhs, (0.0, t_end), [a0, a1, 0.0, 0.0], method="DOP853",
                    rtol=_TOL, atol=_TOL, events=hit_floor, dense_output=True)
    assert sol.success or sol.t_events[0].size, sol.message
    t_samples = np.linspace(0.0, float(sol.t[-1]), n_samples)
    states = sol.sol(t_samples)
    T_collapse = None
    if sol.t_events[0].size:
        rad = a1 * a1 + 2.0 * delta / a0
        remainder, _ = quad(lambda a: 1.0 / math.sqrt(rad - 2.0 * delta / a), 0.0, alpha_min)
        T_collapse = float(sol.t_events[0][0]) + remainder
    return OraclePath(params, t_samples, *states, T_collapse, sol)


def integrate_phase(state, s_end: float) -> OracleTrajectory:
    """Integrate a uniform perturbation (not the steady point) and classify its fate."""
    delta, b = state.delta, state.b

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

    hit_floor.terminal = hit_cap.terminal = True
    hit_floor.direction = hit_down.direction = -1
    hit_cap.direction = hit_up.direction = 1

    sol = solve_ivp(rhs, (0.0, s_end), [state.phi, state.phi_s, 0.0],
                    method="DOP853", rtol=_TOL, atol=_TOL, dense_output=True,
                    events=(hit_up, hit_down, hit_floor, hit_cap))
    assert sol.success or sol.t_events[2].size or sol.t_events[3].size, sol.message
    s = np.linspace(0.0, float(sol.t[-1]), 1000)
    phi, phi_s, I = sol.sol(s)
    B = bracket(phi, phi_s, delta)
    B0 = float(bracket(state.phi, state.phi_s, delta))
    escapes = [float(ev[0]) for ev in sol.t_events[:2] if ev.size]
    if abs(B0) <= 1e-10 and np.max(np.abs(B)) <= _ON_CURVE_TOL:
        fate = "OnCurve"
    else:
        fate = "Expand" if B0 > 0 else "Collapse"
    return OracleTrajectory(s, phi, phi_s, fate, min(escapes) if escapes else None,
                            energy_homogeneous(phi, phi_s, delta), np.abs(B),
                            float(np.max(np.abs(B * np.exp(-I) - B0))), sol)
