"""Reference integrations: the expansion factor, the uniform phase plane and Lane-Emden.

starlab samples the first two from closed forms (`expansion.AlphaClock`); these
integrate the ODEs instead, with events and dense output, and serve as
independent oracles for the closed forms and for the clocks the runs step with.
c01 reads the index-3 Lane-Emden constants as pinned numbers; the two routes
here derive them again.

    integrate_alpha(params, t_end)   alpha'' alpha^2 = delta, with s and tau as
                                     quadrature states; a collapse stops at
                                     alpha = 1e-6 a0
    integrate_phase(state, s_end)    phi_ss + (b/2) phi_s + |delta| ((1+phi)^-2
                                     - (1+phi)) = 0, with the bracket identity's
                                     exponent as a quadrature state
    lane_emden_first_zero(index)     xi1 and theta'(xi1) by scipy's RK45 and brentq
    lane_emden_mpmath(dps)           the same for index 3 at dps digits by mpmath
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

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


def lane_emden_mpmath(dps: int = 25):
    """xi1 and theta'(xi1) of the index-3 Lane-Emden equation at dps digits (mpf values).

    theta = sum a_k xi^2k with 2k (2k+1) a_k = -[xi^(2k-2)] theta^3 up to xi = 0.5, then
    Taylor steps of length 0.25: about xi = c, c theta'' + 2 theta' + c theta^3 = -t
    (theta'' + theta^3) at xi = c + t gives each coefficient from the earlier ones.  The
    step that crosses zero is solved by Newton's method on its polynomial.  30 terms of
    either series agree with 60 terms at half the step to 22 digits."""
    terms = 30
    def cube(b, s, p, k):            # [t^k] of b^2 into s and of b^3 into p
        s.append(mpmath.fsum(b[i] * b[k - i] for i in range(k + 1)))
        p.append(mpmath.fsum(s[i] * b[k - i] for i in range(k + 1)))

    with mpmath.workdps(dps):
        a, s, p = [mpmath.mpf(1)], [], []
        for k in range(1, terms):
            cube(a, s, p, k - 1)
            a.append(-p[k - 1] / (2 * k * (2 * k + 1)))
        xi, h = mpmath.mpf("0.5"), mpmath.mpf("0.25")
        th = mpmath.fsum(c * xi ** (2 * k) for k, c in enumerate(a))
        dth = mpmath.fsum(2 * k * c * xi ** (2 * k - 1) for k, c in enumerate(a))
        while True:
            b, s, p = [th, dth], [], []
            for k in range(terms - 2):
                cube(b, s, p, k)
                b.append(-((k + 1) * (k + 2) * b[k + 1] + xi * p[k] + (p[k - 1] if k else 0))
                         / (xi * (k + 1) * (k + 2)))
            poly = lambda t: mpmath.polyval(b[::-1], t, derivative=True)
            th_h, dth_h = poly(h)
            if th_h > 0:
                xi, th, dth = xi + h, th_h, dth_h
                continue
            t = -th / dth
            for _ in range(50):
                v, dv = poly(t)
                t -= v / dv
                if abs(v) <= 4 * mpmath.eps * abs(dv) * xi:
                    return xi + t, poly(t)[1]
            raise ArithmeticError("Newton's method did not converge on the last step")
