"""Expansion factor alpha(t): classification, integration, rescaled clocks.

alpha solves alpha'' * alpha^2 = delta with alpha(0) = a0 > 0,
alpha'(0) = a1.  Multiplying by alpha' gives the first integral

    alpha'^2 = a1^2 + 2*delta/a0 - 2*delta/alpha,

which drives the trichotomy: for delta < 0 the escape threshold is
a1* = sqrt(2|delta|/a0); a1 = a1* yields the closed-form self-similar
branch alpha = (a0^{3/2} + 1.5 a0^{1/2} a1 t)^{2/3}, a1 > a1* the linearly
expanding branch, a1 < a1* finite-time collapse with alpha ~ (T-t)^{2/3}.
The two rescaled clocks s = int alpha^{-3/2} dt and tau = int alpha^{-1} dt
are accumulated as quadrature states of the same integration.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import quad, solve_ivp

from .errors import InvalidParams, StepFailure, WrongClassification

SELF_SIMILAR = "SelfSimilar"
LINEAR = "Linear"
COLLAPSE = "Collapse"
POSITIVE_DELTA = "PositiveDelta"

#: Relative tolerance deciding a1 == a1*; SelfSimilar is a measure-zero set
#: so callers must opt in by hitting the threshold almost exactly.
A1_STAR_REL_TOL = 1e-12

_N_SAMPLES = 512          # samples of an integrated path
_TOL = 1e-12              # rtol and atol of the alpha integration
_ALPHA_MIN_FRAC = 1e-6    # a collapsing path stops at this fraction of a0
_N_FIT = 200              # points of the collapse-exponent fit

# On the self-similar branch alpha(s) = a0 e^{sqrt(2|delta|) s}; on a Linear one
# (delta <= 0) alpha(tau) <= a0 e^{a1 tau}.  The Eulerian reconstruction's density
# carries alpha^-3: it must stay a normal float up to the end clock (which also keeps
# the step's viscosity, alpha^(5/2) or alpha^3, finite).  The config and the solver
# name the self-similar bound with one text; the config bounds Linear runs tighter.
_SS_EXP_MAX = -math.log(sys.float_info.min) / 3.0
_SS_END = (f"sqrt(2|delta|) * time.end + ln max(a0, 1) < {_SS_EXP_MAX:.1f} "
           "(the reconstruction's alpha^-3 underflows beyond)")
_LINEAR_END = (f"a1 * time.end + ln max(a0, 1) < {_SS_EXP_MAX:.1f} "
               "(the reconstruction's alpha^-3 underflows beyond)")


@dataclass(frozen=True)
class ExpansionParams:
    delta: float
    a0: float
    a1: float
    a1_star: float
    beta1: float
    beta2: float
    classification: str

    @cached_property
    def b(self) -> float:
        """sqrt(2|delta|), the self-similar growth rate in the s clock (computed once)."""
        return math.sqrt(2.0 * abs(self.delta))


@dataclass
class ExpansionPath:
    params: ExpansionParams
    t_samples: np.ndarray
    alpha: np.ndarray
    alpha_prime: np.ndarray
    s_samples: np.ndarray
    tau_samples: np.ndarray
    T_collapse: float | None = None
    _sol: object = field(repr=False, default=None)

    def alpha_at(self, t):
        return self._sol.sol(np.asarray(t, dtype=float))[0]

    def alpha_prime_at(self, t):
        return self._sol.sol(np.asarray(t, dtype=float))[1]

    @property
    def t_end(self) -> float:
        return float(self._sol.t[-1])


def classify_expansion(delta: float, a0: float, a1: float) -> ExpansionParams:
    """Classify the expansion branch from (delta, a0, a1)."""
    if a0 <= 0:
        raise InvalidParams(f"a0 must be positive, got {a0}")
    if delta > 0:
        cls = POSITIVE_DELTA
        a1_star = 0.0
    elif delta == 0:
        cls = LINEAR if a1 >= 0 else COLLAPSE    # alpha = a0 + a1 t reaches 0 when a1 < 0
        a1_star = 0.0
    else:
        a1_star = math.sqrt(2.0 * abs(delta) / a0)
        if abs(a1 - a1_star) <= A1_STAR_REL_TOL * a1_star:
            cls = SELF_SIMILAR
        elif a1 > a1_star:
            cls = LINEAR
        else:
            cls = COLLAPSE
    rad = a1 * a1 + 2.0 * delta / a0
    if cls == SELF_SIMILAR:
        rad = 0.0
    if rad >= 0:
        root = math.sqrt(rad)
        beta1, beta2 = min(a1, root), max(a1, root)
    else:
        beta1 = beta2 = math.nan
    return ExpansionParams(delta=float(delta), a0=float(a0), a1=float(a1),
                           a1_star=a1_star, beta1=beta1, beta2=beta2, classification=cls)


def alpha_closed_form(params: ExpansionParams, t):
    """Exact alpha(t) where one exists (SelfSimilar, or any delta = 0 path)."""
    t = np.asarray(t, dtype=float)
    if params.classification == SELF_SIMILAR:
        a0, a1 = params.a0, params.a1
        return (a0**1.5 + 1.5 * math.sqrt(a0) * a1 * t) ** (2.0 / 3.0)
    if params.delta == 0.0:
        return params.a0 + params.a1 * t
    raise WrongClassification("no closed form for this branch")


def integrate_alpha(params: ExpansionParams, t_end: float) -> ExpansionPath:
    """Integrate alpha and both rescaled clocks up to t_end.

    Collapsing paths stop at alpha = 1e-6 a0: the path returned then ends
    short of t_end and carries the blow-down time T_collapse (event time plus
    the exact quadrature remainder of dt = d alpha / |alpha'|, which beats
    Richardson extrapolation here).
    """
    if t_end <= 0:
        raise InvalidParams("t_end must be positive")
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
    if not sol.success and sol.t_events[0].size == 0:
        raise StepFailure(f"alpha integration failed: {sol.message}")

    collapsed = sol.t_events[0].size > 0
    t_reach = float(sol.t[-1])
    t_samples = np.linspace(0.0, t_reach, _N_SAMPLES)
    states = sol.sol(t_samples)

    T_collapse = None
    if collapsed:
        t_ev = float(sol.t_events[0][0])
        rad = a1 * a1 + 2.0 * delta / a0
        remainder, _ = quad(lambda a: 1.0 / math.sqrt(rad - 2.0 * delta / a), 0.0, alpha_min)
        T_collapse = t_ev + remainder

    return ExpansionPath(
        params=params,
        t_samples=t_samples,
        alpha=states[0],
        alpha_prime=states[1],
        s_samples=states[2],
        tau_samples=states[3],
        T_collapse=T_collapse,
        _sol=sol,
    )


def integrate_to_collapse(params: ExpansionParams) -> ExpansionPath:
    """Convenience wrapper returning the truncated path of a collapsing branch."""
    if params.classification != COLLAPSE:
        raise WrongClassification("parameters do not collapse")
    # Upper bound on T: the floor event always fires first.
    t_cap = 10.0 * (params.a0 / max(params.a1_star - params.a1, 1e-12) + params.a0)
    return integrate_alpha(params, t_cap)


def fit_collapse_exponent(path: ExpansionPath) -> float:
    """Least-squares slope of log alpha vs log(T - t) over the final decade."""
    if path.T_collapse is None:
        raise WrongClassification("path did not collapse")
    T = path.T_collapse
    gap_end = T - path.t_end
    gaps = np.geomspace(gap_end * 10.0, gap_end, _N_FIT)
    t_fit = T - gaps
    t_fit = t_fit[t_fit >= 0.0]
    a_fit = path.alpha_at(t_fit)
    slope, _ = np.polyfit(np.log(T - t_fit), np.log(a_fit), 1)
    return float(slope)

