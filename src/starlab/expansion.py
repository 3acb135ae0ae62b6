"""Expansion factor alpha(t): classification, the closed-form clock, sampled paths.

alpha solves alpha'' * alpha^2 = delta with alpha(0) = a0 > 0,
alpha'(0) = a1.  Multiplying by alpha' gives the first integral

    alpha'^2 = a1^2 + 2*delta/a0 - 2*delta/alpha,

which drives the trichotomy: for delta < 0 the escape threshold is
a1* = sqrt(2|delta|/a0); a1 = a1* yields the closed-form self-similar
branch alpha = (a0^{3/2} + 1.5 a0^{1/2} a1 t)^{2/3}, a1 > a1* the linearly
expanding branch, a1 < a1* finite-time collapse with alpha ~ (T-t)^{2/3}.
In tau = int alpha^{-1} dt it reads alpha_tautau = sigma^2 alpha - delta,
sigma^2 = a1^2 + 2 delta/a0, so alpha(tau) and t(tau) are closed forms for
every class (`AlphaClock`); s = int alpha^{-1/2} dtau is the one quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidParams, WrongClassification

SELF_SIMILAR = "SelfSimilar"
LINEAR = "Linear"
COLLAPSE = "Collapse"
POSITIVE_DELTA = "PositiveDelta"

#: The run regime whose clock is s (`lagrangian`); every other regime steps in tau.
SELF_SIMILAR_REGIME = "self-similar"

#: Relative tolerance deciding a1 == a1*; SelfSimilar is a measure-zero set
#: so callers must opt in by hitting the threshold almost exactly.
A1_STAR_REL_TOL = 1e-12

_N_SAMPLES = 512          # samples of a path
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

# c_3(y) = sum_n y^n / (2n + 3)!, highest power first: exact to rounding for |y| < 1
_C3 = [1.0 / math.factorial(2 * n + 3) for n in range(7, -1, -1)]


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


def _universal(x, rad):
    """cosh(sigma x), sinh(sigma x)/sigma, (cosh - 1)/sigma^2, (sinh - sigma x)/sigma^3.

    sigma = sqrt(rad), continued through rad = 0 to the circular functions: the
    universal functions x^k c_k(rad x^2) (Battin, Astrodynamics, 1999, section 4.5).
    """
    x = np.asarray(x, dtype=float)
    if rad == 0.0:
        return [np.ones_like(x), x, 0.5 * x * x, x**3 / 6.0]
    r = math.sqrt(abs(rad))
    z = r * x
    if rad > 0:
        c, s, s_half, u3 = np.cosh(z), np.sinh(z), np.sinh(0.5 * z), z - np.sinh(z)
    else:
        c, s, s_half, u3 = np.cos(z), np.sin(z), np.sin(0.5 * z), z - np.sin(z)
    y = np.where(np.abs(z) < 1.0, rad * x * x, 0.0)
    c3 = _C3[0]
    for a in _C3[1:]:
        c3 = c3 * y + a
    u3 = np.where(y != 0.0, x**3 * c3, -u3 / (rad * r))
    return [c, s / r, 2.0 * s_half**2 / abs(rad), u3]


def _increasing_root(fun, target, lo, hi, x0=None):
    """x in [lo, hi] with fun(x)[0] = target, elementwise, for fun = (value, slope) increasing.

    Newton from x0 or a 65-point table, bisecting where a step leaves the bracket
    (Numerical Recipes, section 9.4, rtsafe), until a step is below 1e-13 relative:
    a tighter test would chase the few ulps of rounding in fun.
    """
    target = np.asarray(target, dtype=float)
    if target.size == 0 or lo == hi:
        return np.full(target.shape, float(lo))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if x0 is None:
            grid = np.linspace(lo, hi, 65)
            x0 = np.interp(target, fun(grid)[0], grid)
        x = np.asarray(x0, dtype=float)
        lo, hi = np.full(target.shape, float(lo)), np.full(target.shape, float(hi))
        for _ in range(100):
            value, slope = fun(x)
            r = value - target
            lo, hi = np.where(r < 0, x, lo), np.where(r > 0, x, hi)
            step = x - r / slope
            step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
            done = np.abs(step - x) <= 1e-13 * np.abs(step)
            x = step
            if done.all():
                break
    return x


class AlphaClock:
    """One expansion path: alpha, alpha_tau, alpha' and t at a clock value.

    The scalar `math` methods serve a run's Linear or SelfSimilar path, in s in
    the self-similar regime and in tau otherwise; `coefficients` is the one regime
    switch for the momentum equation.  A Linear path with delta != 0 is alpha =
    a0 cosh(sigma tau) + (a0 a1/sigma) sinh(sigma tau) - (delta/sigma^2) 2 sinh^2(sigma tau/2).

    `path`, `tau_at` and `s_of` serve every class on arrays in tau: alpha = a0 U0 +
    a0 a1 U1 - delta U2 and t = a0 U1 + a0 a1 U2 - delta U3 (`_universal`).  A
    collapse is the tangency alpha = alpha_tau = 0 at tau_c; about it, alpha =
    -delta U2(x) and t - T = -delta U3(x), x = tau - tau_c, lose nothing as alpha -> 0.
    A PositiveDelta path with a1 < 0 turns at tau_m, where alpha_tau = 0 and alpha =
    2C, C = delta/sigma^2; about it alpha = C (1 + cosh sigma x) is free of the
    cancellation of its decaying mode from tau = 0.
    At delta = 0 the path is a0 e^{a1 tau}, and a collapse has tau_c infinite.
    """

    def __init__(self, params: ExpansionParams, regime: str | None = None):
        self.params = params
        self.regime = regime
        p = params
        if regime == SELF_SIMILAR_REGIME:
            if p.classification != SELF_SIMILAR:
                raise WrongClassification("self-similar run needs SelfSimilar parameters")
        elif regime is not None and p.classification != LINEAR:
            raise WrongClassification("linearly expanding run needs Linear parameters")
        try:
            self._rad = rad = p.a1**2 + 2.0 * p.delta / p.a0
        except OverflowError:
            raise InvalidParams(f"a1^2 overflows at a1 = {p.a1}") from None
        self._hyp = None
        if p.classification == LINEAR and p.delta != 0.0:
            sigma = math.sqrt(rad)     # sigma and the sinh, sinh^2 weights of alpha
            self._hyp = (sigma, p.a0 * p.a1 / sigma, -2.0 * p.delta / rad)
        self.tau_c, self.T_collapse, self._turn = math.inf, None, None
        if p.classification == POSITIVE_DELTA and p.a1 < 0:
            sigma = math.sqrt(rad)     # sinh(sigma tau_m) = -a0 a1 sigma/delta
            self._turn = (sigma, p.delta / rad, math.asinh(-p.a0 * p.a1 / p.delta * sigma) / sigma)
        self._tau_switch = math.inf    # a collapse is evaluated about tau_c beyond this tau
        if p.classification == COLLAPSE and p.delta == 0.0:
            self.T_collapse = p.a0 / -p.a1
        elif p.classification == COLLAPSE:
            if rad < 0:                # the first minimum of C + R cos(k tau - phi)
                k = math.sqrt(-rad)
                c = p.delta / rad
                self.tau_c = (math.atan2(-p.a0 * p.a1 / k, c - p.a0) % (2.0 * math.pi)) / k
            elif rad > 0:              # alpha_tau = 0 at tanh(sigma tau_c) = 1 - eps
                sigma = math.sqrt(rad)
                eps = 2.0 * p.delta**2 / (p.a0 * (sigma - p.a1) ** 2 * (p.a0 * rad - p.delta))
                self.tau_c = 0.5 * math.log((2.0 - eps) / eps) / sigma
            else:
                self.tau_c = p.a0 * p.a1 / p.delta
            self.T_collapse = float(-p.delta * _universal(self.tau_c, rad)[3])
            self._tau_switch = 0.5 * self.tau_c if p.a1 > 0 else 0.0   # past a maximum

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

    def _about(self, x, a, v):
        """(alpha, alpha_tau, t - t_ref) at tau = tau_ref + x, from alpha = a, alpha_tau = v there."""
        U0, U1, U2, U3 = _universal(x, self._rad)
        d = self.params.delta
        return a * U0 + v * U1 - d * U2, v * U0 + (a * self._rad - d) * U1, a * U1 + v * U2 - d * U3

    def _turning(self, tau):
        """(alpha, alpha_tau, t) about the turning point: t = C (x + sinh(sigma x)/sigma) from
        x = -tau_m, as C tau + (2C/sigma) cosh(sigma (tau/2 - tau_m)) sinh(sigma tau/2)."""
        sigma, C, tau_m = self._turn
        x = sigma * (tau - tau_m)
        return (C * (1.0 + np.cosh(x)), self.params.delta / sigma * np.sinh(x),
                C * (tau + 2.0 / sigma * np.cosh(sigma * (0.5 * tau - tau_m))
                     * np.sinh(0.5 * sigma * tau)))

    def path(self, tau):
        """(alpha, alpha_tau, t) at the tau values (arrays)."""
        tau, p = np.asarray(tau, dtype=float), self.params
        if self._turn is not None:
            return self._turning(tau)
        if p.delta == 0.0:
            alpha = p.a0 * np.exp(p.a1 * tau)
            t = p.a0 * tau if p.a1 == 0.0 else p.a0 * np.expm1(p.a1 * tau) / p.a1
            return alpha, p.a1 * alpha, t
        near = tau >= self._tau_switch            # about the tangency, where alpha = alpha_tau = 0
        alpha, alpha_tau, dt = self._about(np.where(near, tau - self.tau_c, tau),
                                           np.where(near, 0.0, p.a0), np.where(near, 0.0, p.a0 * p.a1))
        return alpha, alpha_tau, np.where(near, self.T_collapse or 0.0, 0.0) + dt

    def tau_at(self, t):
        """tau at the times t (arrays), before any collapse."""
        t, p = np.asarray(t, dtype=float), self.params
        if p.delta == 0.0:
            return t / p.a0 if p.a1 == 0.0 else np.log1p(p.a1 * t / p.a0) / p.a1
        fwd = lambda x: (self._about(x, p.a0, p.a0 * p.a1) if self._turn is None
                         else self._turning(x))[2::-2]             # (t, alpha) before any tangency
        hi = self._tau_switch
        with np.errstate(over="ignore", invalid="ignore"):
            if hi == math.inf:         # no collapse: a bracket doubled from 1/sigma past the last t
                hi, t_max = abs(self._rad) ** -0.5 if self._rad else 1.0, np.max(t, initial=0.0)
                while hi < 1e300 and not fwd(hi)[0] >= t_max:
                    hi *= 2.0
            far = t <= fwd(hi)[0]
        tau = np.empty_like(t)
        tau[far] = _increasing_root(fwd, t[far], 0.0, hi)
        if not far.all():              # x = tau - tau_c solves t - T = -delta U3(x), in cube roots
            tau[~far] = self.tau_c + _increasing_root(
                self._cbrt_gap, np.cbrt(t[~far] - self.T_collapse), hi - self.tau_c, 0.0)
        return tau

    def _cbrt_gap(self, x):
        """(t - T)^(1/3) at tau = tau_c + x, nearly linear in x, and its x-derivative."""
        alpha, _, dt = self._about(x, 0.0, 0.0)
        c = np.cbrt(dt)
        return c, alpha / (3.0 * c * c)

    def s_of(self, tau):
        """s = int_0^tau alpha^(-1/2) dtau at the tau values, in closed form.

        With y = alpha^(-1/2), |alpha'| = sqrt(sigma^2 - 2 delta y^2), so ds =
        -sign(alpha') (2/b) dF for F = ln(b y + |alpha'|) (delta < 0) or
        atan2(b y, |alpha'|) (delta > 0); alpha' changes sign where b y = |sigma|.
        """
        p, tau = self.params, np.asarray(tau, dtype=float)
        if p.delta == 0.0:             # alpha = a0 e^{a1 tau}
            return -2.0 * np.expm1(-0.5 * p.a1 * tau) / p.a1 / math.sqrt(p.a0) if p.a1 \
                else tau / math.sqrt(p.a0)
        alpha, alpha_tau, _ = self.path(tau)
        F = (lambda by, slope: np.log(by + slope)) if p.delta < 0 else np.arctan2
        sign, sign0 = np.sign(alpha_tau), np.sign(p.a1)
        turn = F(math.sqrt(abs(self._rad)), 0.0) if self._rad else 0.0
        return 2.0 / p.b * (sign0 * F(p.b * p.a0**-0.5, abs(p.a1))
                            - sign * F(p.b * alpha**-0.5, np.abs(alpha_tau) / alpha)
                            + np.where(sign != sign0, (sign - sign0) * turn, 0.0))


@dataclass
class ExpansionPath:
    params: ExpansionParams
    t_samples: np.ndarray
    alpha: np.ndarray
    alpha_prime: np.ndarray
    s_samples: np.ndarray
    tau_samples: np.ndarray
    T_collapse: float | None
    clock: AlphaClock = field(repr=False)

    def alpha_at(self, t):
        return self.clock.path(self.clock.tau_at(t))[0]

    @property
    def t_end(self) -> float:
        return float(self.t_samples[-1])


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
    """Exact alpha(t) of the SelfSimilar branch, or of any delta = 0 path."""
    t = np.asarray(t, dtype=float)
    if params.classification == SELF_SIMILAR:
        a0, a1 = params.a0, params.a1
        return (a0**1.5 + 1.5 * math.sqrt(a0) * a1 * t) ** (2.0 / 3.0)
    if params.delta == 0.0:
        return params.a0 + params.a1 * t
    raise WrongClassification("no closed form for this branch")


def integrate_alpha(params: ExpansionParams, t_end: float) -> ExpansionPath:
    """Sample alpha, alpha' and both rescaled clocks at _N_SAMPLES times up to t_end.

    A collapsing path stops at alpha = 1e-6 a0: the path returned then ends
    short of t_end and carries the blow-down time T_collapse, the tangency of
    its clock.
    """
    if not t_end > 0:
        raise InvalidParams("t_end must be positive")
    clock = AlphaClock(params)
    T, tau_floor, t_reach = clock.T_collapse, None, t_end
    if T is not None and params.delta == 0.0:
        tau_floor, t_floor = math.log(_ALPHA_MIN_FRAC) / params.a1, T * (1.0 - _ALPHA_MIN_FRAC)
    elif T is not None:                # about tau_c, -sqrt(alpha) is nearly linear and rising

        def minus_root_alpha(x):
            alpha, alpha_tau, _ = clock._about(x, 0.0, 0.0)
            return -np.sqrt(alpha), -0.5 * alpha_tau / np.sqrt(alpha)

        x = float(_increasing_root(minus_root_alpha, -math.sqrt(_ALPHA_MIN_FRAC * params.a0),
                                   clock._tau_switch - clock.tau_c, 0.0))
        tau_floor, t_floor = clock.tau_c + x, T + float(clock._about(x, 0.0, 0.0)[2])
    if T is not None:
        if t_floor <= t_end:
            t_reach = t_floor
        else:
            T = tau_floor = None
    t_samples = np.linspace(0.0, t_reach, _N_SAMPLES)
    tau = clock.tau_at(t_samples)
    if tau_floor is not None:
        tau[-1] = tau_floor            # the floor state itself, not the inverse of its rounded t
    alpha, alpha_tau, _ = clock.path(tau)
    return ExpansionPath(params=params, t_samples=t_samples, alpha=alpha,
                         alpha_prime=alpha_tau / alpha, s_samples=clock.s_of(tau),
                         tau_samples=tau, T_collapse=T, clock=clock)


def integrate_to_collapse(params: ExpansionParams) -> ExpansionPath:
    """Convenience wrapper returning the truncated path of a collapsing branch."""
    if params.classification != COLLAPSE:
        raise WrongClassification("parameters do not collapse")
    return integrate_alpha(params, math.inf)


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
