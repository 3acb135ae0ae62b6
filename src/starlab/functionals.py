"""Energy, dissipation, norm and inequality objects evaluated on discrete fields.

Everything here is a pure function of arrays (fields are duck-typed by
attribute), composite trapezoid on the field grid unless a derivative lives
more naturally on cell edges, in which case the midpoint rule is used.  All
x-derivatives are second-order finite differences (one-sided at the ends).
The two lemma probes take polynomial coefficients and integrate exactly.

One background per grid: the ledger functions read the static star only
from a `profiles.Background` sampled on the field's own x_nodes (by the
solver, which hands it out on every field it emits).  They never evaluate a
profile, and a background from another grid raises InvalidParams.

Block rows: a ledger function takes a block (a list of one run's fields), stacks
each array as (K, N+1) rows and integrates each integrand in one trapezoid call; a
row's coefficient is a Python `math` float (numpy's array `**` and `exp` can differ
in the last bit).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import DomainViolation, KEqualsOne, MissingDerivative, WeightViolation


def gradient_stencil(x) -> tuple:
    """numpy.gradient's coefficients on x (edge_order=2) as (center, ends).

    center is 2 dx on an exactly uniform grid (numpy's branch for it), else the (a, b, c)
    arrays of the central rows; ends = (a, b, c, i, j, k) holds both one-sided rows'
    (first, last) coefficients and the nodes they weigh, (0, N-2), (1, N-1) and (2, N).
    Numpy's formulas and order: `gradient` gives its bits."""
    dx = np.diff(np.asarray(x, dtype=float))
    if (dx == dx[0]).all():
        h = dx[0]
        center, first, last = 2.0 * h, (-1.5 / h, 2.0 / h, -0.5 / h), (0.5 / h, -2.0 / h, 1.5 / h)
    else:
        d1, d2 = dx[:-1], dx[1:]
        center = (-d2 / (d1 * (d1 + d2)), (d2 - d1) / (d1 * d2), d1 / (d2 * (d1 + d2)))
        (d1, d2), (e1, e2) = dx[:2], dx[-2:]
        first = (-(2.0 * d1 + d2) / (d1 * (d1 + d2)), (d1 + d2) / (d1 * d2), -d1 / (d2 * (d1 + d2)))
        last = (e2 / (e1 * (e1 + e2)), -(e2 + e1) / (e1 * e2), (2.0 * e2 + e1) / (e2 * (e1 + e2)))
    nodes = tuple(slice(k, dx.size - 1 + k, max(dx.size - 2, 1)) for k in range(3))
    return center, tuple(np.array(pair) for pair in zip(first, last)) + nodes


def gradient(u, stencil, out=None):
    """du/dx along the last axis on the grid of `stencil` (into out), as numpy.gradient gives it."""
    center, (a0, b0, c0, i, j, k) = stencil
    out = np.empty(u.shape) if out is None else out
    inner, ends = out[..., 1:-1], out[..., ::u.shape[-1] - 1]     # ends: the one-sided rows
    if isinstance(center, tuple):                # (a u_i-1 + b u_i) + c u_i+1
        a, b, c = center
        np.add(np.multiply(a, u[..., :-2], inner), np.multiply(b, u[..., 1:-1]), inner)
        np.add(inner, np.multiply(c, u[..., 2:]), inner)
    else:
        np.divide(np.subtract(u[..., 2:], u[..., :-2], inner), center, inner)
    np.add(np.multiply(a0, u[..., i], ends), np.multiply(b0, u[..., j]), ends)
    np.add(ends, np.multiply(c0, u[..., k]), ends)
    return out


def _trapz(f, x):
    """np.trapezoid's sum along the last axis: a float for a row, an array for a (k, N+1) stack."""
    s = ((x[1:] - x[:-1]) * (f[..., 1:] + f[..., :-1]) / 2.0).sum(-1)
    return float(s) if s.ndim == 0 else s


def _integrate(terms, x, scalars) -> dict:
    """{name: [coef(s) int f dx for each row's s]} of terms' (name, coef or None, (K, N+1) f)."""
    out = {}
    for name, coef, f in terms:         # one trapezoid call per f, freed before the next
        vals, f = _trapz(f, x).tolist(), None
        out[name] = vals if coef is None else [coef(s) * val for s, val in zip(scalars, vals)]
    return out


# ---------------------------------------------------------------------------
# interior cut-off and temporal weights
# ---------------------------------------------------------------------------

def chi_cutoff(x, R0: float):
    """C^1 interior cut-off: 1 on [0, R0/2], 0 on [3R0/4, R0], cubic ramp between.

    The ramp satisfies -6/R0 <= chi' <= 0, inside the required [-4, 0] for
    any star with R0 >= 3/2.
    """
    x = np.asarray(x, dtype=float)
    t = np.clip((x - 0.5 * R0) / (0.25 * R0), 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


@dataclass(frozen=True)
class WeightSpec:
    """Decay exponents of the total-energy ledgers.

    `a` is the isentropic decay exponent; the six thermodynamic indices
    carry the temporal weights e^{k a1 tau} of the thermodynamic ledger.
    Defaults are the known-admissible example set.
    """

    a: float = 0.5
    r1: float = 0.5
    l1: float = -2.5
    r2: float = -0.5
    l2: float = -2.0
    frak_r: float = -1.5
    r3: float = -2.5

    def violations(self, R0: float | None = None) -> list[str]:
        rows = [(0.0 < self.a < 1.0, "0 < a < 1"),
                (-1.0 < self.r1 < 1.0, "-1 < r1 < 1"),
                (self.r1 - 3.0 <= self.l1 < -2.0, "r1 - 3 <= l1 < -2"),
                (self.r2 <= self.r1 - 1.0, "r2 <= r1 - 1"),
                (self.l2 + 2.0 <= 0.0, "l2 + 2 <= 0"),
                (0.0 <= self.r2 - self.l2 <= 2.0, "0 <= r2 - l2 <= 2"),
                (-3.0 < self.frak_r <= self.r2 - 1.0, "-3 < frak_r <= r2 - 1"),
                (self.r3 <= self.r2 - 2.0, "r3 <= r2 - 2"),
                (self.l2 + 2.0 >= 0.0, "l2 + 2 >= 0"),
                (R0 is None or not 6.0 / R0 > 4.0,
                 "-4 <= chi' <= 0 (star too small for the cubic ramp)")]
        return [text for ok, text in rows if not ok]

    def validate(self, R0: float | None = None) -> None:
        if bad := self.violations(R0):
            raise WeightViolation(bad)


# ---------------------------------------------------------------------------
# physical (Eulerian) energy and dissipation
# ---------------------------------------------------------------------------

@dataclass
class PhysicalEnergy:
    E: float
    D: float


def physical_energy(snapshot, mu: float = 1.0, c_nu: float | None = None) -> PhysicalEnergy:
    """Total energy and viscous dissipation of an Eulerian snapshot.

    Isentropic: E = 1/2 int r^2 rho u^2 + 3 int r^2 rho^{4/3} - int r rho M(r);
    E is non-increasing, dE/dt = -D.  A snapshot with an absolute temperature
    theta_abs is thermodynamic: the internal term is c_nu int r^2 rho theta.
    """
    r, rho, u = np.asarray(snapshot.r), np.asarray(snapshot.rho), np.asarray(snapshot.u)
    mass_cum = np.concatenate([[0.0], np.cumsum(0.5 * (r[1:] - r[:-1])
                                                * (r[1:]**2 * rho[1:] + r[:-1]**2 * rho[:-1]))])
    u_r = gradient(u, gradient_stencil(r))
    theta = getattr(snapshot, "theta_abs", None)
    if theta is None:
        c, internal = 3.0, r**2 * rho ** (4.0 / 3.0)
    elif c_nu is None:
        raise MissingDerivative("thermo physical energy needs c_nu")
    else:
        c, internal = c_nu, r**2 * rho * np.asarray(theta)
    kinetic, grav, D, internal = _trapz(np.array(
        [r**2 * rho * u**2, r * rho * mass_cum, (r * u_r - u) ** 2, internal]), r).tolist()
    return PhysicalEnergy(E=0.5 * kinetic + c * internal - grav, D=(4.0 * mu / 3.0) * D)


# ---------------------------------------------------------------------------
# perturbation energy and dissipation (self-similar clock)
# ---------------------------------------------------------------------------

def perturbation_energy_ss(x, phi, phi_s, rho4_nodes, rho43_edges, a0: float,
                           delta: float, s: float, mu: float = 1.0) -> tuple[float, float]:
    """E(s), D(s) of a perturbation of the self-similar star.

    rho4_nodes = x^4 rho at the nodes; rho43_edges = x^2 rho^{4/3} at cell
    midpoints (where the gradient part is evaluated).  D's integrand is the
    weighted square x^2 ((1+phi) x phi_xs - x phi_x phi_s)^2 / (1+phi+x phi_x)
    on the edges, matching the solver's summation-by-parts form: it is the
    solver's own per-step formula (`_energy_ss`) on the solver's edge geometry.
    """
    x, phi, phi_s = (np.asarray(a, dtype=float) for a in (x, phi, phi_s))
    if np.any(1.0 + phi <= 0.0):
        raise DomainViolation("1 + phi <= 0")
    dx, xm = x[1] - x[0], 0.5 * (x[:-1] + x[1:])
    with np.errstate(divide="ignore"):       # Jm = 0 is named below, not warned of
        geom = _edge_geometry(phi, xm, dx, (4.0 * mu / 3.0) * dx * xm**2)
    if np.any(geom.Jm <= 0.0):
        raise DomainViolation("1 + phi + x phi_x <= 0")
    b = math.sqrt(2.0 * abs(delta))
    (E,), (D,) = _energy_ss(x[1:] - x[:-1], xm, phi_s, geom, rho4_nodes, dx * rho43_edges,
                            b, delta)
    return E / (a0 * math.exp(b * s)), D


# A state's edges (Hm = 1 + f, df = f_x, Jm = Hm + x df), K's Gram factors (g, a, b),
# and H = 1 + f at the nodes, H^2, Hm^2 and Hm^2 Jm
_Geometry = namedtuple("_Geometry", "Hm df Jm g a b H H2 Hm2 HHJ")


def _edge_geometry(f, xm, dx, gw=None):
    """The `_Geometry` of states f on edges xm, spacing dx; gw = (4 mu/3) dx xm^2 = g Jm.

    Edge i adds g_i (a_i v_{i+1} + b_i v_i)^2 to v^T K v.  Without gw only Hm, df, Jm, H and
    HHJ are built, the rest are None.  No caller overwrites a field."""
    Hm = np.add(f[..., :-1], f[..., 1:])                     # 1 + 0.5 (f_i + f_i+1)
    np.add(np.multiply(Hm, 0.5, Hm), 1.0, Hm)
    df = np.subtract(f[..., 1:], f[..., :-1])
    Jm = np.add(np.multiply(xm, np.divide(df, dx, df)), Hm)     # Hm + xm df
    Hm2, H = np.multiply(Hm, Hm), np.add(f, 1.0)
    if gw is None:
        return _Geometry(Hm, df, Jm, None, None, None, H, None, None, np.multiply(Hm2, Jm, Hm2))
    a, half_df = np.divide(Hm, dx), np.multiply(0.5, df)       # Hm / dx, df / 2
    b = np.negative(np.multiply(np.add(a, half_df), xm))      # b = -xm (Hm/dx + df/2), exactly
    g, a = np.divide(gw, Jm), np.multiply(np.subtract(a, half_df, a), xm, a)
    return _Geometry(Hm, df, Jm, g, a, b, H, np.multiply(H, H), Hm2, np.multiply(Hm2, Jm))


def _energy_ss(spacing, xm, v, geom, rho4, w, b, delta):
    """(alpha E, D) of self-similar states (f, v), f's geometry being the solver's.

    spacing = x[1:] - x[:-1] and the edge weights w = dx * x^2 rho^{4/3} depend on
    the grid only, so a caller probing many states computes them once.

    The states are the rows of a batch (or one 1-d state), and the two lists
    hold one value per row; each dot product is one `np.dot` of its row.  geom is
    f's `_Geometry` from `_edge_geometry`, whose Gram factors (g, a, c) make
    D = v^T K v >= 0 by construction.
    A self-similar run made with `energy=True` calls this at each fold on the
    stacked accepted states it keeps, and no other run does; the solver's
    geometry check stands in for the domain checks of `perturbation_energy_ss`.
    """
    Hm, df, Jm, g, a, c, H, H2, Hm2, HHJ = geom
    F = np.multiply(np.multiply(v, v), 0.5)      # rho4 (v^2/2 + b H v - delta H^2 + delta/H)
    np.subtract(np.add(F, np.multiply(np.multiply(b, H), v), F), np.multiply(delta, H2), F)
    np.multiply(np.add(F, np.divide(delta, H), F), rho4, F)
    grad_term = np.multiply(np.power(HHJ, -1.0 / 3.0), 3.0)   # 3 HHJ^(-1/3) - 3/Hm + xm df/Hm^2
    np.subtract(grad_term, np.divide(3.0, Hm), grad_term)
    np.add(grad_term, np.divide(np.multiply(xm, df), Hm2), grad_term)
    quad = np.add.reduce(np.divide(np.multiply(np.add(F[..., 1:], F[..., :-1]), spacing), 2.0), -1)
    sq = np.add(np.multiply(a, v[..., 1:]), np.multiply(c, v[..., :-1]))   # (a v_i+1 + c v_i)^2
    np.square(sq, sq)
    if v.ndim == 1:                              # one member: no per-row Python
        return [float(quad) + float(np.dot(w, grad_term))], [float(np.dot(g, sq))]
    return ([q + float(np.dot(w, t)) for q, t in zip(quad.tolist(), grad_term)],
            [float(np.dot(gi, si)) for gi, si in zip(g, sq)])


# ---------------------------------------------------------------------------
# sup-norm amplitude
# ---------------------------------------------------------------------------

def amplitude(field) -> float:
    """Perturbation amplitude: max sup-norm of {theta, x theta_x, theta_t, x theta_xt}.

    Thermo fields additionally contribute sup |zeta / (R0 - x)|, with the
    boundary node evaluated by the one-sided limit using zeta(R0) = 0.  One
    max over every term, so a NaN anywhere in them gives NaN.
    """
    x = np.asarray(field.x_nodes, dtype=float)
    st = gradient_stencil(x) if field.background is None else field.background.require_grid(x)
    theta, theta_t, zeta = (None if a is None else np.asarray(a, dtype=float)
                            for a in (field.theta, field.theta_t, field.zeta))
    return float(_amplitude(x, st, theta, theta_t, zeta))


def _amplitude(x, stencil, theta, theta_t, zeta=None):
    """`amplitude` along the last axis: one value per state of a batch, or per row of a list."""
    u = np.empty((4, len(theta), x.size) if isinstance(theta, list) else (4, *theta.shape))
    u[0], u[1] = theta, theta_t                  # theta, theta_t, then x theta_x, x theta_xt
    np.multiply(gradient(u[:2], stencil, u[2:]), x, u[2:])
    omega = np.maximum.reduce(np.abs(u, u), axis=(0, -1))
    if zeta is not None:
        ratio = np.abs(zeta[..., :-1]) / (x[-1] - x)[:-1]
        boundary = np.abs(zeta[..., -1] - zeta[..., -2]) / (x[-1] - x[-2])
        omega = np.maximum(np.maximum(omega, ratio.max(axis=-1)), boundary)
    return omega


# ---------------------------------------------------------------------------
# lemma probes: Hardy and frak-A inequalities, exact on polynomials
# ---------------------------------------------------------------------------

def _moment_form(c, a: float):
    """int_0^1 s^a p(s)^2 ds = sum_ij c_i c_j / (i + j + a + 1), p a row of c (ascending).

    A pair with i + j + a + 1 <= 0 is dropped when c_i c_j = 0; a nonzero one
    makes the integral diverge at s = 0, and its row is inf.
    """
    d = np.add.outer(np.arange(c.shape[-1]), np.arange(c.shape[-1])) + (a + 1.0)
    pairs = c[..., :, None] * c[..., None, :]
    form = (pairs * np.divide(1.0, d, out=np.zeros_like(d), where=d > 0.0)).sum(axis=(-2, -1))
    return np.where(((pairs != 0.0) & (d <= 0.0)).any(axis=(-2, -1)), np.inf, form)


def hardy_check(k: float, coef):
    """Both sides of the Hardy inequality on (0, 1) for exponent k != 1, exactly.

    g has the coefficients `coef` (c) in ascending powers, one polynomial per
    row, and s g' has the coefficients i c_i.  Each side is a `_moment_form`:
    k > 1: (int s^{k-2} g^2, int s^k (g^2 + g'^2)).
    k < 1: (int s^{k-2} (g - g(0))^2, int s^k g'^2), c_0 zeroed for the lhs.
    Returns (lhs, rhs, ratio); the ratio is 0 when lhs vanishes and NaN when
    both sides diverge.  Arrays over the rows, floats for a 1-d `coef`.
    """
    if k == 1.0:
        raise KEqualsOne("Hardy inequality excludes k = 1")
    c = np.asarray(coef, dtype=float)
    i = np.arange(c.shape[-1])
    lhs = _moment_form(c if k > 1.0 else c * (i > 0), k - 2.0)
    rhs = _moment_form(c * i, k - 2.0) + (_moment_form(c, k) if k > 1.0 else 0.0)
    with np.errstate(invalid="ignore"):
        ratio = np.where(lhs == 0.0, 0.0, lhs / np.maximum(rhs, 1e-300))
    return tuple(map(float, (lhs, rhs, ratio))) if c.ndim == 1 else (lhs, rhs, ratio)


def frak_A_inequality(coef):
    """(lhs, rhs) of int (4 h_x + x h_xx)^2 >= 12 int h_x^2 + int x^2 h_xx^2 on [0, 1].

    h has the coefficients `coef` in ascending powers, one polynomial per row.
    With d = coef[1:] and n = 0, 1, ..., h_x has coefficients (n + 1) d and
    x h_xx has n (n + 1) d, so each side is an exact `_moment_form` at a = 0,
    and lhs - rhs is the boundary term 4 h_x(1)^2 = 4 (sum (n + 1) d)^2 up to
    rounding.  Arrays over the rows, floats for a 1-d `coef`.
    """
    c = np.asarray(coef, dtype=float)
    h_x = c[..., 1:] * np.arange(1, c.shape[-1])
    n = np.arange(h_x.shape[-1])
    lhs = _moment_form(h_x * (n + 4), 0.0)
    rhs = 12.0 * _moment_form(h_x, 0.0) + _moment_form(h_x * n, 0.0)
    return (float(lhs), float(rhs)) if c.ndim == 1 else (lhs, rhs)


# ---------------------------------------------------------------------------
# total energy / dissipation ledgers
# ---------------------------------------------------------------------------
# states per block of the driver's amplitude probe, online ledger and E/D/W, and snapshots per
# block of `total_energy_ledger`; at N = 128 each ledger row past the first adds ~18 KB
# (linear) or ~20 KB (thermo) to a run's traced peak
_PROBE_BLOCK = 6
_THERMO = ("theta", "theta_t", "zeta", "theta_tt", "zeta_t")   # the thermo ledgers' rows


@dataclass
class EnergyReport:
    clock: float
    ledger: dict
    total_E: float
    total_D: float
    E0: float
    omega: float
    E_phys: float | None = None
    D_phys: float | None = None


def _entropy_grad(x, th, th_x, th_xx):
    """G_x for G = log[(1+th)^2 (1+th+x th_x)]."""
    return 2.0 * th_x / (1.0 + th) + (2.0 * th_x + x * th_xx) / (1.0 + th + x * th_x)


def _rows(fields, background, names):
    """(x, stencil, (n, K, N+1) stack of `names`, K clocks) of a block of fields."""
    if missing := [n for n in names if any(getattr(f, n) is None for f in fields)]:
        raise MissingDerivative(f"the ledger needs {' and '.join(missing)}")
    x = np.asarray(fields[0].x_nodes, dtype=float)
    stack = np.array([[getattr(f, n) for f in fields] for n in names], dtype=float)
    return x, background.require_grid(x), stack, [f.clock for f in fields]


def ledger_terms_isentropic(block, background, weights: WeightSpec, alpha) -> dict:
    """Instantaneous terms of the linearly expanding isentropic total energy (alpha: per row)."""
    x, g, rows, _ = _rows(block, background, ("theta", "theta_t", "theta_tt"))
    th, v, acc = rows
    a = weights.a
    x2, x4, x4rho, chix2rho = background.ledger_weights
    rho43, chi = background.rho43, background.chi
    th_x, v_x = d1 = gradient(rows[:2], g)
    th_xx, v_xx = gradient(d1, g)
    p = lambda k: lambda al: al ** k
    def terms():
        yield "E_vel", lambda al: al + al ** (1 + a), x4rho * v**2
        yield "E_press_grad", None, x4 * rho43 * th_x**2
        yield "E_grad", None, x4 * th_x**2
        yield "E_field", None, x4rho * th**2
        yield "E_acc", p(a - 3), x4rho * acc**2
        yield "E_visc_pair", p(1 + a), ((1.0 + th) * x * v_x - x * th_x * v) ** 2 * x2
        yield "E_int_vel", p(1 + a), chi * (v**2 + x2 * v_x**2)
        yield "E_int_field", None, chi * (th**2 + x2 * th_x**2)
        yield "E_int_acc", p(a - 5), chix2rho * acc**2
        yield "E_entropy_grad", None, _entropy_grad(x, th, th_x, th_xx)**2
        # G_t = 2 th_t/(1+th) + (th_t + x th_xt)/J; differentiate in x.
        yield "E_entropy_grad_t", p(a - 1), gradient(
            2.0 * v / (1.0 + th) + (v + x * v_x) / (1.0 + th + x * th_x), g)**2
        yield "E_elliptic_grad", None, th_x**2
        yield "E_elliptic_xx", None, x2 * th_xx**2
        yield "E_elliptic_grad_t", p(a - 1), v_x**2
        yield "E_elliptic_xx_t", p(a - 1), x2 * v_xx**2
    return _integrate(terms(), x, [float(al) for al in alpha])


def dissipation_integrands_isentropic(block, background, weights: WeightSpec,
                                      alpha) -> dict:
    """Integrands (per unit tau) of the isentropic dissipation ledger (alpha: per row)."""
    x, g, rows, _ = _rows(block, background, ("theta", "theta_t", "theta_tt"))
    th, v, acc = rows
    a = weights.a
    x2, _, x4rho, chix2rho = background.ledger_weights
    rho43, chi = background.rho43, background.chi
    th_x, v_x, acc_x = gradient(rows, g)
    pair_v = (1.0 + th) * x * v_x - x * th_x * v
    pair_acc = (1.0 + th) * x * acc_x - x * th_x * acc
    G_x = _entropy_grad(x, th, th_x, gradient(th_x, g))
    def terms():
        yield "D_vel", lambda al: al + al ** (1 + a), x4rho * v**2
        yield "D_visc_pair", lambda al: al**3 + al ** (3 + a), x2 * pair_v**2
        yield "D_acc", lambda al: al ** (a - 3), x4rho * acc**2
        yield "D_visc_pair_t", lambda al: al ** (a - 1), x2 * pair_acc**2
        yield "D_int_vel", lambda al: al ** (1 + a), chi * (v**2 + x2 * v_x**2)
        yield "D_int_acc", lambda al: al ** (a - 5), chix2rho * acc**2
        yield "D_int_acc2", lambda al: al ** (a - 3), chi * (acc**2 + x2 * acc_x**2)
        yield "D_entropy", lambda al: al ** (-3), rho43 * G_x**2
    return _integrate(terms(), x, [float(al) for al in alpha])


def initial_energy_isentropic(x, th0, th1, th2, background) -> float:
    """The initial total energy of the isentropic ledger; no weight enters it at tau = 0."""
    x = np.asarray(x, dtype=float)
    g = background.require_grid(x)
    rho, rho43, chi = background.rho, background.rho43, background.chi
    th0_x = gradient(th0, g)
    th0_xx = gradient(th0_x, g)
    return float(np.cumsum(_trapz(np.array([   # added left to right; np.sum would pair
        x**4 * rho * th1**2, x**4 * rho * th0**2, x**4 * th0_x**2, x**4 * rho43 * th0_x**2,
        x**4 * rho * th2**2, chi * (th0**2 + x**2 * th0_x**2), chi * x**2 * rho * th2**2,
        th0_x**2 + x**2 * th0_xx**2]), x))[-1])


def ledger_terms_thermo(block, background, weights: WeightSpec, a1: float) -> dict:
    """Instantaneous terms of the thermodynamic total energy ledger (theta is xi)."""
    x, g, rows, clocks = _rows(block, background, _THERMO)
    xi, v, zeta, acc, zeta_t = rows
    w = weights
    x2, x4, x4rho, chix2rho = background.ledger_weights
    rho, chi = background.rho, background.chi
    xi_x, v_x, zeta_x = d1 = gradient(rows[:3], g)
    xi_xx, v_xx, zeta_xx = gradient(d1, g)
    pair_v = (1.0 + xi) * x * v_x - x * xi_x * v
    e = lambda p: lambda tau: math.exp(p * a1 * tau)
    def terms():
        yield "E_vel", e(1 + w.r1), x4rho * v**2
        yield "E_temp", e(w.l1), x2 * rho * zeta**2
        yield "E_field", None, x4rho * xi**2
        yield "E_grad4", None, x4 * xi_x**2
        yield "E_field2", None, x2 * xi**2
        yield "E_acc", e(w.r2 - 2), x4rho * acc**2
        yield "E_temp_t", e(w.l2 - 2), x2 * rho * zeta_t**2
        yield "E_temp_grad", e((w.l1 + w.l2) / 2 + 1), x2 * zeta_x**2
        yield "E_visc_pair", e((w.r1 + w.r2) / 2 + 1.5), x2 * pair_v**2
        yield "E_int_field", None, chi * (xi**2 + x2 * xi_x**2)
        yield "E_int_vel", e(w.r2 + 2), chi * (x2 * v_x**2 + v**2)
        yield "E_int_acc", e(w.r3 - 2), chix2rho * acc**2
        yield "E_elliptic_grad", None, xi_x**2
        yield "E_elliptic_xx", None, x2 * xi_xx**2
        yield "E_zeta_grad", None, zeta_x**2
        yield "E_elliptic_t", e(w.r3 + 2), v_x**2 + x2 * v_xx**2
        yield "E_zeta_xx", None, x2 * zeta_xx**2
    return _integrate(terms(), x, clocks)


def dissipation_integrands_thermo(block, background, weights: WeightSpec, a1: float) -> dict:
    x, g, rows, clocks = _rows(block, background, _THERMO)
    xi, v, zeta, acc, zeta_t = rows
    w = weights
    x2, _, x4rho, chix2rho = background.ledger_weights
    rho, chi = background.rho, background.chi
    xi_x, v_x, zeta_x, acc_x, zeta_tx = gradient(rows, g)
    pair_v = (1.0 + xi) * x * v_x - x * xi_x * v
    pair_acc = (1.0 + xi) * x * acc_x - x * xi_x * acc
    e = lambda p, c=1.0: lambda tau: c * math.exp(p * a1 * tau)
    def terms():
        yield "D_vel", e(1 + w.r1, a1), x4rho * v**2
        yield "D_visc_pair", e(3 + w.r1), x2 * pair_v**2
        yield "D_temp", e(w.l1, a1), x2 * rho * zeta**2
        yield "D_temp_grad", e(2 + w.l1), x2 * zeta_x**2
        yield "D_acc", e(w.r2 - 2, a1), x4rho * acc**2
        yield "D_visc_pair_t", e(w.r2), x2 * pair_acc**2
        yield "D_temp_grad_t", e(w.l2), x2 * zeta_tx**2
        yield "D_int_vel", e(3 + w.frak_r), chi * (x2 * v_x**2 + v**2)
        yield "D_int_acc", e(w.r3), chi * (x2 * acc_x**2 + acc**2)
    return _integrate(terms(), x, clocks)


def initial_energy_thermo(x, xi0, xi1, xi2, zeta0, zeta1, background) -> float:
    """The initial total energy of the thermodynamic ledger; no weight enters it at tau = 0."""
    x = np.asarray(x, dtype=float)
    g = background.require_grid(x)
    rho, chi = background.rho, background.chi
    xi0_x = gradient(xi0, g)
    xi0_xx = gradient(xi0_x, g)
    return float(np.cumsum(_trapz(np.array([   # added left to right; np.sum would pair
        x**4 * rho * xi1**2, x**2 * rho * zeta0**2, x**4 * rho * xi0**2, x**4 * xi0_x**2,
        x**4 * rho * xi2**2, x**2 * rho * zeta1**2, chi * (xi0**2 + x**2 * xi0_x**2),
        chi * x**2 * rho * xi2**2, xi0_x**2 + x**2 * xi0_xx**2]), x))[-1])


def _ledger(block, alpha_clock):
    """(terms, integrands, coefficient) of the ledger of a block of a linearly expanding run.

    The coefficient is alpha at each field's clock (isentropic) or a1 (thermo).
    """
    if block[0].regime == "linear-thermo":
        return ledger_terms_thermo, dissipation_integrands_thermo, alpha_clock.params.a1
    return (ledger_terms_isentropic, dissipation_integrands_isentropic,
            [alpha_clock.alpha(f.clock) for f in block])


def ledger_integrands(block, weights: WeightSpec, alpha_clock) -> dict:
    """Dissipation-ledger integrands (per unit tau) of a block of fields, one value per field."""
    _, integrands, coef = _ledger(block, alpha_clock)
    return integrands(block, block[0].background, weights, coef)


def total_energy_ledger(run) -> list[EnergyReport]:
    """EnergyReport per snapshot of a linearly expanding run made with weights.

    Every snapshot must carry second clock derivatives (theta_tt, and zeta_t for
    thermo).  The terms come in blocks of `_PROBE_BLOCK` snapshots, the dissipation
    terms are the run's online integrals, and E0 is the initial energy of its first.
    """
    weights, bg, online = run.weights, run.background, run.dissipation_online
    if weights is None:
        raise MissingDerivative("the ledger needs a run made with weights")
    s0 = run.snapshots[0]
    if run.regime == "linear-thermo":
        E0 = initial_energy_thermo(s0.x_nodes, s0.theta, s0.theta_t, s0.theta_tt, s0.zeta,
                                   s0.zeta_t, bg)
    else:
        E0 = initial_energy_isentropic(s0.x_nodes, s0.theta, s0.theta_t, s0.theta_tt, bg)
    reports = []
    for start in range(0, len(run.snapshots), _PROBE_BLOCK):
        block = run.snapshots[start:start + _PROBE_BLOCK]
        terms_fn, _, coef = _ledger(block, run.alpha_clock)
        block_terms = terms_fn(block, bg, weights, coef)
        for idx, f in enumerate(block, start):
            terms = {k: vals[idx - start] for k, vals in block_terms.items()}
            acc_diss = {k: vals[idx] for k, vals in online.items()}
            ledger = {**terms, **acc_diss}
            bad = [k for k, v in ledger.items() if not np.isfinite(v)]
            if bad:
                raise WeightViolation([f"non-finite ledger term {k}" for k in bad])
            reports.append(EnergyReport(
                clock=f.clock, ledger=ledger,
                total_E=float(reduce(add, terms.values(), 0.0)),   # left to right, as sum()
                total_D=float(reduce(add, acc_diss.values(), 0.0)),   # did before Python 3.12
                E0=E0, omega=float(run.omega[idx])))
    return reports
