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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _integrate(rows, x) -> dict:
    """{name: coef * int f dx} of rows = {name: (coef, f)}: one trapezoid over the stack."""
    vals = _trapz(np.array([f for _, f in rows.values()]), x).tolist()
    return {k: c * val for (k, (c, _)), val in zip(rows.items(), vals)}


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
    Hm = 1.0 + 0.5 * (phi[:-1] + phi[1:])
    df = (phi[1:] - phi[:-1]) / dx
    geom = (Hm, df, Hm + xm * df)
    if np.any(geom[2] <= 0.0):
        raise DomainViolation("1 + phi + x phi_x <= 0")
    b = math.sqrt(2.0 * abs(delta))
    H, Hm2 = 1.0 + phi, Hm * Hm
    gram = _gram_factors(geom, xm, dx, (4.0 * mu / 3.0) * dx * xm**2)
    geom = geom + gram + (H, H**2, Hm2, Hm2 * geom[2])
    (E,), (D,) = _energy_ss(x[1:] - x[:-1], xm, phi_s, geom, rho4_nodes, dx * rho43_edges,
                            b, delta)
    return E / (a0 * math.exp(b * s)), D


def _gram_factors(geom, xm, dx, gw):
    """(g, a, b) of K at geom: edge i adds g_i (a_i v_{i+1} + b_i v_i)^2 to v^T K v."""
    a, half_df = np.divide(geom[0], dx), np.multiply(0.5, geom[1])   # Hm / dx, df / 2
    b = np.negative(np.multiply(np.add(a, half_df), xm))      # b = -xm (Hm/dx + df/2), exactly
    return np.divide(gw, geom[2]), np.multiply(np.subtract(a, half_df, a), xm, a), b


def _energy_ss(spacing, xm, v, geom, rho4, w, b, delta):
    """(alpha E, D) of self-similar states (f, v), f's geometry being the solver's.

    spacing = x[1:] - x[:-1] and the edge weights w = dx * x^2 rho^{4/3} depend on
    the grid only, so a caller probing many states computes them once.

    The states are the rows of a batch (or one 1-d state), and the two lists
    hold one value per row; each dot product is one `np.dot` of its row.  geom =
    (Hm, df, Jm, g, a, c, H, H^2, Hm^2, Hm^2 Jm) holds f's edge geometry, K's Gram
    factors (g, a, c), so that D = v^T K v >= 0 by construction, and H = 1 + f.
    The solver calls this on every accepted state; its geometry check stands in
    for the domain checks of `perturbation_energy_ss`.
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
    """`amplitude` along the last axis: one value per state of a batch."""
    u = np.array((theta, theta_t) * 2)           # theta, theta_t, then x theta_x, x theta_xt
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


def ledger_terms_isentropic(field, background, weights: WeightSpec, alpha: float) -> dict:
    """Instantaneous terms of the linearly expanding isentropic total energy."""
    if field.theta_tt is None:
        raise MissingDerivative("ledger needs the second clock derivative")
    x = np.asarray(field.x_nodes, dtype=float)
    th, v, acc = field.theta, field.theta_t, field.theta_tt
    a = weights.a
    g = background.require_grid(x)
    rho, rho43, chi = background.rho, background.rho43, background.chi
    th_x, v_x = gradient(np.array([th, v]), g)
    th_xx, v_xx = gradient(np.array([th_x, v_x]), g)
    G_x = _entropy_grad(x, th, th_x, th_xx)
    # G_t = 2 th_t/(1+th) + (th_t + x th_xt)/J; differentiate in x.
    G_xt = gradient(2.0 * v / (1.0 + th) + (v + x * v_x) / (1.0 + th + x * th_x), g)
    al = alpha
    return _integrate({
        "E_vel": (al + al ** (1 + a), x**4 * rho * v**2),
        "E_press_grad": (1.0, x**4 * rho43 * th_x**2),
        "E_grad": (1.0, x**4 * th_x**2),
        "E_field": (1.0, x**4 * rho * th**2),
        "E_acc": (al ** (a - 3), x**4 * rho * acc**2),
        "E_visc_pair": (al ** (1 + a), ((1.0 + th) * x * v_x - x * th_x * v) ** 2 * x**2),
        "E_int_vel": (al ** (1 + a), chi * (v**2 + x**2 * v_x**2)),
        "E_int_field": (1.0, chi * (th**2 + x**2 * th_x**2)),
        "E_int_acc": (al ** (a - 5), chi * x**2 * rho * acc**2),
        "E_entropy_grad": (1.0, G_x**2),
        "E_entropy_grad_t": (al ** (a - 1), G_xt**2),
        "E_elliptic_grad": (1.0, th_x**2),
        "E_elliptic_xx": (1.0, x**2 * th_xx**2),
        "E_elliptic_grad_t": (al ** (a - 1), v_x**2),
        "E_elliptic_xx_t": (al ** (a - 1), x**2 * v_xx**2),
    }, x)


def dissipation_integrands_isentropic(field, background, weights: WeightSpec,
                                      alpha: float) -> dict:
    """Integrands (per unit tau) of the isentropic dissipation ledger."""
    if field.theta_tt is None:
        raise MissingDerivative("dissipation ledger needs the second clock derivative")
    x = np.asarray(field.x_nodes, dtype=float)
    th, v, acc = field.theta, field.theta_t, field.theta_tt
    a = weights.a
    g = background.require_grid(x)
    rho, rho43, chi = background.rho, background.rho43, background.chi
    th_x, v_x, acc_x = gradient(np.array([th, v, acc]), g)
    pair_v = (1.0 + th) * x * v_x - x * th_x * v
    pair_acc = (1.0 + th) * x * acc_x - x * th_x * acc
    G_x = _entropy_grad(x, th, th_x, gradient(th_x, g))
    al = alpha
    return _integrate({
        "D_vel": (al + al ** (1 + a), x**4 * rho * v**2),
        "D_visc_pair": (al**3 + al ** (3 + a), x**2 * pair_v**2),
        "D_acc": (al ** (a - 3), x**4 * rho * acc**2),
        "D_visc_pair_t": (al ** (a - 1), x**2 * pair_acc**2),
        "D_int_vel": (al ** (1 + a), chi * (v**2 + x**2 * v_x**2)),
        "D_int_acc": (al ** (a - 5), chi * x**2 * rho * acc**2),
        "D_int_acc2": (al ** (a - 3), chi * (acc**2 + x**2 * acc_x**2)),
        "D_entropy": (al ** (-3), rho43 * G_x**2),
    }, x)


def initial_energy_isentropic(x, th0, th1, th2, background, weights: WeightSpec) -> float:
    """The initial total energy of the linearly expanding isentropic ledger."""
    x = np.asarray(x, dtype=float)
    g = background.require_grid(x)
    rho, rho43, chi = background.rho, background.rho43, background.chi
    th0_x = gradient(th0, g)
    th0_xx = gradient(th0_x, g)
    return float(np.cumsum(_trapz(np.array([   # added left to right; np.sum would pair
        x**4 * rho * th1**2, x**4 * rho * th0**2, x**4 * th0_x**2, x**4 * rho43 * th0_x**2,
        x**4 * rho * th2**2, chi * (th0**2 + x**2 * th0_x**2), chi * x**2 * rho * th2**2,
        th0_x**2 + x**2 * th0_xx**2]), x))[-1])


def ledger_terms_thermo(field, background, weights: WeightSpec, a1: float) -> dict:
    """Instantaneous terms of the thermodynamic total energy ledger (theta is xi)."""
    if field.theta_tt is None or field.zeta_t is None:
        raise MissingDerivative("thermo ledger needs theta_tt and zeta_t")
    x = np.asarray(field.x_nodes, dtype=float)
    xi, v, acc = field.theta, field.theta_t, field.theta_tt
    zeta, zeta_t = field.zeta, field.zeta_t
    w = weights
    tau = field.clock
    g = background.require_grid(x)
    rho, chi = background.rho, background.chi
    xi_x, v_x, zeta_x = gradient(np.array([xi, v, zeta]), g)
    xi_xx, v_xx, zeta_xx = gradient(np.array([xi_x, v_x, zeta_x]), g)
    pair_v = (1.0 + xi) * x * v_x - x * xi_x * v
    e = lambda p: math.exp(p * a1 * tau)
    return _integrate({
        "E_vel": (e(1 + w.r1), x**4 * rho * v**2),
        "E_temp": (e(w.l1), x**2 * rho * zeta**2),
        "E_field": (1.0, x**4 * rho * xi**2),
        "E_grad4": (1.0, x**4 * xi_x**2),
        "E_field2": (1.0, x**2 * xi**2),
        "E_acc": (e(w.r2 - 2), x**4 * rho * acc**2),
        "E_temp_t": (e(w.l2 - 2), x**2 * rho * zeta_t**2),
        "E_temp_grad": (e((w.l1 + w.l2) / 2 + 1), x**2 * zeta_x**2),
        "E_visc_pair": (e((w.r1 + w.r2) / 2 + 1.5), x**2 * pair_v**2),
        "E_int_field": (1.0, chi * (xi**2 + x**2 * xi_x**2)),
        "E_int_vel": (e(w.r2 + 2), chi * (x**2 * v_x**2 + v**2)),
        "E_int_acc": (e(w.r3 - 2), chi * x**2 * rho * acc**2),
        "E_elliptic_grad": (1.0, xi_x**2),
        "E_elliptic_xx": (1.0, x**2 * xi_xx**2),
        "E_zeta_grad": (1.0, zeta_x**2),
        "E_elliptic_t": (e(w.r3 + 2), v_x**2 + x**2 * v_xx**2),
        "E_zeta_xx": (1.0, x**2 * zeta_xx**2),
    }, x)


def dissipation_integrands_thermo(field, background, weights: WeightSpec, a1: float) -> dict:
    if field.theta_tt is None or field.zeta_t is None:
        raise MissingDerivative("thermo dissipation ledger needs theta_tt and zeta_t")
    x = np.asarray(field.x_nodes, dtype=float)
    xi, v, acc = field.theta, field.theta_t, field.theta_tt
    zeta, zeta_t = field.zeta, field.zeta_t
    w = weights
    tau = field.clock
    g = background.require_grid(x)
    rho, chi = background.rho, background.chi
    xi_x, v_x, acc_x, zeta_x, zeta_tx = gradient(np.array([xi, v, acc, zeta, zeta_t]), g)
    pair_v = (1.0 + xi) * x * v_x - x * xi_x * v
    pair_acc = (1.0 + xi) * x * acc_x - x * xi_x * acc
    e = lambda p: math.exp(p * a1 * tau)
    return _integrate({
        "D_vel": (a1 * e(1 + w.r1), x**4 * rho * v**2),
        "D_visc_pair": (e(3 + w.r1), x**2 * pair_v**2),
        "D_temp": (a1 * e(w.l1), x**2 * rho * zeta**2),
        "D_temp_grad": (e(2 + w.l1), x**2 * zeta_x**2),
        "D_acc": (a1 * e(w.r2 - 2), x**4 * rho * acc**2),
        "D_visc_pair_t": (e(w.r2), x**2 * pair_acc**2),
        "D_temp_grad_t": (e(w.l2), x**2 * zeta_tx**2),
        "D_int_vel": (e(3 + w.frak_r), chi * (x**2 * v_x**2 + v**2)),
        "D_int_acc": (e(w.r3), chi * (x**2 * acc_x**2 + acc**2)),
    }, x)


def initial_energy_thermo(x, xi0, xi1, xi2, zeta0, zeta1, background,
                          weights: WeightSpec) -> float:
    x = np.asarray(x, dtype=float)
    g = background.require_grid(x)
    rho, chi = background.rho, background.chi
    xi0_x = gradient(xi0, g)
    xi0_xx = gradient(xi0_x, g)
    return float(np.cumsum(_trapz(np.array([   # added left to right; np.sum would pair
        x**4 * rho * xi1**2, x**2 * rho * zeta0**2, x**4 * rho * xi0**2, x**4 * xi0_x**2,
        x**4 * rho * xi2**2, x**2 * rho * zeta1**2, chi * (xi0**2 + x**2 * xi0_x**2),
        chi * x**2 * rho * xi2**2, xi0_x**2 + x**2 * xi0_xx**2]), x))[-1])


def _ledger(field, alpha_clock):
    """(terms, integrands, coefficient) of a linearly expanding field's ledger.

    The coefficient is alpha at the field's clock (isentropic) or a1 (thermo).
    """
    if field.regime == "linear-thermo":
        return ledger_terms_thermo, dissipation_integrands_thermo, alpha_clock.params.a1
    return (ledger_terms_isentropic, dissipation_integrands_isentropic,
            alpha_clock.alpha(field.clock))


def ledger_integrands(field, weights: WeightSpec, alpha_clock) -> dict:
    """Dissipation-ledger integrands (per unit tau) of a linearly expanding field."""
    _, integrands, coef = _ledger(field, alpha_clock)
    return integrands(field, field.background, weights, coef)


def total_energy_ledger(run) -> list[EnergyReport]:
    """EnergyReport per snapshot of a linearly expanding run made with weights.

    Every snapshot must carry second clock derivatives (theta_tt, and zeta_t
    for thermo).  The dissipation terms are the run's online integrals, and
    E0 is the initial energy of its first snapshot.
    """
    weights, bg, online = run.weights, run.background, run.dissipation_online
    if weights is None:
        raise MissingDerivative("the ledger needs a run made with weights")
    s0 = run.snapshots[0]
    if run.regime == "linear-thermo":
        E0 = initial_energy_thermo(s0.x_nodes, s0.theta, s0.theta_t, s0.theta_tt, s0.zeta,
                                   s0.zeta_t, bg, weights)
    else:
        E0 = initial_energy_isentropic(s0.x_nodes, s0.theta, s0.theta_t, s0.theta_tt, bg,
                                       weights)
    reports = []
    for idx, f in enumerate(run.snapshots):
        terms_fn, _, coef = _ledger(f, run.alpha_clock)
        terms = terms_fn(f, bg, weights, coef)
        acc_diss = {k: vals[idx] for k, vals in online.items()}
        ledger = {**terms, **acc_diss}
        bad = [k for k, v in ledger.items() if not np.isfinite(v)]
        if bad:
            raise WeightViolation([f"non-finite ledger term {k}" for k in bad])
        reports.append(EnergyReport(
            clock=f.clock, ledger=ledger,
            total_E=float(sum(terms.values())),
            total_D=float(sum(acc_diss.values())),
            E0=E0, omega=float(run.omega[idx])))
    return reports
