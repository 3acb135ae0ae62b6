"""The IMEX step kernel of the Lagrangian solvers (`lagrangian`).

One spatial discretization serves all three regimes: vertex-centered nodes
x_0 = 0 .. x_N = R0 (uniform), fields collocated at nodes, fluxes and the
viscous bilinear form on cell midpoints.  The schemes are formulated in the
perturbation variable, and every background term is differenced with the
same midpoint-flux operator as its perturbed counterpart, so the unperturbed
star is preserved to machine precision.

Viscous operator.  Written against the test pairing x^3 (1+f)^2 w, the
monatomic-gas viscosity reduces (after integration by parts, using the
zero-stress boundary condition at R0 and x^3 at the center) to the
symmetric negative-semidefinite form

    T(v, w) = -(4 mu/3) int x^4 (H v_x - v f_x)(H w_x - w f_x) / J dx,

H = 1 + f, J = 1 + f + x f_x.  Discretized by midpoint quadrature this is a
Gram matrix K, so the step's dissipation equals the quadrature of the
continuous dissipation integrand x^2 ((1+f) x v_x - x f_x v)^2 / J exactly;
the boundary stress flux at R0 is zero by construction (natural condition)
and the kernel of K is uniform-in-x motion, which therefore dissipates
nothing, mirroring the continuous model.

Mass is lumped with trapezoid weights; it vanishes at the center (x = 0)
and at the vacuum node (rho(R0) = 0), whose rows become the quasi-static
force balances that the continuum also imposes there; the implicit
viscosity+damping solve absorbs them.

Time stepping is first-order IMEX: implicit in viscosity and damping (linear
in the new velocity at frozen geometry), explicit in pressure and gravity, with
the step controlled by the driver.  An optional midpoint variant (order = 2,
implicit weight 1/2 in the same velocity solve) serves the isentropic regimes.

One kernel per run, `_Kernel(bg, clock, mu)`, works along the last axis of a
(B, N+1) batch of states or of one 1-d state.  It builds each state's
`_Geometry`, Gram factors included, once for every use of it, and solves a
batch's tridiagonal systems in one LAPACK dgtsv call.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from . import functionals
from .functionals import gradient
from .profiles import Background


def _solve_tridiag(diag, upper, lower, rhs):
    """dgtsv on upper[i] = A[i, i+1], lower[i] = A[i+1, i], with scipy's banded checks.

    Rows of 2-d arguments are uncoupled blocks of one system: each has its own solve's bits.
    """
    if not np.isfinite(np.concatenate((diag, upper, lower, rhs), axis=-1)).all():
        raise ValueError("array must not contain infs or NaNs")
    if diag.ndim > 1:
        upper, lower = (np.concatenate([b, np.zeros((len(b), 1))], axis=1).ravel()[:-1]
                        for b in (upper, lower))
    x, info = dgtsv(lower, diag.ravel(), upper, rhs.ravel())[3:]   # copies: inputs stay intact
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x.reshape(diag.shape)


_OVERDAMPED_RATIO = 1e12


def _cap_overdamped(visc, mass_term, K_diag):
    """Saturate each row's implicit viscous factor deep in the overdamped regime.

    Once visc*K exceeds the inertial rows by ~1e12 the velocity solve is the
    quasi-static limit to double precision and larger factors only destroy
    the conditioning of the semidefinite K against the lumped mass; the
    capped solve agrees with the uncapped one to O(1e-12).
    """
    cap = _OVERDAMPED_RATIO * mass_term.max(axis=-1, keepdims=K_diag.ndim > 1)
    k_max = K_diag.max(axis=-1, keepdims=K_diag.ndim > 1)     # a 1-d state's stay scalars
    capped = visc * k_max > cap
    return np.where(capped & (cap > 0.0), cap / k_max, visc) if capped.any() else visc


def _columns(rows):
    """Per-row tuples of scalars as (B, 1) columns; a 1-d state's one tuple stays floats."""
    return rows[0] if len(rows) == 1 else np.array(rows).T[:, :, None]


def _flux_div(flux):
    """Node differences of edge fluxes with zero flux beyond both ends (np.diff's bits)."""
    padded = np.zeros(flux.shape[:-1] + (flux.shape[-1] + 2,))
    padded[..., 1:-1] = flux
    return padded[..., 1:] - padded[..., :-1]


def _quad_extrap(x, vals, idx):
    """Quadratic extrapolation of vals to node idx from its 3 nearest interior nodes."""
    js = [1, 2, 3] if idx == 0 else [idx - 1, idx - 2, idx - 3]
    c = np.polyfit(x[js], vals[js], 2)
    return float(np.polyval(c, x[idx]))


# A state's edges (Hm = 1 + f, df = f_x, Jm = Hm + x df), K's Gram factors (g, a, b),
# and H = 1 + f at the nodes, H^2, Hm^2 and Hm^2 Jm
_Geometry = namedtuple("_Geometry", "Hm df Jm g a b H H2 Hm2 HHJ")


class _Kernel:
    """The IMEX step of one batch: its static weights, operators, momentum and temperature steps.

    Static arrays come from the Background `bg`; the kernel keeps only those it
    derives.  Every method works along the last axis, with per-row scalars as (B, 1)
    columns (floats for a 1-d state); `geom` is the `_Geometry` of edge_geometry.
    """

    def __init__(self, bg: Background, clock, mu: float):
        self.bg, self.clock, self.mu = bg, clock, mu
        self.delta = clock.params.delta
        x = bg.x
        self.dx = float(x[1] - x[0])      # a float keeps the members' clocks floats
        self.wq = np.full(x.size, self.dx)
        self.wq[0] = self.wq[-1] = 0.5 * self.dx
        self.rho = bg.rho.copy()             # the vacuum node is exactly massless
        self.rho[-1] = 0.0
        self.mass = self.wq * x**4 * self.rho
        self.x3 = x**3
        self.gw = (4.0 * mu / 3.0) * self.dx * bg.xm**2      # the Gram factor g times Jm
        self.thermo = bg.theta is not None
        if self.thermo:
            self.theta_b = bg.theta.copy()
            self.theta_b[-1] = 0.0
            self.mass_z = self.wq * 3.0 * bg.K * x**2 * self.rho
        else:
            self.rho13_m = bg.rho_m ** (1.0 / 3.0)
            self.grav_w = self.wq * self.delta * x**4 * self.rho
        self.div_b = _flux_div(bg.ptheta_m if self.thermo else bg.rho43_m)

    def edge_geometry(self, f):
        """The `_Geometry` of state f, built once per state."""
        Hm = 1.0 + 0.5 * (f[..., :-1] + f[..., 1:])
        df = (f[..., 1:] - f[..., :-1]) / self.dx
        Jm = Hm + self.bg.xm * df
        H, Hm2 = 1.0 + f, Hm * Hm
        gram = functionals._gram_factors((Hm, df, Jm), self.bg.xm, self.dx, self.gw)
        return _Geometry(Hm, df, Jm, *gram, H, H**2, Hm2, Hm2 * Jm)

    def viscous_matrix(self, geom):
        """Gram matrix K with T(v, w) = -w^T K v as (diag, off): K[i, i+1] = K[i+1, i] = off[i]."""
        g, a, b = geom[3:6]
        ga = g * a
        diag = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
        diag[..., :-1] += g * b * b
        diag[..., 1:] += ga * a
        return diag, ga * b

    def apply_viscous(self, K, v):
        diag, off = K
        out = diag * v
        out[..., :-1] += off * v[..., 1:]
        out[..., 1:] += off * v[..., :-1]
        return out

    def pressure_gravity(self, geom, zeta=None):
        """Weak rows of the pressure + gravity terms (already Delta-x scaled).

        Fluxes at the outer boundary are zero: the background pressure
        vanishes at the vacuum. The background gradient is differenced with
        the same midpoint fluxes, so the rows vanish identically at f = 0.
        """
        bg = self.bg
        H, H2 = geom.H, geom.H2
        if self.thermo:
            Gm = 1.0 / geom.HHJ
            zm = 0.5 * (zeta[..., :-1] + zeta[..., 1:])
            flux = (bg.ptheta_m + bg.K * bg.rho_m * zm) * Gm
        else:
            Gm = geom.HHJ ** (-4.0 / 3.0)
            flux = bg.rho43_m * Gm
        rows = self.x3 * (H2 * _flux_div(flux) - self.div_b / H2)
        if not self.thermo and self.delta != 0.0:
            rows = rows + self.grav_w * (H - 1.0 / H2)
        return rows

    def check_geometry(self, geom):
        return np.minimum(geom.H.min(axis=-1), geom.Jm.min(axis=-1))

    def wave_speed2(self, geom, zeta=None):
        """Each row's squared wave speed times the inertia, for the CFL limit."""
        Hm, _, Jm = geom[:3]
        if self.thermo:
            zm = 0.5 * (zeta[..., :-1] + zeta[..., 1:])
            return self.bg.K * (np.abs(self.bg.theta_m + zm) * Hm**2 / Jm**2).max(axis=-1)
        return (4.0 / 3.0) * (self.rho13_m * Hm**4 * geom.HHJ ** (-7.0 / 3.0)).max(axis=-1)

    # -- momentum --------------------------------------------------------------

    def solve_velocity(self, geom, v_old, dt, coef, zeta=None, weight=1.0):
        """One implicit viscosity+damping solve at the frozen geometry geom of a state f.

        dt and coef's (inertia, damping, viscosity) are columns.  weight is the
        implicit share of damping and viscosity: 1 for IMEX Euler, 1/2 for the
        midpoint rule, whose explicit half (at v_old) then equals its implicit half.
        """
        inertia, damping, visc = coef
        K = self.viscous_matrix(geom)
        rows = self.pressure_gravity(geom, zeta=zeta)
        mass_term = (inertia / dt + weight * damping) * self.mass
        visc = _cap_overdamped(weight * visc, mass_term, K[0])
        diag = mass_term + visc * K[0]
        explicit = 1.0 - weight
        rhs = (inertia / dt - explicit * damping) * self.mass * v_old
        if explicit:
            rhs -= visc * self.apply_viscous(K, v_old)
        rhs -= rows
        off = visc * K[1]
        return _solve_tridiag(diag, off, off, rhs)

    def acceleration(self, geom, v, coef, zeta=None):
        """Pointwise clock-acceleration from the semi-discrete equations.

        Valid where the lumped mass is positive; the massless end nodes are
        filled by quadratic extrapolation (their rows are force balances).
        """
        inertia, damping, visc = coef
        K = self.viscous_matrix(geom)
        rows = self.pressure_gravity(geom, zeta=zeta)
        num = visc * (-self.apply_viscous(K, v)) - rows - damping * self.mass * v
        acc = np.zeros_like(v)
        inner = self.mass > 0
        acc[..., inner] = num[..., inner] / (inertia * self.mass[inner])
        for row in np.atleast_2d(acc):
            row[0] = _quad_extrap(self.bg.x, row, 0)
            row[-1] = _quad_extrap(self.bg.x, row, row.size - 1)
        return acc

    # -- temperature -----------------------------------------------------------

    def thermo_aux(self, f, v):
        """Nodal advection bracket, Jacobian, and viscous-heating rate."""
        x, grad = self.bg.x, self.bg.grad
        H = 1.0 + f
        f_x = gradient(f, grad)
        v_x = gradient(v, grad)
        J = H + x * f_x
        prod = x**3 * H**2 * v
        dprod = gradient(prod, grad)
        frakF = (4.0 / 3.0) * ((v + x * v_x) / J - v / H) ** 2
        return H, J, dprod, frakF

    def zeta_terms(self, f, geom, v, z, alpha):
        """Terms of the temperature equation, unsummed so each caller keeps its order.

        Returns the nodal advection and viscous heating, and at the edges the
        diffusion coefficient and the flux of the background temperature.
        """
        x, xm = self.bg.x, self.bg.xm
        H, J, dprod, frakF = self.thermo_aux(f, v)
        adv = self.bg.K * self.rho * (z + self.theta_b) * dprod / (H**2 * J)
        heat = alpha * x**2 * H**2 * J * self.mu * frakF
        Hm, _, Jm = geom[:3]
        cdiff = xm**2 * Hm**2 / Jm
        bgflux = (Hm**2 / Jm - 1.0) * xm**2 * self.bg.thetap_m
        return adv, heat, cdiff, bgflux

    def zeta_rate(self, f, geom, v, z, clock):
        """Pointwise zeta_tau at the clock from the semi-discrete temperature equation."""
        alpha = self.clock.alpha(clock)
        alpha2 = alpha**2
        adv, heat, cdiff, bgflux = self.zeta_terms(f, geom, v, z, alpha)
        Fz = cdiff * np.diff(z) / self.dx + bgflux
        div = _flux_div(Fz)
        num = -self.wq * adv + self.wq * heat + alpha2 * div
        rate = np.zeros_like(z)
        inner = self.mass_z > 0
        rate[..., inner] = num[..., inner] / self.mass_z[inner]
        for row in np.atleast_2d(rate):
            row[0] = _quad_extrap(self.bg.x, row, 0)
        rate[..., -1] = 0.0
        return rate

    def temperature_step(self, f, geom, v, z, dt, clocks):
        """zeta after one step to the clocks: implicit diffusion, explicit advection and heating."""
        alpha, alpha2 = _columns([(a, a**2) for a in map(self.clock.alpha, clocks)])
        adv, heat, cdiff, bgflux = self.zeta_terms(f, geom, v, z, alpha)
        dx = self.dx
        bdiv = _flux_div(bgflux)
        # symmetric tridiagonal diffusion operator (zero natural flux at the center)
        end = np.zeros(cdiff.shape[:-1] + (1,))
        diag = self.mass_z / dt + alpha2 * (
            np.concatenate([cdiff, end], axis=-1) + np.concatenate([end, cdiff], axis=-1)) / dx
        off = -alpha2 * cdiff / dx
        rhs = (self.mass_z / dt) * z - self.wq * adv + self.wq * heat + alpha2 * bdiv
        # Dirichlet zeta(R0) = 0: identity row, decoupled from zeta_{N-1}
        diag[..., -1] = 1.0
        off[..., -1] = 0.0
        rhs[..., -1] = 0.0
        return _solve_tridiag(diag, off, off, rhs)
