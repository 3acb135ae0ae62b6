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
(B, N+1) batch of states or of one 1-d state.  It builds each state's `_Geometry`
(Gram factors only if a solve or a probe reads them) once for every use of it with
`functionals._edge_geometry` (which `perturbation_energy_ss` shares), and solves a
batch's tridiagonal systems in one LAPACK dgtsv call.

In-place rule: only fresh temporaries are overwritten, each by the IEEE operation it
replaces, in its order; never a `_Geometry` field (it serves every retry and the next
step), a Background array or a caller's state.  Updates pass a positional out.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .functionals import _edge_geometry, gradient
from .profiles import Background


def _solve_tridiag(diag, off, rhs):
    """dgtsv on the symmetric system with off[i] = A[i, i+1] = A[i+1, i].

    Rows of 2-d arguments are uncoupled blocks of one system, each with its own solve's
    bits.  A block with a non-finite entry solves to NaN, a step's failed attempt.
    """
    finite = np.logical_and.reduce(np.isfinite(np.concatenate((diag, off, rhs), -1)), -1)
    if not finite.all():
        x = np.full(diag.shape, np.nan)
        if finite.any():
            x[finite] = _solve_tridiag(diag[finite], off[finite], rhs[finite])
        return x
    if diag.ndim > 1:
        off = np.concatenate([off, np.zeros((len(off), 1))], axis=1).ravel()[:-1]
    x, info = dgtsv(off, diag.ravel(), off, rhs.ravel())[3:]   # copies: inputs intact
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x.reshape(diag.shape)


_OVERDAMPED_RATIO = 1e12


def _cap_overdamped(visc, mass_max, K_diag):
    """Saturate each row's implicit viscous factor deep in the overdamped regime.

    Once visc*K exceeds the largest inertial row mass_max (a column for a batch)
    by ~1e12 the velocity solve is the quasi-static limit to double precision and
    larger factors only destroy the conditioning of the semidefinite K against the
    lumped mass; the capped solve agrees with the uncapped one to O(1e-12).
    """
    cap = _OVERDAMPED_RATIO * mass_max
    k_max = np.maximum.reduce(K_diag, -1, keepdims=K_diag.ndim > 1)     # 1-d: a scalar
    if not np.logical_or.reduce(capped := visc * k_max > cap, None):
        return visc
    return np.where(capped & (cap > 0.0), cap / k_max, visc)


def _columns(rows):
    """Per-row tuples of scalars as (B, 1) columns; a 1-d state's one tuple stays floats."""
    return rows[0] if len(rows) == 1 else np.array(rows).T[:, :, None]


def _flux_div(flux, op=np.subtract):
    """op(right, left) of each node's edge fluxes, zero beyond both ends (np.diff's bits)."""
    padded = np.zeros(flux.shape[:-1] + (flux.shape[-1] + 2,))
    padded[..., 1:-1] = flux
    return op(padded[..., 1:], padded[..., :-1])


def _quad_extrap(x, vals, idx):
    """Quadratic extrapolation of vals to node idx from its 3 nearest interior nodes."""
    js = [1, 2, 3] if idx == 0 else [idx - 1, idx - 2, idx - 3]
    c = np.polyfit(x[js], vals[js], 2)
    return float(np.polyval(c, x[idx]))


class _Kernel:
    """The IMEX step of one batch: its static weights, operators, momentum and temperature steps.

    Static arrays come from the Background `bg`; the kernel keeps only those it
    derives.  Every method works along the last axis, with per-row scalars as (B, 1)
    columns (floats for a 1-d state); `geom` is a state's `functionals._Geometry`.
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
        self.mass_max = float(self.mass.max())     # c * mass's largest entry is c * mass_max
        self.x2, self.x3, self.xm2 = x**2, x**3, bg.xm**2
        self.gw = (4.0 * mu / 3.0) * self.dx * self.xm2      # the Gram factor g times Jm
        self.thermo = bg.theta is not None
        if self.thermo:
            self.theta_b = bg.theta.copy()
            self.theta_b[-1] = 0.0
            self.mass_z = self.wq * 3.0 * bg.K * x**2 * self.rho
            self.K_rho, self.K_rho_m = bg.K * self.rho, bg.K * bg.rho_m
        else:
            self.rho13_m = bg.rho_m ** (1.0 / 3.0)
            self.grav_w = self.wq * self.delta * x**4 * self.rho
        self.div_b = _flux_div(bg.ptheta_m if self.thermo else bg.rho43_m)

    def edge_geometry(self, f, gram=True):
        """The `functionals._Geometry` of state f, built once; Gram factors, H^2, Hm^2 if gram."""
        return _edge_geometry(f, self.bg.xm, self.dx, self.gw if gram else None)

    def viscous_matrix(self, geom):
        """Gram matrix K with T(v, w) = -w^T K v as (diag, off): K[i, i+1] = K[i+1, i] = off[i]."""
        g, a, b = geom[3:6]
        diag = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))        # edge i: g b b on node i,
        gb, ga, lead, trail = np.multiply(g, b), np.multiply(g, a), diag[..., :-1], diag[..., 1:]
        np.add(lead, np.multiply(gb, b, gb), lead)
        np.add(trail, np.multiply(ga, a, gb), trail)              # g a a on node i+1
        return diag, np.multiply(ga, b, ga)                       # and g a b off the diagonal

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
        H, H2 = geom.H, geom.H2                  # rows x^3 (H^2 div(flux) - div_b / H^2)
        flux = (padded := np.zeros(H.shape[:-1] + (H.shape[-1] + 1,)))[..., 1:-1]   # 0 beyond
        if self.thermo:                          # (ptheta_m + K rho_m zm) / HHJ
            np.multiply(np.add(zeta[..., :-1], zeta[..., 1:], flux), 0.5, flux)
            np.add(np.multiply(flux, self.K_rho_m, flux), self.bg.ptheta_m, flux)
            np.multiply(flux, np.divide(1.0, geom.HHJ), flux)
        else:                                    # rho43_m HHJ^(-4/3)
            np.multiply(np.power(geom.HHJ, -4.0 / 3.0, flux), self.bg.rho43_m, flux)
        rows = np.multiply(np.subtract(padded[..., 1:], padded[..., :-1]), H2)
        np.multiply(np.subtract(rows, np.divide(self.div_b, H2), rows), self.x3, rows)
        if not self.thermo and self.delta != 0.0:                # + grav_w (H - 1/H^2)
            grav = np.subtract(H, np.divide(1.0, H2))
            np.add(rows, np.multiply(grav, self.grav_w, grav), rows)
        return rows

    def check_geometry(self, geom):
        return np.minimum.reduce(np.concatenate((geom.H, geom.Jm), -1), -1)

    def wave_speed2(self, geom, zeta=None):
        """Each row's squared wave speed times the inertia, for the CFL limit."""
        if self.thermo:                          # |theta_m + zm| Hm^2 / Jm^2
            c2 = np.add(np.multiply(np.add(zeta[..., :-1], zeta[..., 1:]), 0.5), self.bg.theta_m)
            np.divide(np.multiply(np.abs(c2, c2), geom.Hm2, c2), np.multiply(geom.Jm, geom.Jm), c2)
            return self.bg.K * np.maximum.reduce(c2, -1)
        c2 = np.multiply(np.power(geom.Hm, 4), self.rho13_m)     # rho13_m Hm^4 HHJ^(-7/3)
        return (4.0 / 3.0) * np.maximum.reduce(np.multiply(c2, np.power(geom.HHJ, -7 / 3), c2), -1)

    # -- momentum --------------------------------------------------------------

    def solve_velocity(self, geom, v_old, dt, coef, zeta=None, weight=1.0):
        """One implicit viscosity+damping solve at the frozen geometry geom of a state f.

        dt and coef's (inertia, damping, viscosity) are columns.  weight is the
        implicit share of damping and viscosity: 1 for IMEX Euler, 1/2 for the
        midpoint rule, whose explicit half (at v_old) then equals its implicit half.
        """
        inertia, damping, visc = coef
        diag, off = K = self.viscous_matrix(geom)
        lumped = inertia / dt + weight * damping           # the mass rows' factor
        visc = _cap_overdamped(weight * visc, lumped * self.mass_max, diag)
        explicit = 1.0 - weight
        rhs = np.multiply(np.multiply(inertia / dt - explicit * damping, self.mass), v_old)
        if explicit:
            np.subtract(rhs, np.multiply(visc, self.apply_viscous(K, v_old)), rhs)
        np.subtract(rhs, self.pressure_gravity(geom, zeta=zeta), rhs)
        np.add(np.multiply(diag, visc, diag), np.multiply(lumped, self.mass), diag)
        return _solve_tridiag(diag, np.multiply(off, visc, off), rhs)

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
        H = np.add(f, 1.0)
        J = gradient(f, grad)                                     # H + x f_x
        np.add(np.multiply(J, x, J), H, J)
        prod = np.multiply(np.multiply(H, H), self.x3)            # x^3 H^2 v
        F = gradient(v, grad)                     # frakF = (4/3) ((v + x v_x) / J - v / H)^2
        np.divide(np.add(np.multiply(F, x, F), v, F), J, F)
        np.square(np.subtract(F, np.divide(v, H), F), F)
        return H, J, gradient(np.multiply(prod, v, prod), grad), np.multiply(F, 4.0 / 3.0, F)

    def zeta_terms(self, f, geom, v, z, alpha):
        """Terms of the temperature equation, unsummed so each caller keeps its order.

        Returns the nodal advection and viscous heating, and at the edges the
        diffusion coefficient and the flux of the background temperature.
        """
        _, J, dprod, frakF = self.thermo_aux(f, v)
        adv = np.multiply(np.add(z, self.theta_b), self.K_rho)   # K rho (z + theta_b) dprod
        np.divide(np.multiply(adv, dprod, adv), np.multiply(geom.H2, J), adv)   # / (H^2 J)
        heat = np.multiply(np.multiply(alpha, self.x2), geom.H2)  # alpha x^2 H^2 J mu frakF
        np.multiply(np.multiply(np.multiply(heat, J, heat), self.mu, heat), frakF, heat)
        bgflux = np.subtract(np.divide(geom.Hm2, geom.Jm), 1.0)   # (Hm^2 / Jm - 1) xm^2 thetap_m
        np.multiply(np.multiply(bgflux, self.xm2, bgflux), self.bg.thetap_m, bgflux)
        return adv, heat, np.divide(np.multiply(self.xm2, geom.Hm2), geom.Jm), bgflux

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
        mass_dt = np.divide(self.mass_z, dt)
        # symmetric tridiagonal diffusion operator (zero natural flux at the center):
        # mass_z / dt + alpha^2 (cdiff_i + cdiff_i-1) / dx, and -alpha^2 cdiff / dx
        diag = np.multiply(_flux_div(cdiff, np.add), alpha2)
        np.add(np.divide(diag, self.dx, diag), mass_dt, diag)
        off = np.divide(np.multiply(cdiff, -alpha2, cdiff), self.dx, cdiff)
        rhs = np.subtract(np.multiply(mass_dt, z), np.multiply(adv, self.wq, adv))  # - wq adv
        np.add(rhs, np.multiply(heat, self.wq, heat), rhs)          # + wq heat
        np.add(rhs, np.multiply(_flux_div(bgflux), alpha2), rhs)    # + alpha^2 div(bgflux)
        # Dirichlet zeta(R0) = 0: identity row, decoupled from zeta_{N-1}
        diag[..., -1], off[..., -1], rhs[..., -1] = 1.0, 0.0, 0.0
        return _solve_tridiag(diag, off, rhs)
