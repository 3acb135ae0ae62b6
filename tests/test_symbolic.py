"""Symbolic verification of the algebraic identities the solvers rely on.

These pin the closed-form manipulations behind the discrete operators:
uniform-perturbation reductions, the zero-energy curve, the bracket growth
identity, the thermodynamic power-law reduction, and the profile virial
identity used by the physical-energy oracle.  The lemma probes' closed forms
are checked against sympy's integrals of rational polynomials.
"""

import math

import pytest
import sympy as sp

import starlab.functionals as F

# two rational degree-5 polynomials on [0, 1], ascending powers; the first has c_1 = 0
RATIONAL_POLYS = ([sp.Rational(1, 2), 0, sp.Rational(-2, 3), sp.Rational(1, 5),
                   sp.Rational(3, 7), sp.Rational(-1, 4)],
                  [sp.Rational(-1, 3), sp.Rational(3, 4), sp.Rational(1, 6),
                   sp.Rational(-5, 7), sp.Rational(2, 9), sp.Rational(1, 8)])


def test_uniform_reduction_of_momentum_equation():
    # With phi independent of x the pressure difference and the viscous
    # terms vanish and the momentum equation reduces to the phase ODE.
    x, rho, delta, phi = sp.symbols("x rho delta phi", positive=True)
    H = 1 + phi
    # pressure bracket under d/dx at uniform phi: (rho^{4/3} H^{-4})' - (rho^{4/3})' H^{-4}
    rho_f = sp.Function("rho_bar")(x)
    pressure = sp.diff(rho_f ** sp.Rational(4, 3) * H**-4, x) \
        - sp.diff(rho_f ** sp.Rational(4, 3), x) * H**-4
    assert sp.simplify(pressure) == 0
    # gravity bracket: (H^{-4} - H^{-1}) |delta| x rho, divided by x rho / H^2
    grav = (H**-4 - H**-1) * sp.Abs(delta) * x * rho
    reduced = sp.simplify(grav * H**2 / (x * rho))
    expected = sp.Abs(delta) * (H**-2 - H)
    assert sp.simplify(reduced - expected) == 0


def test_bracket_growth_identity():
    # d/ds [phi_s + b((1+phi) - (1+phi)^{-1/2})]
    #   = (b/2)(1 + (1+phi)^{-3/2}) [same bracket]  along the phase ODE
    s = sp.Symbol("s")
    b = sp.Symbol("b", positive=True)
    phi = sp.Function("phi")(s)
    delta_abs = b**2 / 2
    ode_rhs = -b / 2 * phi.diff(s) - delta_abs * ((1 + phi) ** -2 - (1 + phi))
    B = phi.diff(s) + b * ((1 + phi) - (1 + phi) ** sp.Rational(-1, 2))
    dB = B.diff(s).subs(phi.diff(s, 2), ode_rhs)
    target = b / 2 * (1 + (1 + phi) ** sp.Rational(-3, 2)) * B
    assert sp.simplify(dB - target) == 0


def test_zero_energy_curve_annihilates_energy():
    phi = sp.Symbol("phi", positive=True)
    b = sp.Symbol("b", positive=True)
    delta = -(b**2) / 2
    curve = -b * (1 + phi) + b * (1 + phi) ** sp.Rational(-1, 2)
    E = sp.Rational(1, 2) * (curve + b * (1 + phi)) ** 2 + delta / (1 + phi)
    assert sp.simplify(E) == 0


def test_uniform_energy_relation():
    # for uniform phi the gradient part of the perturbation energy vanishes
    # identically and the x^4 rho bracket is the phase-plane energy
    phi, phi_s, b = sp.symbols("phi phi_s b", positive=True)
    H = 1 + phi
    grad_part = 3 * (H**2 * H) ** sp.Rational(-1, 3) - 3 / H  # + x phi_x/H^2 = 0
    assert sp.simplify(grad_part) == 0
    delta = -(b**2) / 2
    kin = sp.Rational(1, 2) * phi_s**2 + b * H * phi_s - delta * H**2 + delta / H
    eh = sp.Rational(1, 2) * (phi_s + b * H) ** 2 + delta / H
    assert sp.simplify(kin - eh) == 0


def test_thermo_power_law_reduction():
    # rho = A theta^m with m = (1 - eps K)/(eps K) makes the hydrostatic and
    # temperature equations proportional, so exact solutions keep the
    # relation: K(m+1) (y^2 theta')' = -(M)' = -y^2 rho and
    # (y^2 theta')' = -eps y^2 rho agree iff K (m+1) eps = 1.
    eps, K = sp.symbols("epsilon K", positive=True)
    m = (1 - eps * K) / (eps * K)
    assert sp.simplify(K * (m + 1) * eps - 1) == 0


def test_profile_virial_identity():
    # y^2 p' = -rho M - delta rho y^3 (hydrostatic relation of the profile)
    # integrates against y to 3 int y^2 p = int y rho M + delta int y^4 rho,
    # the identity behind the constancy of the expanding-solution energy.
    y, R0 = sp.symbols("y R_0", positive=True)
    delta = sp.Symbol("delta")
    # verify on a concrete smooth density with compact support surrogate:
    # p' defined BY the relation, then integrate by parts symbolically
    rho = sp.Function("rho", positive=True)(y)
    M = sp.Function("M")(y)
    p = sp.Function("p")(y)
    relation = sp.Eq(y**2 * p.diff(y), -rho * M - delta * rho * y**3)
    # d/dy [y^3 p] = 3 y^2 p + y^3 p'
    # substitute the relation into y^3 p' = y * (y^2 p')
    integrand = 3 * y**2 * p + y * (-rho * M - delta * rho * y**3)
    # equality of the two integral expressions given p(R0) = 0 reduces to
    # 3 int y^2 p - int y rho M - delta int y^4 rho = 0 up to the boundary
    # term [y^3 p](R0) = 0; check the integrands match after the relation
    assert sp.simplify(sp.diff(y**3 * p, y).subs(y**2 * p.diff(y),
                                                 -rho * M - delta * rho * y**3)
                       - integrand) == 0


def test_viscous_flux_form():
    # B + 4 mu v/(1+f) has the flux form (4mu/3)[(x v)_x / (x(1+f))_x + 2 v/(1+f)]
    # whose weak pairing produces the dissipation integrand
    x = sp.Symbol("x", positive=True)
    mu = sp.Symbol("mu", positive=True)
    f = sp.Function("f")(x)
    v = sp.Function("v")(x)
    H = 1 + f
    J = H + x * f.diff(x)
    B = sp.Rational(4, 3) * mu * ((v + x * v.diff(x)) / J - v / H)
    combined = B + 4 * mu * v / H
    flux_form = sp.Rational(4, 3) * mu * (sp.diff(x * v, x) / sp.diff(x * H, x)
                                          + 2 * v / H)
    assert sp.simplify(combined - flux_form) == 0
    # and the bracket inside the dissipation integrand:
    # H (x v)_x - v (x H)_x = x (H v_x - v f_x)
    bracket = H * sp.diff(x * v, x) - v * sp.diff(x * H, x)
    assert sp.simplify(bracket - x * (H * v.diff(x) - v * f.diff(x))) == 0


def _integral_0_1(expr, s):
    value = sp.integrate(sp.expand(expr), (s, 0, 1))
    return math.inf if value == sp.oo else float(value)


@pytest.mark.parametrize("coefs", RATIONAL_POLYS)
@pytest.mark.parametrize("k", [2, 3, -1])
def test_hardy_closed_form_against_sympy(k, coefs):
    s = sp.Symbol("s", positive=True)
    g = sum(c * s**i for i, c in enumerate(coefs))
    if k > 1:
        sides = (s ** (k - 2) * g**2, s**k * (g**2 + g.diff(s) ** 2))
    else:
        sides = (s ** (k - 2) * (g - g.subs(s, 0)) ** 2, s**k * g.diff(s) ** 2)
    lhs, rhs, _ = F.hardy_check(float(k), [float(c) for c in coefs])
    for got, side in zip((lhs, rhs), sides):
        exact = _integral_0_1(side, s)
        if math.isinf(exact):        # k = -1 with g'(0) != 0 diverges at s = 0
            assert got == math.inf
        else:
            assert got == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("coefs", RATIONAL_POLYS)
def test_frak_A_closed_form_against_sympy(coefs):
    x = sp.Symbol("x", positive=True)
    h = sum(c * x**i for i, c in enumerate(coefs))
    h_x, h_xx = h.diff(x), h.diff(x, 2)
    lhs, rhs = F.frak_A_inequality([float(c) for c in coefs])
    assert lhs == pytest.approx(_integral_0_1((4 * h_x + x * h_xx) ** 2, x), rel=1e-13)
    assert rhs == pytest.approx(_integral_0_1(12 * h_x**2 + x**2 * h_xx**2, x), rel=1e-13)
