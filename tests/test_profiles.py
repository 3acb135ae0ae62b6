import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from starlab import _dop853, profiles, solve_isentropic_profile, solve_thermo_profile
from starlab.acceptance import LANE_EMDEN_DTHETA1, LANE_EMDEN_XI1
from starlab.errors import NoFirstZero, NonPhysicalVacuum, OutOfRange, ToleranceNotMet
from starlab.profiles import (GridSpec, boundary_slope_fd, isentropic_ode_residual,
                              sample_background, thermo_ode_residual)
from oracles import lane_emden_first_zero, lane_emden_mpmath


def test_lane_emden_pins_match_both_derivations():
    # c01's pinned xi1 and theta'(xi1) against mpmath at 25 digits and scipy's RK45
    exact, rk45 = lane_emden_mpmath(25), lane_emden_first_zero(3.0)
    for pin, ref, ref_rk45 in zip((LANE_EMDEN_XI1, LANE_EMDEN_DTHETA1), exact, rk45):
        assert pin == float(ref)                        # correctly rounded
        assert abs(pin / ref - 1) < 1e-15
        assert abs(pin / ref_rk45 - 1) < 1e-11
    with mpmath.workdps(25):
        assert mpmath.nstr(exact[0], 20) == "6.8968486193769603755"
        assert mpmath.nstr(exact[1], 20) == "-0.042429757604452951672"
    assert round(-LANE_EMDEN_XI1**2 * LANE_EMDEN_DTHETA1, 5) == 2.01824   # Chandrasekhar


class TestIsentropic:
    def test_first_zero_matches_rescaled_oracle(self, iso0):
        # y = 2 xi maps the delta = 0 equation onto the standard index-3 form
        assert abs(iso0.R0 - 2.0 * LANE_EMDEN_XI1) < 2e-3
        assert abs(iso0.R0 - 13.7937) < 2e-3

    def test_center_values(self, iso0):
        assert iso0.w[0] == 1.0
        # one-sided derivative at the center vanishes to discretization order
        h = iso0.y_nodes[1]
        dw = (iso0.w[1] - iso0.w[0]) / h
        assert abs(dw) < 2.0 * h  # w ~ 1 + c2 y^2 so dw/dy(0+) ~ c2 h

    @pytest.mark.parametrize("delta", [0.0, 0.3, -1e-3])
    def test_series_coefficient(self, delta):
        # fit w = 1 + c2 y^2 + c4 y^4 near the center; c2 matched from the
        # equation, c4 = -(3/80) c2 follows at the next order
        prof = solve_isentropic_profile(delta)
        y = np.linspace(0.0, 0.2, 50)
        A = np.vstack([np.ones_like(y), y**2, y**4]).T
        _, c2, c4 = np.linalg.lstsq(A, prof.w_at(y), rcond=None)[0]
        c2_exact = -(1.0 + 3.0 * delta) / 24.0
        assert abs(c2 - c2_exact) < 1e-6
        assert abs(c4 - (-3.0 / 80.0) * c2_exact) < 1e-4 * max(abs(c2_exact), 1.0)

    def test_evenness_at_center(self, iso0):
        # fitted odd Taylor coefficients vanish relative to their even
        # neighbors (up to the truncation leak of the finite fit window)
        y = np.linspace(0.0, 0.4, 60)
        coef = np.polynomial.polynomial.polyfit(y, iso0.w_at(y), 7)
        assert abs(coef[1]) < 1e-6 * abs(coef[0])
        assert abs(coef[3]) < 1e-4 * abs(coef[2])

    def test_positivity_and_boundary(self, iso0):
        assert np.all(iso0.w[:-1] > 0)
        assert abs(iso0.w[-1]) < 1e-10
        assert iso0.boundary_slope < 0
        assert np.isfinite(iso0.boundary_slope)

    def test_ode_residual_independent_stencil(self, iso0):
        res = isentropic_ode_residual(iso0)
        assert np.max(np.abs(res)) < 10.0 * GridSpec().rtol

    def test_refinement_stability(self, iso0):
        fine = solve_isentropic_profile(0.0, GridSpec(n_cells=1024))
        assert abs(fine.R0 - iso0.R0) < 1e-8
        s_c = boundary_slope_fd(iso0.y_nodes, iso0.w)
        s_f = boundary_slope_fd(fine.y_nodes, fine.w)
        assert abs(s_c - s_f) / abs(s_f) < 1e-3
        assert abs(s_f - fine.boundary_slope) / abs(fine.boundary_slope) < 1e-3

    def test_mass_moments(self, iso0):
        q4 = iso0.fourth_moment
        assert q4 > 0
        # independent adaptive-quadrature oracle
        q4_oracle, _ = quad(lambda y: y**4 * float(iso0.rho_at(y)), 0.0, iso0.R0,
                            limit=200)
        assert abs(q4 - q4_oracle) / q4_oracle < 1e-6

    def test_vanishing_tail_adds_no_mass(self, iso0):
        y = iso0.y_nodes
        mass = lambda a, b: quad(lambda s: s**2 * float(iso0.rho_at(s)), a, b, limit=200)[0]
        assert mass(y[-2], y[-1]) < 1e-9 * mass(0.0, y[-1])

    def test_no_first_zero_below_range(self):
        with pytest.raises(NoFirstZero):
            solve_isentropic_profile(-0.1)

    def test_stop_messages(self, monkeypatch):
        with pytest.raises(NoFirstZero, match=r"^isentropic profile stayed positive up to "
                           r"y = 5\.0; the parameters may be outside the solvable range or "
                           r"y_max too small$"):
            solve_isentropic_profile(0.0, GridSpec(y_max=5.0))
        # a right-hand side that turns NaN at y = 5 shrinks the steps towards it
        solve = profiles.dop853
        monkeypatch.setattr(profiles, "dop853", lambda fun, *args: solve(
            lambda y, s: fun(y, s) if y < 5.0 else (np.nan,) * len(s), *args))
        with pytest.raises(ToleranceNotMet, match=r"^thermo profile integration failed: "
                           r"Required step size is less than spacing between numbers\.$"):
            solve_thermo_profile(1.0, 0.25)

    def test_solvable_window_probe(self):
        prof = solve_isentropic_profile(-2e-3, GridSpec(y_max=400.0))
        assert prof.boundary_slope < 0
        with pytest.raises((NoFirstZero, NonPhysicalVacuum)):
            solve_isentropic_profile(-3e-3, GridSpec(y_max=400.0))


# every star the solves build: the thermo stars at m = 3 and m = 1/4, and isentropic
# stars at delta = 0, on the self-similar window and well above it
STAR_CASES = [pytest.param(solve_thermo_profile, (1.0, 0.25), id="1.0-0.25"),
              pytest.param(solve_thermo_profile, (2.0, 0.4), id="2.0-0.4"),
              *(pytest.param(solve_isentropic_profile, (d,), id=f"delta={d}")
                for d in (0.0, -1e-3, 0.5))]


class TestThermo:
    def test_reduction_oracle(self, thermo14):
        A, m = thermo14.reduction_constant, thermo14.exponent
        assert m == pytest.approx(3.0)
        inner = thermo14.y_nodes <= 0.95 * thermo14.R0
        rel = np.abs(thermo14.rho_bar[inner] - A * thermo14.theta_bar[inner] ** m)
        assert np.max(rel / thermo14.rho_bar[inner]) < 1e-6

    def test_radius_matches_scaled_lane_emden(self, thermo14):
        # theta solves the index-3 equation after y -> sqrt(eps A) y
        scale = 1.0 / np.sqrt(thermo14.epsilon * thermo14.reduction_constant)
        assert abs(thermo14.R0 - scale * LANE_EMDEN_XI1) / thermo14.R0 < 1e-3

    def test_common_zero_and_slopes(self, thermo14):
        assert thermo14.zero_gap < 1e-6 * thermo14.R0
        assert thermo14.theta_boundary_slope < 0
        assert thermo14.rho_pow_boundary_slope < 0
        assert abs(thermo14.theta_bar[-1]) == 0.0
        assert abs(thermo14.rho_bar[-1]) == 0.0

    def test_c_nu_is_3K(self, thermo14):
        assert thermo14.c_nu == 3.0 * thermo14.K

    def test_ode_residuals(self, thermo14):
        rm, rt = thermo_ode_residual(thermo14)
        assert np.max(np.abs(rm)) < 1e-8
        assert np.max(np.abs(rt)) < 1e-8

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            solve_thermo_profile(1.0, 0.1)
        with pytest.raises(OutOfRange):
            solve_thermo_profile(1.0, 1.2)
        # epsilon*K = 0.5 inside the window, but no real star: named before its sqrt(epsilon)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match=r"^K = -2\.0 is not > 0$"):
                solve_thermo_profile(-2.0, -0.25)

    # the reference's tol_eff floors at 1e-14, and its solve raises rtol to 100 eps
    @pytest.mark.parametrize("solve, args", STAR_CASES)
    def test_converges_to_a_tighter_reference(self, monkeypatch, solve, args):
        prof = solve(*args)
        monkeypatch.setattr(profiles, "_SERIES_FRAC", profiles._SERIES_FRAC / 4)
        ref = solve(*args, GridSpec(rtol=1e-11, atol=1e-11))
        assert abs(prof.R0 / ref.R0 - 1) < 1e-11
        assert abs(prof.fourth_moment / ref.fourth_moment - 1) < 5e-11
        y = prof.y_nodes[(prof.y_nodes > prof._y_series) & (prof.y_nodes <= 0.95 * prof.R0)]
        assert np.max(np.abs(prof.rho_at(y) / ref.rho_at(y) - 1)) < 1e-10

    @pytest.mark.parametrize("solve, args", STAR_CASES)
    def test_series_meets_the_solve_at_its_start(self, solve, args):
        # one fourth-order series gives the start state and the values below it
        prof = solve(*args)
        ys = prof._y_series
        for name in ("w_at", "wprime_at", "rho_at", "rho43_at", "theta_at", "thetaprime_at",
                     "cumulative_mass_at"):
            if hasattr(prof, name):
                below, at = getattr(prof, name)(np.array([np.nextafter(ys, 0.0), ys]))
                assert below == pytest.approx(at, rel=1e-14, abs=0.0)

    def test_solve_step_count(self, thermo14):
        # u = rho^(1/m) vanishes linearly, so the steps do not shrink towards the cut
        assert thermo14._dense.t_old.size <= 80

    @settings(max_examples=4)
    @given(ek=st.floats(min_value=0.22, max_value=0.8))
    def test_generic_exponent_profiles(self, ek):
        prof = solve_thermo_profile(1.0, ek)
        inner = prof.y_nodes <= 0.9 * prof.R0
        rel = np.abs(prof.rho_bar[inner]
                     - prof.reduction_constant * prof.theta_bar[inner] ** prof.exponent)
        assert np.max(rel / prof.rho_bar[inner]) < 1e-6
        assert prof.theta_boundary_slope < 0


STARS = {"iso0": lambda gs: solve_isentropic_profile(0.0, gs),
         "iso_ss": lambda gs: solve_isentropic_profile(-1e-3, gs),
         "thermo14": lambda gs: solve_thermo_profile(1.0, 0.25, gs)}

# the three stars at two grids, one solve at the 100 eps rtol floor (tol_eff 1e-14) and
# one loose solve of the m = 1 thermo star, which must reject steps
ORACLE_STARS = {**STARS, "thermo_m1": lambda gs: solve_thermo_profile(1.0, 0.5, gs)}
ORACLE_CASES = [*(pytest.param(star, GridSpec(n_cells=n), False, id=f"{star}-{n}")
                  for star in STARS for n in (512, 1024)),
                pytest.param("iso_ss", GridSpec(rtol=1e-11, atol=1e-11), False,
                             id="iso_ss-rtol-floor"),
                pytest.param("thermo_m1", GridSpec(rtol=1e-6, atol=1e-6), True,
                             id="thermo_m1-loose")]


def scipy_dop853(fun, t_span, y0, tol, max_step, row, level):
    """solve_ivp on the arguments of `_dop853.dop853`: the oracle of its bits."""
    def hit(t, s):
        return s[row] - level
    hit.terminal, hit.direction = True, -1
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "At least one element of `rtol` is too small")
        return solve_ivp(fun, t_span, y0, method="DOP853", rtol=tol, atol=tol, events=hit,
                         dense_output=True, max_step=max_step)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPackedDenseOutput:
    @pytest.mark.parametrize("star, gs, must_reject", ORACLE_CASES)
    def test_packed_output_has_scipys_bits(self, monkeypatch, star, gs, must_reject):
        # scipy's solve_ivp, run on the arguments the in-house integrator was given
        solved = []
        def spy(*args):
            solved.append((args, _dop853.dop853(*args)))
            return solved[-1][1]
        monkeypatch.setattr(profiles, "dop853", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # the rtol floor warns no caller
            prof = ORACLE_STARS[star](gs)
        args, mine = solved[-1]
        ref = scipy_dop853(*args)
        steps, root = ref.sol.interpolants, ref.t_events[0][0]
        assert same_bits(ref.sol.ts, [*mine.t_old, mine.t_event]) and root == mine.t_event
        for name in ("t_old", "h", "y_old", "F"):
            assert same_bits([getattr(p, name) for p in steps], getattr(mine, name)), name
        assert same_bits(ref.sol(root), mine.y_event)
        # each accepted step costs 15 evaluations and the start 2; a rejected one 12 more
        assert ref.nfev > 2 + 15 * len(steps) or not must_reject

        sol, dense = ref.sol, prof._dense
        rows = list(range(dense.F.shape[0]))
        lo, hi = sol.ts[0], sol.ts[-1]
        rng = np.random.default_rng(7)
        points = np.concatenate([rng.uniform(lo, hi, 5000), sol.ts,
                                 [lo - 1.0, lo - 1e-9, hi + 1e-9, hi + 1.0, 0.0]])
        packed, expected = dense(points, rows), sol(points)
        for r in rows:
            assert same_bits(packed[r], expected[r])
        for t in np.concatenate([points[::97], sol.ts[::50], points[-5:]]):
            one = dense(t, rows)
            assert same_bits([one[r] for r in rows], sol(t)[rows])

    def test_brentq_port_returns_scipys_root(self):
        # seeded brackets of smooth functions, from near-linear to steep and lopsided
        rng = np.random.default_rng(29)
        shapes = [lambda x, r, k: (x - r) * (1.0 + k * (x - r) ** 2),
                  lambda x, r, k: np.expm1(k * (x - r)),
                  lambda x, r, k: np.tanh(k * (x - r)) + 1e-3 * (x - r),
                  lambda x, r, k: np.cbrt(x - r) + k * (x - r) ** 3,
                  lambda x, r, k: np.sin(x - r) * np.exp(-k * (x - r) ** 2) + 1e-2 * (x - r)]
        tol = 4 * np.finfo(float).eps
        for _ in range(60):                     # 300 brackets
            r, k = rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-2.0, 2.0)
            a, b = r - 10.0 ** rng.uniform(-6.0, 0.5), r + 10.0 ** rng.uniform(-6.0, 0.5)
            for shape in shapes:
                f = lambda x: float(shape(x, r, k))
                ends = (a, b) if rng.random() < 0.5 else (b, a)
                assert _dop853.brentq(f, *ends) == brentq(f, *ends, xtol=tol, rtol=tol)
        assert _dop853.brentq(lambda x: x * x + 1.0, -1.0, 1.0) is None

    @pytest.mark.parametrize("n", [96, 192])
    @pytest.mark.parametrize("star", ["iso_ss", "thermo14"])
    def test_background_has_the_per_quantity_bits(self, request, star, n):
        prof = request.getfixturevalue(star)
        x = np.linspace(0.0, prof.R0, n + 1)
        bg = sample_background(prof, x)
        if star == "thermo14":
            methods = {"rho": prof.rho_at, "theta": prof.theta_at}
            assert np.array_equal(bg.thetap_m, prof.thetaprime_at(bg.xm))
            assert np.array_equal(bg.ptheta_m, prof.K * prof.rho_at(bg.xm) * prof.theta_at(bg.xm))
        else:
            methods = {"rho": prof.rho_at, "rho43": prof.rho43_at}
        for key, method in methods.items():
            assert np.array_equal(getattr(bg, key), method(x))
            assert np.array_equal(getattr(bg, key + "_m"), method(bg.xm))
