import numpy as np
import pytest
from hypothesis import given, strategies as st

import starlab.functionals as F
from starlab import classify_expansion
from starlab.errors import KEqualsOne, MissingDerivative, WeightViolation
from starlab.lagrangian import (LINEAR_REGIME, THERMO_REGIME, PerturbationField, SolverSpec,
                                evolve_linear_isentropic, evolve_linear_thermo,
                                evolve_self_similar, reconstruct_eulerian)
from starlab.profiles import sample_background


class TestPhysicalEnergy:
    @pytest.mark.parametrize("t", [0.0, 0.7, 2.0])
    def test_exact_expanding_solution(self, iso_ss, pars_ss, t):
        # build the unperturbed snapshot at time t by hand
        alpha = float((pars_ss.a0**1.5 + 1.5 * np.sqrt(pars_ss.a0) * pars_ss.a1 * t)
                      ** (2.0 / 3.0))
        alpha_p = np.sqrt(2 * abs(pars_ss.delta) / alpha)

        def snap(n):
            x = np.linspace(0.0, iso_ss.R0, n)

            class Snap:
                r = alpha * x
                rho = alpha**-3 * iso_ss.rho_at(x)
                u = alpha_p * x

            return Snap

        res = F.physical_energy(snap(4097))
        kinetic = 0.5 * alpha_p**2 * iso_ss.fourth_moment
        assert abs(res.D) < 1e-12 * max(kinetic, 1.0)
        # self-similar branch: E vanishes, to the tolerance of the quadrature
        # (three O(alpha^-1 * 10) terms cancel); refining must shrink it
        assert abs(res.E) < 1e-5 * (kinetic / alpha_p**2)
        coarse = F.physical_energy(snap(1025))
        assert abs(res.E) < 0.3 * abs(coarse.E)

    def test_energy_constant_matches_first_integral(self, iso0):
        # linearly expanding star: E = (a1^2 + 2 delta/a0)/2 * int s^4 rho,
        # constant in t via the profile virial identity
        pars = classify_expansion(0.0, 1.0, 1.0)
        x = iso0.y_nodes
        expected = 0.5 * (pars.a1**2 + 2.0 * pars.delta / pars.a0) \
            * iso0.fourth_moment
        for t in (0.0, 1.0, 3.0):
            alpha = 1.0 + t

            class Snap:
                r = alpha * x
                rho = alpha**-3 * iso0.rho_bar
                u = 1.0 * x

            res = F.physical_energy(Snap)
            assert res.E == pytest.approx(expected, rel=2e-4)

    def test_thermo_sources(self, thermo14):
        x = thermo14.y_nodes
        alpha = 2.0

        class Snap:
            r = alpha * x
            rho = alpha**-3 * thermo14.rho_bar
            u = 20.0 * x
            theta_abs = thermo14.theta_bar / alpha

        res = F.physical_energy(Snap, c_nu=3.0)
        assert res.D < 1e-10
        # theta_abs makes the snapshot thermodynamic: the internal term is c_nu int r^2 rho theta
        internal = res.E - F.physical_energy(Snap, c_nu=0.0).E
        assert internal == pytest.approx(
            3.0 * np.trapezoid(Snap.r**2 * Snap.rho * Snap.theta_abs, Snap.r), rel=1e-9)


class TestPerturbationEnergy:
    def test_zero_field(self, iso_ss):
        x = iso_ss.y_nodes
        xm = 0.5 * (x[:-1] + x[1:])
        E, D = F.perturbation_energy_ss(x, 0 * x, 0 * x, x**4 * iso_ss.rho_bar,
                                        xm**2 * iso_ss.rho43_at(xm), 1.0,
                                        iso_ss.delta, 0.0)
        assert E == 0.0 and D == 0.0

    def test_x_independent_dissipation_free(self, iso_ss):
        x = iso_ss.y_nodes
        xm = 0.5 * (x[:-1] + x[1:])
        _, D = F.perturbation_energy_ss(x, np.full_like(x, 0.3),
                                        np.full_like(x, -0.2),
                                        x**4 * iso_ss.rho_bar,
                                        xm**2 * iso_ss.rho43_at(xm), 1.0,
                                        iso_ss.delta, 0.5)
        assert D == 0.0

    def test_identity_under_refinement(self, iso_ss, pars_ss):
        # finite-difference dE/ds + alpha^{3/2} D -> 0 under simultaneous
        # space/time refinement
        resid = []
        for n in (48, 96, 192):
            x = np.linspace(0.0, iso_ss.R0, n + 1)
            c, w = 0.45 * iso_ss.R0, 0.25 * iso_ss.R0
            phi0 = 1e-2 * np.where(np.abs(x - c) < w,
                                   0.5 * (1 + np.cos(np.pi * (x - c) / w)), 0.0)
            dt = 0.2 * iso_ss.R0 / n
            spec = SolverSpec(n_cells=n, dt_init=dt, dt_max=dt, cfl=0.95,
                              n_emit=3, growth_threshold=1.0)
            run = evolve_self_similar(iso_ss, pars_ss, (phi0, 0 * phi0), 0.4, spec, energy=True)
            dE = np.gradient(run.energy, run.times)
            ab32 = (pars_ss.a0 * np.exp(pars_ss.b * run.times)) ** 1.5
            resid.append(np.max(np.abs(dE + ab32 * run.dissipation))
                         / max(np.max(np.abs(dE)), 1e-300))
        assert resid[2] < 0.6 * resid[1] < 0.6**2 / 0.5 * resid[0]


class TestRelativeEntropy:
    """G_x for G = log[(1+h)^2 (1+h+x h_x)], as the isentropic ledger computes it."""

    def test_zero(self):
        x = np.linspace(0.0, 1.0, 101)
        z = np.zeros_like(x)
        assert np.max(np.abs(F._entropy_grad(x, z, z, z))) == 0.0

    def test_constant(self):
        # G = 3 ln(1 + h) is constant in x
        x = np.linspace(0.0, 1.0, 101)
        z = np.zeros_like(x)
        assert np.max(np.abs(F._entropy_grad(x, np.full_like(x, 0.1), z, z))) == 0.0

    def test_derivative_of_the_entropy(self):
        # h = 0.1 + 0.05 x^2: G_x against a central difference of G itself
        x = np.linspace(0.0, 1.0, 2001)
        h, h_x, h_xx = 0.1 + 0.05 * x**2, 0.1 * x, np.full_like(x, 0.1)
        G = np.log((1.0 + h) ** 2 * (1.0 + h + x * h_x))
        fd = (G[2:] - G[:-2]) / (x[2:] - x[:-2])
        assert np.max(np.abs(F._entropy_grad(x, h, h_x, h_xx)[1:-1] - fd)) < 1e-6

    @given(coefs=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=6))
    def test_frak_A_identity(self, coefs):
        # int (4 h_x + x h_xx)^2 = 12 int h_x^2 + int x^2 h_xx^2 + 4 R0 h_x(R0)^2, R0 = 1
        c = np.array(coefs)
        lhs, rhs = F.frak_A_inequality(c)
        assert lhs >= rhs - 1e-10
        h_x1 = float(c @ np.arange(len(c)))
        assert abs(lhs - rhs - 4.0 * h_x1**2) <= 1e-12 * lhs + 1e-300

    def test_frak_A_family_is_its_fields(self):
        # one row per polynomial gives arrays with each polynomial's bits
        coef = np.random.default_rng(3).uniform(-1.0, 1.0, (7, 6))
        lhs, rhs = F.frak_A_inequality(coef)
        one = [F.frak_A_inequality(c) for c in coef]
        assert all(isinstance(v, float) for v in one[0])
        assert lhs.tolist() == [v[0] for v in one] and rhs.tolist() == [v[1] for v in one]


class TestAmplitude:
    def test_zero(self):
        x = np.linspace(0.0, 2.0, 65)
        f = PerturbationField(x, 0 * x, 0 * x, None, 0.0, LINEAR_REGIME)
        assert F.amplitude(f) == 0.0

    def test_constant_field(self):
        x = np.linspace(0.0, 2.0, 65)
        f = PerturbationField(x, np.full_like(x, -0.3), 0 * x, None, 0.0, LINEAR_REGIME)
        assert F.amplitude(f) == pytest.approx(0.3)

    def test_zeta_over_sigma(self):
        x = np.linspace(0.0, 2.0, 401)
        R0 = x[-1]
        g = 0.5 + 0.4 * np.cos(np.pi * x / R0)
        zeta = (R0 - x) * g
        f = PerturbationField(x, 0 * x, 0 * x, None, 0.0, THERMO_REGIME, zeta)
        assert F.amplitude(f) == pytest.approx(np.max(np.abs(g)), rel=1e-2)


def four_term_amplitude(field):
    """The amplitude as four separate sup-norms and a Python max, the form it replaced."""
    x = field.x_nodes
    th, th_t = field.theta, field.theta_t
    st = F.gradient_stencil(x) if field.background is None else field.background.require_grid(x)
    vals = [np.max(np.abs(th)), np.max(np.abs(x * F.gradient(th, st))),
            np.max(np.abs(th_t)), np.max(np.abs(x * F.gradient(th_t, st)))]
    if field.zeta is not None:
        ratio = np.abs(field.zeta[:-1]) / (x[-1] - x)[:-1]
        boundary = abs(field.zeta[-1] - field.zeta[-2]) / (x[-1] - x[-2])
        vals.append(max(float(np.max(ratio)), float(boundary)))
    return float(max(vals))


class TestAmplitudeOnePass:
    """One max over the stacked (theta, theta_t) gives the four-term value bit for bit."""

    def fields(self, x, regime=LINEAR_REGIME):
        rng = np.random.default_rng(5)
        for _ in range(4):
            th, th_t = 1e-2 * rng.standard_normal((2, x.size))
            zeta = 1e-3 * rng.standard_normal(x.size) if regime == THERMO_REGIME else None
            if zeta is not None:
                zeta[-1] = 0.0
            yield PerturbationField(x, th, th_t, None, 0.0, regime, zeta)

    def test_exactly_uniform_grid(self):
        x = np.linspace(0.0, 1.0, 65)
        assert not isinstance(F.gradient_stencil(x)[0], tuple)
        for f in self.fields(x):
            assert F.amplitude(f) == four_term_amplitude(f)

    def test_non_uniform_grid(self, iso_ss):
        x = np.linspace(0.0, iso_ss.R0, 193)
        assert isinstance(F.gradient_stencil(x)[0], tuple)
        for f in self.fields(x):
            assert F.amplitude(f) == four_term_amplitude(f)

    def test_thermo_field_with_zeta(self, thermo14):
        x = np.linspace(0.0, thermo14.R0, 65)
        for f in self.fields(x, THERMO_REGIME):
            assert F.amplitude(f) == four_term_amplitude(f)
        xi0 = 1e-3 * (0.7 + 0.3 * np.cos(np.pi * x / thermo14.R0))
        zeta0 = 1e-3 * (thermo14.R0 - x) * x / thermo14.R0**2
        run = evolve_linear_thermo(thermo14, classify_expansion(0.0, 1.0, 20.0),
                                   (xi0, 0.1 * xi0, zeta0), 0.2, SolverSpec(n_cells=64, n_emit=3))
        for snap in run.snapshots:
            assert snap.background is not None
            assert F.amplitude(snap) == four_term_amplitude(snap)

    def test_nan_propagates(self):
        # the four-term Python max returned the finite theta term here
        x = np.linspace(0.0, 1.0, 65)
        th_t = np.zeros_like(x)
        th_t[7] = np.nan
        f = PerturbationField(x, np.full_like(x, 0.2), th_t, None, 0.0, LINEAR_REGIME)
        assert four_term_amplitude(f) == 0.2
        assert np.isnan(F.amplitude(f))


class TestStackedTrapezoid:
    """`_trapz` on a (k, N+1) stack gives each row's 1-d value bit for bit."""

    @staticmethod
    def assert_rows_match(rows, x):
        stacked = F._trapz(rows, x)
        assert stacked.shape == (len(rows),)
        assert stacked.tolist() == [F._trapz(row, x) for row in rows]

    @pytest.mark.parametrize("n", [128, 1024])
    def test_uniform_solver_grid(self, iso0, n):
        x = np.linspace(0.0, iso0.R0, n + 1)
        bg = sample_background(iso0, x)
        th = 1e-3 * np.random.default_rng(2).standard_normal((4, x.size))
        self.assert_rows_match(np.array([*th, x**4 * bg.rho * th[1]**2, bg.rho43 * th[2]**2,
                                         bg.chi * (th[0]**2 + x**2 * th[3]**2)]), x)

    def test_nonuniform_eulerian_grid(self, iso0):
        x = np.linspace(0.0, iso0.R0, 129)
        th0 = 1e-2 * np.cos(np.pi * x / iso0.R0)
        run = evolve_linear_isentropic(iso0, classify_expansion(0.0, 1.0, 1.0), (th0, 0.3 * th0),
                                       0.5, SolverSpec(n_cells=128, n_emit=2))
        snap = reconstruct_eulerian(run.final, run.alpha_clock)
        r, rho, u = snap.r, snap.rho, snap.u
        assert isinstance(F.gradient_stencil(r)[0], tuple)     # not exactly uniform
        self.assert_rows_match(np.array([r**2 * rho * u**2, r**2 * rho ** (4.0 / 3.0), rho, u,
                                         -u, 1e-300 * rho]), r)


class TestScalingProperties:
    @given(c=st.floats(-3.0, 3.0))
    def test_amplitude_is_absolutely_homogeneous(self, c):
        x = np.linspace(0.0, 5.0, 129)
        base = np.cos(np.pi * x / 5.0) * 1e-2
        f1 = PerturbationField(x, base, 0.5 * base, None, 0.0, LINEAR_REGIME)
        f2 = PerturbationField(x, c * base, 0.5 * c * base, None, 0.0, LINEAR_REGIME)
        assert F.amplitude(f2) == pytest.approx(abs(c) * F.amplitude(f1), rel=1e-12,
                                                abs=1e-15)

    @given(k=st.floats(1.1, 6.0), scale=st.floats(0.1, 10.0))
    def test_hardy_ratio_scale_invariant(self, k, scale):
        g = np.array([0.3, 1.0, 0.2])
        l1, r1, ratio1 = F.hardy_check(k, g)
        l2, r2, ratio2 = F.hardy_check(k, scale * g)
        assert l1 >= 0 and r1 > 0
        assert ratio2 == pytest.approx(ratio1, rel=1e-9)


class TestHardy:
    def test_zero(self):
        assert F.hardy_check(2.0, np.zeros(6)) == (0.0, 0.0, 0.0)

    def test_linear_closed_form(self):
        lhs, rhs, ratio = F.hardy_check(2.0, [0.0, 1.0])
        assert lhs == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert rhs == pytest.approx(8.0 / 15.0, abs=1e-15)
        assert ratio == pytest.approx(5.0 / 8.0, abs=1e-15)

    def test_k_below_one_subtracts_trace(self):
        lhs, rhs, _ = F.hardy_check(0.5, [2.0, 0.0, 1.0])
        # lhs = int s^{-3/2} s^4 = 2/7; rhs = int s^{1/2} 4 s^2 = 8/7
        assert lhs == pytest.approx(2.0 / 7.0, abs=1e-15)
        assert rhs == pytest.approx(8.0 / 7.0, abs=1e-15)

    def test_divergent_side_is_inf(self):
        # k = -1: int s^{-3} (s + s^2)^2 and int s^{-1} (1 + 2s)^2 diverge at s = 0
        lhs, rhs, _ = F.hardy_check(-1.0, [0.0, 1.0, 1.0])
        assert lhs == rhs == np.inf
        # g'(0) = 0: int s^{-3} s^4 = 1/2 and int s^{-1} 4 s^2 = 2
        assert F.hardy_check(-1.0, [0.0, 0.0, 1.0]) == (0.5, 2.0, 0.25)

    @pytest.mark.parametrize("k", [2.0, 0.5, -1.0])
    def test_family_along_last_axis_matches_each_function(self, k):
        # one row per polynomial gives arrays with each polynomial's bits
        coef = np.random.default_rng(3).uniform(-1.0, 1.0, (7, 6))
        coef[:, 1] = 0.0
        coef[0] = 0.0                    # a zero function: ratio 0
        lhs, rhs, ratio = F.hardy_check(k, coef)
        assert [F.hardy_check(k, g) for g in coef] == list(zip(lhs, rhs, ratio))

    def test_k_equals_one(self):
        with pytest.raises(KEqualsOne):
            F.hardy_check(1.0, np.zeros(3))


class TestWeights:
    def test_defaults_admissible(self):
        w = F.WeightSpec()
        assert w.violations() == []
        assert (w.r1, w.r2, w.l1, w.l2, w.frak_r, w.r3) == (0.5, -0.5, -2.5, -2.0, -1.5, -2.5)

    def test_a_range_named(self):
        bad = F.WeightSpec(a=1.5)
        assert "0 < a < 1" in bad.violations()
        with pytest.raises(WeightViolation):
            bad.validate()

    def test_l2_forced(self):
        assert any("l2" in v for v in F.WeightSpec(l2=-1.0).violations())

    def test_chi_properties(self):
        R0 = 13.8
        x = np.linspace(0.0, R0, 4001)
        chi = F.chi_cutoff(x, R0)
        assert np.all(chi[x <= R0 / 2] == 1.0)
        assert np.all(chi[x >= 3 * R0 / 4] == 0.0)
        chip = np.diff(chi) / np.diff(x)      # chi' on each cell
        assert np.all(chip <= 0.0)
        assert np.all(chip >= -4.0)


class TestLedger:
    def test_zero_series(self, iso0):
        # the unperturbed star stays exactly unperturbed, and so does its ledger
        z = np.zeros(33)
        run = evolve_linear_isentropic(iso0, classify_expansion(0.0, 1.0, 1.0), (z, z), 1.0,
                                       SolverSpec(n_cells=32, n_emit=3), weights=F.WeightSpec())
        reports = F.total_energy_ledger(run)
        assert [rep.clock for rep in reports] == pytest.approx([0.0, 0.5, 1.0])
        for rep in reports:
            assert all(v == 0.0 for v in rep.ledger.values())
            assert rep.total_E == 0.0 and rep.total_D == 0.0 and rep.E0 == 0.0

    def test_totals_fold_left_to_right(self, iso0, monkeypatch):
        # the totals add their terms left to right from 0.0 on every Python: 3.12's
        # compensated sum() gives 2.0 on these terms, and 0.0 + -0.0 is 0.0
        import dataclasses
        import math
        z = np.zeros(33)
        run = evolve_linear_isentropic(iso0, classify_expansion(0.0, 1.0, 1.0), (z, z), 1.0,
                                       SolverSpec(n_cells=32, n_emit=2), weights=F.WeightSpec())
        cases = [[1e16, 1.0, -1e16, 1.0], [-0.0, -0.0]]
        for vals, total in zip(cases, [1.0, 0.0]):
            terms = {f"E{k}": v for k, v in enumerate(vals)}
            monkeypatch.setattr(F, "_ledger", lambda block, clock: (    # one row per snapshot
                lambda *a: {k: [v] * len(block) for k, v in terms.items()}, None, None))
            online = {f"D{k}": np.array([v, v]) for k, v in enumerate(vals)}
            for rep in F.total_energy_ledger(dataclasses.replace(run, dissipation_online=online)):
                for got in (rep.total_E, rep.total_D):
                    assert got == total and math.copysign(1.0, got) == 1.0

    def test_run_without_weights_has_no_ledger(self, iso0):
        z = np.zeros(33)
        run = evolve_linear_isentropic(iso0, classify_expansion(0.0, 1.0, 1.0), (z, z), 0.1,
                                       SolverSpec(n_cells=32, n_emit=2))
        assert run.weights is None and run.dissipation_online is None
        with pytest.raises(MissingDerivative, match="weights"):
            F.total_energy_ledger(run)

    def test_weights_checked_before_the_first_step(self, iso0):
        z = np.zeros(33)
        with pytest.raises(WeightViolation, match="0 < a < 1"):
            evolve_linear_isentropic(iso0, classify_expansion(0.0, 1.0, 1.0), (z, z), 0.1,
                                     SolverSpec(n_cells=32), weights=F.WeightSpec(a=1.5))

    def test_missing_derivative(self, iso0):
        x = iso0.y_nodes[::4]
        z = 0 * x
        f = PerturbationField(x, z, z, None, 0.0, LINEAR_REGIME)
        with pytest.raises(MissingDerivative):
            F.ledger_terms_isentropic(f, sample_background(iso0, x), F.WeightSpec(), 1.0)

    def test_initial_energy_positive(self, iso0):
        x = np.linspace(0.0, iso0.R0, 97)
        th0 = 1e-3 * np.cos(np.pi * x / iso0.R0)
        th1 = 0 * x
        th2 = 0 * x
        E0 = F.initial_energy_isentropic(x, th0, th1, th2, sample_background(iso0, x))
        assert E0 > 0

    def test_amplitude_bounded_by_ledger(self, iso0):
        # omega^2 <= C (ledger total + E0) along a stable run, with the
        # fitted C stable under grid refinement
        pars = classify_expansion(0.0, 1.0, 1.0)
        weights = F.WeightSpec()
        Cs = []
        for n in (64, 128):
            x = np.linspace(0.0, iso0.R0, n + 1)
            th0 = 1e-3 * (0.5 + 0.5 * np.cos(np.pi * x / iso0.R0))
            th1 = 0 * x
            run = evolve_linear_isentropic(iso0, pars, (th0, th1), 3.0,
                                           SolverSpec(n_cells=n, n_emit=13), weights=weights)
            reports = F.total_energy_ledger(run)
            Cs.append(max(r.omega**2 / (r.total_E + r.E0) for r in reports))
        assert Cs[1] == pytest.approx(Cs[0], rel=0.5)
