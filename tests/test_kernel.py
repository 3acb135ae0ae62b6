"""Step-kernel building blocks against their numpy and scipy reference routines.

The gradient stencil must reproduce `np.gradient(u, x, edge_order=2)` and the
tridiagonal solve `scipy.linalg.solve_banded` bit for bit, since the solver's
outputs are pinned to the bits those routines produced.  The kernel's own
energy and dissipation probe is checked against the viscous matrix it solves
with and against `functionals.perturbation_energy_ss`.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from starlab.functionals import gradient, gradient_stencil, perturbation_energy_ss
from starlab.kernel import _OVERDAMPED_RATIO, _cap_overdamped, _Kernel, _solve_tridiag
from starlab.lagrangian import SolverSpec, evolve_self_similar
from starlab.profiles import sample_background


def reference_gradient(u, x):
    return np.gradient(u, x, edge_order=2)


class TestGradientStencil:
    def check(self, x, seed=0):
        rng = np.random.default_rng(seed)
        st = gradient_stencil(x)
        for u in (rng.standard_normal(x.size), np.sin(3.0 * x) + x**2, x**3):
            assert np.array_equal(gradient(u, st), reference_gradient(u, x))
        return st

    def test_solver_grid(self, iso_ss):
        # linspace to an irrational R0 is not exactly uniform: numpy's general branch
        x = np.linspace(0.0, iso_ss.R0, 193)
        assert isinstance(self.check(x)[0], tuple)

    def test_exactly_uniform_grid(self):
        x = np.linspace(0.0, 1.0, 65)
        assert self.check(x)[0] == 2.0 / 64

    def test_eulerian_grid(self, iso_ss, pars_ss):
        from starlab.acceptance import negative_energy_data
        from starlab.lagrangian import reconstruct_eulerian
        n = 64
        x = np.linspace(0.0, iso_ss.R0, n + 1)
        phi0, phi1 = negative_energy_data(iso_ss, pars_ss.delta, x, 1e-2, 3)
        run = evolve_self_similar(iso_ss, pars_ss, (phi0, phi1), 0.5,
                                  SolverSpec(n_cells=n, n_emit=2, growth_threshold=1.0))
        r = reconstruct_eulerian(run.final, run.alpha_clock).r
        self.check(r, seed=1)

    def test_background_carries_the_stencil_of_its_grid(self, iso0):
        x = np.linspace(0.0, iso0.R0, 97)
        bg = sample_background(iso0, x)
        u = np.cos(x)
        assert np.array_equal(gradient(u, bg.grad), reference_gradient(u, x))
        assert bg.require_grid(bg.x) is bg.grad


GRIDS = {"uniform": lambda R0: np.arange(65) / 8.0,
         "non-uniform": lambda R0: np.linspace(0.0, R0, 65)}


@pytest.mark.parametrize("grid", GRIDS)
class TestLayouts:
    """A batch's rows, and stacked batches, have the bits of one-row calls and of numpy."""

    def states(self, x, shape, seed=2, scale=1e-2):
        rng = np.random.default_rng(seed)
        return scale * rng.standard_normal(shape + (x.size,)) * (1.0 + x)

    def test_gradient_is_numpy_in_every_layout(self, grid, iso_ss):
        x = GRIDS[grid](iso_ss.R0)
        st = gradient_stencil(x)
        assert isinstance(st[0], tuple) == (grid == "non-uniform")
        for shape in ((), (3,), (2, 3)):
            u = self.states(x, shape)
            ref = np.gradient(u, x, edge_order=2, axis=-1)
            assert np.array_equal(gradient(u, st), ref)
            out = np.full(u.shape, np.nan)
            assert gradient(u, st, out=out) is out and np.array_equal(out, ref)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_gradient_on_short_grids(self, grid, n):
        x = np.linspace(0.0, 1.0, n) if grid == "uniform" else np.sqrt(np.linspace(0.0, 1.0, n))
        u = self.states(x, (2,))
        assert np.array_equal(gradient(u, gradient_stencil(x)),
                              np.gradient(u, x, edge_order=2, axis=-1))

    def test_probes_of_a_batch_are_each_rows(self, grid, iso_ss):
        from starlab.functionals import _amplitude, _energy_ss
        x = GRIDS[grid](iso_ss.R0)
        bg = sample_background(iso_ss, x)
        clock = SimpleNamespace(params=SimpleNamespace(delta=-1e-3))    # all the kernel reads
        kernel = _Kernel(bg, clock, 1.0)
        f, v = self.states(x, (3,), scale=1e-4), self.states(x, (3,), seed=3)
        spacing, rho4 = x[1:] - x[:-1], x**4 * kernel.rho
        w = (x[1] - x[0]) * (bg.xm**2 * bg.rho43_m)
        b = np.sqrt(2e-3)
        batch = _energy_ss(spacing, bg.xm, v, kernel.edge_geometry(f), rho4, w, b, -1e-3)
        rows = [_energy_ss(spacing, bg.xm, vi, kernel.edge_geometry(fi), rho4, w, b, -1e-3)
                for fi, vi in zip(f, v)]
        assert batch == tuple(list(col) for col in zip(*[(E, D) for (E,), (D,) in rows]))
        omega = _amplitude(x, bg.grad, f, v)
        assert omega.tolist() == [float(_amplitude(x, bg.grad, fi, vi)) for fi, vi in zip(f, v)]


class TestInPlaceRule:
    """Kernel methods overwrite only their own temporaries: geometry and states stay intact."""

    @pytest.mark.parametrize("regime", ["self-similar", "thermo"])
    def test_geometry_and_states_unchanged(self, regime, iso_ss, pars_ss, thermo14):
        from starlab import classify_expansion
        from starlab.functionals import _amplitude, _energy_ss
        from starlab.expansion import AlphaClock
        from starlab.lagrangian import SELF_SIMILAR_REGIME, THERMO_REGIME
        thermo = regime == "thermo"
        prof, params = ((thermo14, classify_expansion(0.0, 1.0, 20.0)) if thermo
                        else (iso_ss, pars_ss))
        clock = AlphaClock(params, THERMO_REGIME if thermo else SELF_SIMILAR_REGIME)
        x = np.linspace(0.0, prof.R0, 65)
        kernel = _Kernel(sample_background(prof, x), clock, 1.0)
        rng = np.random.default_rng(4)
        f, v, z = (1e-3 * rng.standard_normal((2, x.size)) for _ in range(3))
        z[:, -1] = 0.0
        for state in ((f, v, z), (f[0], v[0], z[0])):
            geom = kernel.edge_geometry(state[0])
            before = [a.copy() for a in (*state, *geom)]
            zeta = state[2] if thermo else None
            coef = clock.coefficients(0.1)
            kernel.solve_velocity(geom, state[1], 0.01, coef, zeta=zeta, weight=0.5)
            kernel.wave_speed2(geom, zeta=zeta)
            kernel.check_geometry(geom)
            _amplitude(x, kernel.bg.grad, state[0], state[1], zeta)
            if thermo:
                kernel.temperature_step(state[0], geom, *state[1:], 0.01, [0.1] * state[0].ndim)
            else:
                _energy_ss(x[1:] - x[:-1], kernel.bg.xm, state[1], geom, x**4 * kernel.rho,
                           kernel.dx * kernel.bg.xm**2 * kernel.bg.rho43_m, params.b, -1e-3)
            assert all(np.array_equal(a, b) for a, b in zip(before, (*state, *geom)))


def random_system(n, seed, rows=()):
    """Diagonally dominant symmetric tridiagonal systems as (diag, off, rhs)."""
    rng = np.random.default_rng(seed)
    off = rng.standard_normal(rows + (n - 1,))
    pad = np.zeros(rows + (1,))
    diag = 2.5 + rng.random(rows + (n,)) + np.abs(np.concatenate([off, pad], -1)) \
        + np.abs(np.concatenate([pad, off], -1))
    diag *= rng.choice([-1.0, 1.0], rows + (n,))
    return diag, off, rng.standard_normal(rows + (n,))


def banded(diag, off):
    return np.array([np.concatenate([[0.0], off]), diag, np.concatenate([off, [0.0]])])


class TestSolveTridiag:
    """One symmetric solve, `_solve_tridiag(diag, off, rhs)`, for a system or a stack of them."""

    @pytest.mark.parametrize("n, seed", [(3, 0), (17, 1), (193, 2), (193, 3), (769, 4)])
    def test_bit_identical_to_solve_banded(self, n, seed):
        diag, off, rhs = random_system(n, seed)
        ref = solve_banded((1, 1), banded(diag, off), rhs)
        assert np.array_equal(_solve_tridiag(diag, off, rhs), ref)

    @pytest.mark.parametrize("n", [3, 65])
    def test_batch_rows_are_their_own_solves(self, n):
        diag, off, rhs = random_system(n, 7, rows=(4,))
        x = _solve_tridiag(diag, off, rhs)
        assert x.shape == diag.shape
        for i in range(4):
            assert np.array_equal(x[i], _solve_tridiag(diag[i], off[i], rhs[i]))

    def test_singular_system(self):
        diag = np.array([1.0, 0.0, 1.0, 1.0])
        with pytest.raises(LinAlgError, match="singular"):
            _solve_tridiag(diag, np.zeros(3), np.ones(4))
        with pytest.raises(LinAlgError, match="singular"):
            _solve_tridiag(np.array([np.ones(4), diag]), np.zeros((2, 3)), np.ones((2, 4)))

    @pytest.mark.parametrize("which", range(4))
    def test_non_finite_input(self, which):
        # a non-finite block solves to NaN, a step's failed attempt, in both layouts
        batch = random_system(9, 5, rows=(3,))
        args = [a.copy() for a in batch]
        args[min(which, 2)][1, 1] = np.nan if which == 3 else np.inf
        assert np.isnan(_solve_tridiag(*(a[1] for a in args))).all()
        x = _solve_tridiag(*args)
        assert np.isnan(x[1]).all()
        for i in (0, 2):
            assert np.array_equal(x[i], _solve_tridiag(*(a[i] for a in batch)))

    def test_inputs_unmodified(self):
        for rows in ((), (3,)):
            args = random_system(33, 6, rows)
            before = [a.copy() for a in args]
            x = _solve_tridiag(*args)
            for a, b in zip(args, before):
                assert np.array_equal(a, b)
            assert not any(np.shares_memory(x, a) for a in args)


class TestCapOverdamped:
    """Each row's viscous factor saturates at 1e12 times its largest inertial row over max K."""

    K_diag = np.array([4.0, 1.0, 8.0, 2.0, 0.5])
    cap = _OVERDAMPED_RATIO * 3.0 / 8.0          # largest inertial row 3

    def test_uncapped_returns_visc_itself(self):
        visc = 0.5 * self.cap
        assert _cap_overdamped(visc, 3.0, self.K_diag) is visc
        column = np.array([[visc], [1.0]])
        out = _cap_overdamped(column, np.array([[3.0], [6.0]]), np.array([self.K_diag] * 2))
        assert out is column

    def test_capped_row_gets_cap_over_k_max(self):
        assert _cap_overdamped(2.0 * self.cap, 3.0, self.K_diag) == self.cap
        column = np.array([[2.0 * self.cap], [1.0], [1e30]])
        mass_max = np.array([[3.0], [3.0], [0.0]])        # a massless row keeps its factor
        out = _cap_overdamped(column, mass_max, np.array([self.K_diag] * 3))
        assert out.tolist() == [[self.cap], [1.0], [1e30]]


class TestKernelEnergy:
    """On c09's seed-7 run to its growth event."""

    def test_dissipation_nonnegative_at_every_step(self, c09_runs):
        _, _, (run,) = c09_runs((7,), energy=True)
        assert run.dissipation.size == run.times.size
        assert np.min(run.dissipation) >= 0.0

    def test_dissipation_is_the_quadratic_form_of_K(self, c09_runs):
        # v^T K v sums terms of size g (a v)^2 that cancel as the motion turns
        # uniform; the run's Gram-factor sum does not, so the two agree to
        # 1e-12 of that size (and of D itself on the inhomogeneous initial data)
        _, _, (run,) = c09_runs((7,), energy=True)
        kernel = _Kernel(run.background, run.alpha_clock, 1.0)
        index = {t: i for i, t in enumerate(run.times)}
        for snap in run.snapshots:
            geom = kernel.edge_geometry(snap.theta)
            v = snap.theta_t
            quad = v @ kernel.apply_viscous(kernel.viscous_matrix(geom), v)
            g, a, b = geom.g, geom.a, geom.b
            size = float(g @ (np.abs(a * v[1:]) + np.abs(b * v[:-1])) ** 2)
            D = run.dissipation[index[snap.clock]]
            assert abs(D - quad) <= 1e-12 * size
            if snap.clock == 0.0:
                assert D == pytest.approx(quad, rel=1e-12, abs=0.0)

    def test_initial_energy_is_the_public_formula(self, c09_runs):
        ((phi0, phi1),), _, (run,) = c09_runs((7,), energy=True)
        bg, p = run.background, run.alpha_clock.params
        E0, D0 = perturbation_energy_ss(bg.x, phi0, phi1, bg.x**4 * bg.rho,
                                        bg.xm**2 * bg.rho43_m, p.a0, p.delta, 0.0)
        assert E0 < 0.0 < D0
        assert run.energy[0] == E0          # one geometry builder: equal by construction
        assert run.dissipation[0] == D0
