"""Step-kernel building blocks against their numpy and scipy reference routines.

The gradient stencil must reproduce `np.gradient(u, x, edge_order=2)` and the
tridiagonal solve `scipy.linalg.solve_banded` bit for bit, since the solver's
outputs are pinned to the bits those routines produced.  The kernel's own
energy and dissipation probe is checked against the viscous matrix it solves
with and against `functionals.perturbation_energy_ss`.
"""

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from starlab.functionals import (_gram_factors, gradient, gradient_stencil,
                                 perturbation_energy_ss)
from starlab.kernel import _Kernel, _solve_tridiag
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


def random_system(n, seed):
    """A diagonally dominant tridiagonal system as (diag, upper, lower, rhs)."""
    rng = np.random.default_rng(seed)
    upper = rng.standard_normal(n - 1)
    lower = rng.standard_normal(n - 1)
    diag = 2.5 + rng.random(n) + np.abs(np.concatenate([upper, [0.0]])) \
        + np.abs(np.concatenate([[0.0], lower]))
    diag *= rng.choice([-1.0, 1.0], n)
    return diag, upper, lower, rng.standard_normal(n)


def banded(diag, upper, lower):
    return np.array([np.concatenate([[0.0], upper]), diag, np.concatenate([lower, [0.0]])])


class TestSolveTridiag:
    @pytest.mark.parametrize("n, seed", [(3, 0), (17, 1), (193, 2), (193, 3), (769, 4)])
    def test_bit_identical_to_solve_banded(self, n, seed):
        diag, upper, lower, rhs = random_system(n, seed)
        ref = solve_banded((1, 1), banded(diag, upper, lower), rhs)
        assert np.array_equal(_solve_tridiag(diag, upper, lower, rhs), ref)

    def test_singular_system(self):
        diag = np.array([1.0, 0.0, 1.0, 1.0])
        zero = np.zeros(3)
        with pytest.raises(LinAlgError, match="singular"):
            _solve_tridiag(diag, zero, zero, np.ones(4))

    @pytest.mark.parametrize("which", range(4))
    def test_non_finite_input(self, which):
        args = list(random_system(9, 5))
        args[which] = args[which].copy()
        args[which][1] = np.nan if which == 3 else np.inf
        with pytest.raises(ValueError):
            _solve_tridiag(*args)

    def test_inputs_unmodified(self):
        args = random_system(33, 6)
        before = [a.copy() for a in args]
        x = _solve_tridiag(*args)
        for a, b in zip(args, before):
            assert np.array_equal(a, b)
        assert not any(np.shares_memory(x, a) for a in args)


@pytest.fixture(scope="module")
def growth_run(iso_ss, pars_ss):
    """c09's seed-7 run to its growth event, with its initial data."""
    from starlab.acceptance import negative_energy_data
    x = np.linspace(0.0, iso_ss.R0, 193)
    initial = negative_energy_data(iso_ss, pars_ss.delta, x, 1e-3, 7)
    spec = SolverSpec(n_cells=192, n_emit=40, growth_threshold=0.1)
    return initial, evolve_self_similar(iso_ss, pars_ss, initial, 600.0, spec)


class TestKernelEnergy:
    def test_dissipation_nonnegative_at_every_step(self, growth_run):
        _, run = growth_run
        assert run.dissipation.size == run.times.size
        assert np.min(run.dissipation) >= 0.0

    def test_dissipation_is_the_quadratic_form_of_K(self, growth_run):
        # v^T K v sums terms of size g (a v)^2 that cancel as the motion turns
        # uniform; the run's Gram-factor sum does not, so the two agree to
        # 1e-12 of that size (and of D itself on the inhomogeneous initial data)
        _, run = growth_run
        kernel = _Kernel(run.background, run.alpha_clock, 1.0)
        index = {t: i for i, t in enumerate(run.times)}
        for snap in run.snapshots:
            geom = kernel.edge_geometry(snap.theta)
            v = snap.theta_t
            quad = v @ kernel.apply_viscous(kernel.viscous_matrix(geom), v)
            g, a, b = _gram_factors(geom, kernel.bg.xm, kernel.dx, kernel.gw)
            size = float(g @ (np.abs(a * v[1:]) + np.abs(b * v[:-1])) ** 2)
            D = run.dissipation[index[snap.clock]]
            assert abs(D - quad) <= 1e-12 * size
            if snap.clock == 0.0:
                assert D == pytest.approx(quad, rel=1e-12, abs=0.0)

    def test_initial_energy_is_the_public_formula(self, growth_run):
        (phi0, phi1), run = growth_run
        bg, p = run.background, run.alpha_clock.params
        E0, D0 = perturbation_energy_ss(bg.x, phi0, phi1, bg.x**4 * bg.rho,
                                        bg.xm**2 * bg.rho43_m, p.a0, p.delta, 0.0)
        assert E0 < 0.0 < D0
        assert run.energy[0] == pytest.approx(E0, rel=1e-12, abs=0.0)
        assert run.dissipation[0] == pytest.approx(D0, rel=1e-12, abs=0.0)
