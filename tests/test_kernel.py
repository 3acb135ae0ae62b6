"""Step-kernel building blocks against their numpy and scipy reference routines.

The gradient stencil must reproduce `np.gradient(u, x, edge_order=2)` and the
tridiagonal solve `scipy.linalg.solve_banded` bit for bit, since the solver's
outputs are pinned to the bits those routines produced.
"""

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from starlab.functionals import gradient, gradient_stencil
from starlab.lagrangian import SolverSpec, _solve_tridiag, evolve_self_similar
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
