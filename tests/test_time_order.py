"""Observed time orders: both isentropic schemes on the growth crossing, and the thermo run.

The run is criterion 9's at seed 7: negative-energy data on the self-similar
star, stepped until the amplitude passes 0.1.  The growth event keeps the last
accepted clock and carries the located crossing: the clock at which ln omega,
linear between the last two accepted steps, crosses ln 0.1.  The crossing has
no forcing term and no event quantization, so it converges cleanly in dt.
Halving the CFL number halves dt, and successive differences of the crossing
shrink by 2^p at observed order p.

The thermodynamic run takes one step per emission, so doubling `n_emit`
halves dt there; its order is read from theta at the mid node.
"""

import math

import numpy as np
import pytest

from starlab import classify_expansion
from starlab.lagrangian import SolverSpec, _located_crossing, evolve_linear_thermo


@pytest.fixture(scope="module")
def growth(c09_runs):
    return lambda order, n_cells, cfl: c09_runs((7,), n_cells, order, cfl)[2][0]


def crossing(run) -> float:
    (event,) = run.events
    assert event.kind == "growth"
    return event.crossing


def observed_orders(crossings):
    diffs = np.abs(np.diff(crossings))
    return np.log2(diffs[:-1] / diffs[1:])


@pytest.mark.parametrize("cfl", [1.0, 0.25])
def test_crossing_lies_between_the_last_two_steps(growth, cfl):
    run = growth(2, 192, cfl)
    (event,) = run.events
    assert event.clock == run.times[-1]          # a stop keeps the last accepted clock
    assert run.times[-2] <= event.crossing <= run.times[-1]


def test_crossing_agrees_across_cfl(growth):
    # measured 67.14198 at CFL 1 and 67.14187 at CFL 0.25
    assert abs(crossing(growth(2, 192, 1.0)) - crossing(growth(2, 192, 0.25))) < 1e-3


def test_imex_euler_is_first_order(growth):
    # N = 48 over CFL 1 .. 1/8: measured 1.08 and 0.99
    orders = observed_orders([crossing(growth(1, 48, cfl)) for cfl in (1.0, 0.5, 0.25, 0.125)])
    assert np.all((0.9 <= orders) & (orders <= 1.2)), orders


def test_imex_midpoint_is_second_order(growth):
    # N = 192 over CFL 1 .. 1/4: measured 1.98; below CFL 1/4 the differences
    # reach a floor near 1e-5, so only the coarse pairs measure the order
    (order,) = observed_orders([crossing(growth(2, 192, cfl)) for cfl in (1.0, 0.5, 0.25)])
    assert order >= 1.7


def test_thermo_imex_euler_is_first_order(thermo14):
    # c10's star and expansion, N = 64 to clock 0.5: measured 1.16, 1.09 and 1.05
    params = classify_expansion(0.0, 1.0, 20.0)
    n, R0 = 64, thermo14.R0
    x = np.linspace(0.0, R0, n + 1)
    xi0 = 1e-3 * (0.7 + 0.3 * np.cos(np.pi * x / R0))
    zeta0 = 1e-3 * (R0 - x) * x / R0**2
    mid = [evolve_linear_thermo(thermo14, params, (xi0, 0.1 * xi0, zeta0), 0.5,
                                SolverSpec(n_cells=n, n_emit=n_emit)).snapshots[-1].theta[n // 2]
           for n_emit in (41, 81, 161, 321, 641)]
    orders = observed_orders(mid)
    assert np.all((0.9 <= orders) & (orders <= 1.2)), orders


def test_crossing_interpolates_ln_omega():
    assert _located_crossing(2.0, 4.0, 0.01, 1.0, 0.1) == pytest.approx(3.0, rel=1e-15)
    # zero previous amplitude has no logarithm: the accepted clock
    assert _located_crossing(2.0, 4.0, 0.0, 1.0, 0.1) == 4.0
    # data already past the threshold crossed it at or before the previous step
    assert _located_crossing(2.0, 4.0, 0.2, 1.0, 0.1) == 2.0
    assert _located_crossing(2.0, 4.0, 0.05, math.inf, 0.1) == 2.0
