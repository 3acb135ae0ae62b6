"""Every way the stepping driver ends a run early, in each regime.

Each stop leaves the run incomplete with one event, and the last snapshot
holds the last accepted state (the stop clock is the last accepted time) with
its amplitude in `RunResult.omega` and the rates of the step that reached it,
so a stopped ledger run keeps a ledger row for every snapshot.
"""

import numpy as np
import pytest

from starlab import classify_expansion
from starlab.functionals import WeightSpec, amplitude, total_energy_ledger
from starlab.lagrangian import (THERMO_REGIME, SolverSpec, evolve_ensemble,
                                evolve_linear_isentropic, evolve_linear_thermo, evolve_self_similar)
from fingerprints import snapshot_digest

N = 48
# growth never stops these runs and the flow-map bound never rejects a step
NO_LIMITS = dict(n_cells=N, n_emit=5, max_rel_change=1e6, growth_threshold=1e9)
# steps grow by 1.25 until the flow-map bound halves one below the floor
FLOOR = dict(n_cells=N, n_emit=5, dt_init=1e-4, max_rel_change=1e-4, dt_floor=1e-2)


def assert_stopped(run, kind):
    assert [e.kind for e in run.events] == [kind]
    assert run.completed is False
    assert len(run.times) > 2
    assert run.final.clock == run.times[-1]
    assert run.events[0].clock >= run.times[-1]
    assert run.omega.tolist() == [amplitude(s) for s in run.snapshots]
    assert run.final.theta_tt is not None
    assert (run.final.zeta_t is not None) == (run.regime == THERMO_REGIME)


def assert_same_steps_with_ledger(run, ledger_run):
    """The weights move no step, and the stopped run keeps one ledger row per snapshot."""
    assert snapshot_digest(ledger_run) == snapshot_digest(run)
    assert ledger_run.omega.tolist() == run.omega.tolist()
    assert len(total_energy_ledger(ledger_run)) == len(ledger_run.snapshots)


def run_isentropic(regime, iso0, iso_ss, pars_ss, initial, spec, end=1.0, **kw):
    if regime == "self-similar":
        return evolve_self_similar(iso_ss, pars_ss, initial(iso_ss.R0), end, spec, **kw)
    return evolve_linear_isentropic(iso0, classify_expansion(0.0, 1.0, 1.0),
                                    initial(iso0.R0), end, spec, **kw)


def uniform(theta, theta_t):
    return lambda R0: (np.full(N + 1, theta), np.full(N + 1, theta_t))


def compression(rate):
    """theta_t = -rate x / R0: J = 1 + f + x f_x reaches zero at the vacuum."""
    def initial(R0):
        x = np.linspace(0.0, R0, N + 1)
        return np.zeros(N + 1), -rate * x / R0
    return initial


def thermo_initial(theta_t):
    z = np.zeros(N + 1)
    return z, np.full(N + 1, theta_t), z


@pytest.mark.parametrize("regime", ["self-similar", "linear"])
class TestIsentropic:
    def test_cfl_floor(self, regime, iso0, iso_ss, pars_ss):
        run = run_isentropic(regime, iso0, iso_ss, pars_ss, uniform(0.0, 1e-2),
                             SolverSpec(**FLOOR))
        assert_stopped(run, "cfl-floor")
        assert run.events[0].clock == run.times[-1]

    def test_jacobian_degenerate(self, regime, iso0, iso_ss, pars_ss):
        run = run_isentropic(regime, iso0, iso_ss, pars_ss, compression(5.0),
                             SolverSpec(**NO_LIMITS))
        assert_stopped(run, "jacobian-degenerate")
        assert run.events[0].clock == run.times[-1]
        assert run.events[0].detail.startswith("min(1+f, J) = ")
        # the self-similar run asks for E/D/W, the linear one for its ledger
        asked = run_isentropic(regime, iso0, iso_ss, pars_ss, compression(5.0),
                               SolverSpec(**NO_LIMITS),
                               **({"energy": True} if regime == "self-similar"
                                  else {"weights": WeightSpec()}))
        if regime == "self-similar":
            assert snapshot_digest(asked) == snapshot_digest(run)
            assert asked.energy.size == asked.visc_work.size == run.times.size
        else:
            assert_same_steps_with_ledger(run, asked)

    def test_step_failure(self, regime, iso0, iso_ss, pars_ss):
        spec = SolverSpec(n_cells=N, n_emit=5, max_rel_change=1e-30, dt_floor=0.0)
        run = run_isentropic(regime, iso0, iso_ss, pars_ss, uniform(0.0, 1e-2), spec)
        assert [e.kind for e in run.events] == ["step-failure"]
        assert run.completed is False
        assert run.final.clock == run.times[-1] == 0.0


class TestThermo:
    def test_cfl_floor(self, thermo14):
        run = evolve_linear_thermo(thermo14, classify_expansion(0.0, 1.0, 1.0),
                                   thermo_initial(1e-2), 0.5, SolverSpec(**FLOOR))
        assert_stopped(run, "cfl-floor")
        assert run.events[0].clock == run.times[-1]

    def test_jacobian_degenerate(self, thermo14):
        run = evolve_linear_thermo(thermo14, classify_expansion(0.0, 1.0, 1.0),
                                   thermo_initial(-5.0), 0.5,
                                   SolverSpec(**NO_LIMITS))
        assert_stopped(run, "jacobian-degenerate")
        assert run.events[0].clock == run.times[-1]
        assert run.events[0].detail.startswith("min(1+f, J) = ")
        assert_same_steps_with_ledger(run, evolve_linear_thermo(
            thermo14, classify_expansion(0.0, 1.0, 1.0), thermo_initial(-5.0), 0.5,
            SolverSpec(**NO_LIMITS), weights=WeightSpec()))

    def test_temperature_negative(self, thermo14):
        # under weak damping (a1 = 0.1) a fast compression drives the
        # absolute temperature negative within a few steps
        run = evolve_linear_thermo(thermo14, classify_expansion(0.0, 1.0, 0.1),
                                   thermo_initial(-5.0), 0.5,
                                   SolverSpec(**NO_LIMITS))
        assert_stopped(run, "temperature-negative")
        assert run.events[0].clock == run.times[-1]
        assert np.all(run.final.zeta[1:-1] + run.background.theta[1:-1] > 0.0)

    def test_step_failure(self, thermo14):
        spec = SolverSpec(n_cells=N, n_emit=5, max_rel_change=1e-30, dt_floor=0.0)
        run = evolve_linear_thermo(thermo14, classify_expansion(0.0, 1.0, 1.0),
                                   thermo_initial(1e-2), 0.5, spec)
        assert [e.kind for e in run.events] == ["step-failure"]
        assert run.completed is False
        assert run.final.clock == run.times[-1] == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a1", [1.0, 20.0])
    @pytest.mark.parametrize("mu", [1e-100, 1e-200])
    def test_non_finite_trial_stops_at_the_cfl_floor(self, thermo14, mu, a1):
        # a vanishing viscosity leaves the massless end rows unbounded: every trial
        # state is non-finite, a failed attempt, until dt halves below the floor
        run = evolve_linear_thermo(thermo14, classify_expansion(0.0, 1.0, a1),
                                   thermo_initial(1e-2), 0.5, SolverSpec(n_cells=N, n_emit=5),
                                   mu=mu)
        assert [e.kind for e in run.events] == ["cfl-floor"]
        assert run.completed is False
        assert run.final.clock == run.times[-1] == run.events[0].clock
        assert np.isfinite(run.final.zeta).all()
        assert run.omega.tolist() == [amplitude(s) for s in run.snapshots]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_member_leaves_the_others_bits(self, thermo14):
        # theta_t = 1e300 overflows its velocity and temperature solves; its rows stay
        # out of the batch's solves, so the other member keeps its own run's bits
        params, spec = classify_expansion(0.0, 1.0, 1.0), SolverSpec(n_cells=N, n_emit=5)
        x = np.linspace(0.0, thermo14.R0, N + 1)
        xi0 = 1e-3 * (0.7 + 0.3 * np.cos(np.pi * x / thermo14.R0))
        calm = (xi0, 0.1 * xi0, 1e-3 * (thermo14.R0 - x) * x / thermo14.R0**2)
        wild = thermo_initial(1e300)
        alone = [evolve_linear_thermo(thermo14, params, m, 0.5, spec) for m in (calm, wild)]
        batch = evolve_ensemble(thermo14, params, [calm, wild], 0.5, spec, regime=THERMO_REGIME)
        assert alone[0].completed and batch[0].completed
        for one, member in zip(alone, batch):
            assert [e.kind for e in member.events] == [e.kind for e in one.events]
            assert np.array_equal(member.times, one.times)
            for s, t in zip(member.snapshots, one.snapshots):
                assert all(np.array_equal(a, b) for a, b in zip(
                    (s.theta, s.theta_t, s.zeta), (t.theta, t.theta_t, t.zeta)))
        assert [e.kind for e in batch[1].events] == ["cfl-floor"]
