"""The ensemble axis: a batch of runs in one driver call equals each run alone.

`evolve_ensemble` steps a (B, N+1) state.  Each member keeps its own clock,
dt, retries, emissions, events and stop, so it must have the bits of its own
one-member run: every accepted time, every snapshot array and its amplitude,
the E/D/W series (self-similar runs here ask for them), the online ledger and the
events with their located crossing.  Asking for E/D/W moves nothing else.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from starlab import classify_expansion
from starlab.errors import ConfigInvalid
from starlab.functionals import WeightSpec, amplitude
from starlab.lagrangian import (LINEAR_REGIME, SELF_SIMILAR_REGIME, THERMO_REGIME, SolverSpec,
                                evolve_ensemble, evolve_linear_isentropic,
                                evolve_linear_thermo, evolve_self_similar)
from fingerprints import fingerprint

N = 48
NO_LIMITS = dict(n_cells=N, n_emit=5, max_rel_change=1e6, growth_threshold=1e9)
ALONE = {SELF_SIMILAR_REGIME: evolve_self_similar, LINEAR_REGIME: evolve_linear_isentropic,
         THERMO_REGIME: evolve_linear_thermo}


def assert_members_alone(prof, params, initials, end, spec, regime, runs=None, **kw):
    """Each member of the batch (built here unless given) equals its own run; returns the batch."""
    if runs is None:
        runs = evolve_ensemble(prof, params, initials, end, spec, regime=regime, **kw)
    assert len(runs) == len(initials)
    for initial, run in zip(initials, runs):
        alone = ALONE[regime](prof, params, initial, end, spec, **kw)
        assert fingerprint(run) == fingerprint(alone)
        for r in (run, alone):       # the driver's omega is each snapshot's amplitude
            assert r.omega.tolist() == [amplitude(s) for s in r.snapshots]
    return runs


def test_c09_seeds_stop_at_different_steps(iso_ss, pars_ss, c09_runs):
    initials, spec, runs = c09_runs((7, 11, 13), order=2, cfl=1.0, energy=True)
    assert_members_alone(iso_ss, pars_ss, initials, 600.0, spec, SELF_SIMILAR_REGIME, runs,
                         energy=True)
    assert [e.crossing for r in runs for e in r.events] == [
        67.14197818264354, 73.32801291252126, 54.99834201389742]
    assert len({len(r.times) for r in runs}) == 3


@pytest.mark.parametrize("case", ["c09-seed-7-order-1", "c07-order-2", "c09-batch"])
def test_the_energy_request_moves_nothing_but_edw(iso_ss, pars_ss, c09_runs, case):
    if case == "c07-order-2":
        ones = np.ones(65)
        initials, end = [(0.01 * ones, 0.05 * ones)], 2.0
        spec = SolverSpec(n_cells=64, order=2, dt_max=2e-3, n_emit=21, growth_threshold=1.0)
        asked = evolve_ensemble(iso_ss, pars_ss, initials, end, spec, energy=True)
    else:
        end = 600.0
        initials, spec, asked = (c09_runs((7,), energy=True) if case == "c09-seed-7-order-1"
                                 else c09_runs((7, 11, 13), order=2, cfl=1.0, energy=True))
    plain = evolve_ensemble(iso_ss, pars_ss, initials, end, spec)
    for a, p in zip(asked, plain, strict=True):
        assert (p.energy, p.dissipation, p.visc_work) == (None, None, None)
        assert a.energy.size == a.dissipation.size == a.visc_work.size == a.times.size
        assert fingerprint(dataclasses.replace(a, energy=None, dissipation=None,
                                               visc_work=None)) == fingerprint(p)
        assert [e.kind for e in p.events] == ([] if case == "c07-order-2" else ["growth"])


def test_c08_linear_pair(iso0):
    n = 128
    x = np.linspace(0.0, iso0.R0, n + 1)
    th0 = 7.5e-4 * np.cos(3.0 * np.pi * x / iso0.R0)
    spec = SolverSpec(n_cells=n, n_emit=81, growth_threshold=0.1)
    runs = assert_members_alone(iso0, classify_expansion(0.0, 1.0, 1.0),
                                [(th0, 0 * th0), (0.5 * th0, 0 * th0)], 10.0, spec, LINEAR_REGIME)
    assert all(r.completed for r in runs)


def test_linear_pair_keeps_its_ledgers(iso0):
    x = np.linspace(0.0, iso0.R0, N + 1)
    th0 = 1e-3 * np.cos(np.pi * x / iso0.R0)
    assert_members_alone(iso0, classify_expansion(0.0, 1.0, 1.0),
                         [(th0, 0 * th0), (0.3 * th0, th0)], 1.0,
                         SolverSpec(n_cells=N, n_emit=5), LINEAR_REGIME, weights=WeightSpec())


def test_thermo_pair(thermo14):
    n = 64
    x = np.linspace(0.0, thermo14.R0, n + 1)
    xi0 = 1e-3 * (0.7 + 0.3 * np.cos(np.pi * x / thermo14.R0))
    zeta0 = 1e-3 * (thermo14.R0 - x) * x / thermo14.R0**2
    assert_members_alone(thermo14, classify_expansion(0.0, 1.0, 20.0),
                         [(xi0, 0.1 * xi0, zeta0), (2.0 * xi0, -0.1 * xi0, 0.5 * zeta0)], 0.5,
                         SolverSpec(n_cells=n, n_emit=5), THERMO_REGIME)


def uniform(theta_t):
    return np.zeros(N + 1), np.full(N + 1, theta_t)


def test_a_member_that_retries_or_stops_moves_no_other(iso_ss, pars_ss):
    # max_rel_change 1e-4 halves the steps of the 3e-3 member and stops the 1e-2
    # member at the dt floor; the 1e-5 member never meets the bound
    spec = SolverSpec(n_cells=N, n_emit=5, dt_init=1e-4, max_rel_change=1e-4, dt_floor=1e-2)
    initials = [uniform(1e-2), uniform(3e-3), uniform(1e-5)]
    runs = assert_members_alone(iso_ss, pars_ss, initials, 1.0, spec, SELF_SIMILAR_REGIME,
                                energy=True)
    assert [[e.kind for e in r.events] for r in runs] == [["cfl-floor"], [], []]
    unbounded = evolve_self_similar(iso_ss, pars_ss, initials[1], 1.0,
                                    SolverSpec(n_cells=N, n_emit=5, dt_init=1e-4))
    assert len(unbounded.times) < len(runs[1].times)      # the bound rejected its steps


def test_every_stop_leaves_the_batch(iso_ss, pars_ss, thermo14):
    x = np.linspace(0.0, iso_ss.R0, N + 1)
    compression = (np.zeros(N + 1), -5.0 * x / iso_ss.R0)
    runs = assert_members_alone(iso_ss, pars_ss, [uniform(1e-3), compression], 1.0,
                                SolverSpec(**NO_LIMITS), SELF_SIMILAR_REGIME, energy=True)
    assert [r.completed for r in runs] == [True, False]
    assert runs[1].events[0].kind == "jacobian-degenerate"

    failing = SolverSpec(n_cells=N, n_emit=5, max_rel_change=1e-30, dt_floor=0.0)
    runs = assert_members_alone(iso_ss, pars_ss, [uniform(1e-2), uniform(0.0)], 1.0, failing,
                                SELF_SIMILAR_REGIME, energy=True)
    assert [[e.kind for e in r.events] for r in runs] == [["step-failure"], []]

    z = np.zeros(N + 1)
    runs = assert_members_alone(thermo14, classify_expansion(0.0, 1.0, 0.1),
                                [(z, np.full(N + 1, -5.0), z), (z, np.full(N + 1, 1e-3), z)],
                                0.5, SolverSpec(**NO_LIMITS), THERMO_REGIME)
    assert [[e.kind for e in r.events] for r in runs] == [["temperature-negative"], []]


def test_outside_stability_range_marks_every_member():
    from starlab import solve_isentropic_profile
    prof = solve_isentropic_profile(-1.5e-3)
    pars = classify_expansion(-1.5e-3, 1.0, 0.1)
    z = np.zeros(N + 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runs = evolve_ensemble(prof, pars, [(z, z), (z, z + 1e-4)], 0.05,
                               SolverSpec(n_cells=N, n_emit=2), regime=LINEAR_REGIME)
    assert [w.filename for w in caught if "stability" in str(w.message)] == [__file__]
    assert [r.events[0].kind for r in runs] == ["outside-stability-range"] * 2


@pytest.mark.parametrize("bad, text", [
    ((np.full(N + 1, np.nan), np.zeros(N + 1)), f"initial fields are finite on {N + 1} nodes"),
    ((np.zeros(N), np.zeros(N)), f"initial fields are finite on {N + 1} nodes"),
    ((np.zeros(N + 1),), f"initial fields are finite on {N + 1} nodes"),
    (None, "at least one initial state"),
])
def test_a_bad_member_is_named(iso_ss, pars_ss, bad, text):
    good = uniform(1e-3)
    initials = [] if bad is None else [good, bad, good]
    with pytest.raises(ConfigInvalid) as exc:
        evolve_ensemble(iso_ss, pars_ss, initials, 1.0, SolverSpec(n_cells=N))
    assert text in exc.value.errors


@pytest.mark.parametrize("regime, asks, text", [
    (SELF_SIMILAR_REGIME, {"weights": WeightSpec()}, "weights only for a linearly expanding run"),
    (LINEAR_REGIME, {"energy": True}, "energy only for the self-similar regime"),
    (THERMO_REGIME, {"energy": True}, "energy only for the self-similar regime"),
])
def test_a_request_the_regime_cannot_honour_is_named(iso_ss, pars_ss, iso0, thermo14,
                                                     regime, asks, text):
    # the self-similar run with weights integrated the linear ledger on the wrong clock
    prof, params = ((iso_ss, pars_ss) if regime == SELF_SIMILAR_REGIME
                    else (thermo14 if regime == THERMO_REGIME else iso0,
                          classify_expansion(0.0, 1.0, 1.0)))
    initial = [np.zeros(N + 1)] * (3 if regime == THERMO_REGIME else 2)
    with pytest.raises(ConfigInvalid) as exc:
        evolve_ensemble(prof, params, [initial], 1.0, SolverSpec(n_cells=N), regime=regime,
                        **asks)
    assert exc.value.errors == [text]


def test_an_unknown_regime_is_named(iso_ss, pars_ss):
    with pytest.raises(ConfigInvalid, match="regime in"):
        evolve_ensemble(iso_ss, pars_ss, [uniform(1e-3)], 1.0, SolverSpec(n_cells=N),
                        regime="self_similar")
