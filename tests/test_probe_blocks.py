"""The amplitude probe and both ledgers evaluate blocks of states; a block changes no bits.

`evolve_ensemble` keeps each accepted state's rows until `functionals._PROBE_BLOCK`
of them are pending (or a member leaves the batch).  It then evaluates the amplitude
on the stacked block and walks it in step order: each state's omega, its snapshot if
it emits, and a member's growth event, which drops all the member stepped after it
and wins over any stop the member met since.  With weights it then evaluates the
ledger integrands on the states kept and folds the online integrals and each
emission's `dissipation_online` entry in step order; `total_energy_ledger` takes its
snapshots in blocks of the same size.  Every output must be the same for any block
size: one state per block, two, and a whole run in one block.  The block's working
set is bounded: with the default block, `total_energy_ledger` on the
`stability_linear.json` run keeps its traced peak within 64 KB of its peak with blocks
of one.
"""

import gc
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from starlab import classify_expansion
from starlab import functionals as F
from starlab.config import build_initial, validate_config
from starlab.errors import DomainViolation
from starlab.lagrangian import (LINEAR_REGIME, THERMO_REGIME, PerturbationField, SolverSpec,
                                evolve_ensemble, evolve_linear_isentropic, evolve_self_similar)
from fingerprints import fingerprint

N = 48
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def uniform(theta_t):
    return np.zeros(N + 1), np.full(N + 1, theta_t)


def self_similar(iso_ss, pars_ss, one):
    # growth (1e-3 grows past 4.5e-3), cfl-floor (4e-3 needs dt below 0.04 for the
    # change bound) and a member that runs to the end; a self-similar run keeps no
    # ledger, and its fingerprint covers the E/D/W it asks for
    spec = SolverSpec(n_cells=N, n_emit=7, dt_init=1e-4, max_rel_change=1e-4, dt_floor=0.04,
                      growth_threshold=4.5e-3)
    initials = [uniform(1e-3), uniform(4e-3), uniform(1e-5)]
    return evolve_ensemble(iso_ss, pars_ss, initials[:1] if one else initials, 6.0, spec,
                           energy=True)


def linear(iso0, one):
    x = np.linspace(0.0, iso0.R0, N + 1)
    th0 = 1e-3 * np.cos(np.pi * x / iso0.R0)
    initials = [(th0, 0 * th0), (0.3 * th0, th0)]
    return evolve_ensemble(iso0, classify_expansion(0.0, 1.0, 1.0), initials[:1 + (not one)],
                           1.0, SolverSpec(n_cells=N, n_emit=5), regime=LINEAR_REGIME,
                           weights=F.WeightSpec())


def thermo(thermo14, one):
    # the first member turns its absolute temperature negative mid-run
    z, x = np.zeros(N + 1), np.linspace(0.0, thermo14.R0, N + 1)
    zeta0 = 1e-3 * (thermo14.R0 - x) * x / thermo14.R0**2
    initials = [(z, np.full(N + 1, -5.0), z), (1e-3 + z, 1e-4 + z, zeta0)]
    return evolve_ensemble(thermo14, classify_expansion(0.0, 1.0, 0.1),
                           initials[1:] if one else initials, 0.5,
                           SolverSpec(n_cells=N, n_emit=5, max_rel_change=1e6,
                                      growth_threshold=1e9),
                           regime=THERMO_REGIME, weights=F.WeightSpec())


def growth_then_floor(iso_ss, pars_ss, one, threshold=2.25e-3):
    # the first member's amplitude crosses the threshold on the last state before a step
    # the change bound would need below dt_floor: a cfl-floor in the same block
    spec = SolverSpec(n_cells=N, n_emit=7, dt_init=1e-4, max_rel_change=1e-4, dt_floor=0.04,
                      growth_threshold=threshold)
    initials = [(np.full(N + 1, 1.9e-3), np.full(N + 1, 2e-3)), uniform(1e-5)]
    return evolve_ensemble(iso_ss, pars_ss, initials[:1] if one else initials, 6.0, spec,
                           energy=True)


def linear_growth(iso0, one):
    # the (th0, th0) member's amplitude rises through the threshold on its seventh state,
    # mid-block for the pair with the default block; the other runs to the end
    x = np.linspace(0.0, iso0.R0, N + 1)
    th0 = 1e-3 * np.cos(np.pi * x / iso0.R0)
    initials = [(th0, th0), (0.1 * th0, 0 * th0)]
    return evolve_ensemble(iso0, classify_expansion(0.0, 1.0, 1.0),
                           initials[:1] if one else initials[::-1], 1.0,
                           SolverSpec(n_cells=N, n_emit=5, growth_threshold=1.8392e-3),
                           regime=LINEAR_REGIME, weights=F.WeightSpec())


@pytest.fixture(scope="module")
def cases(iso_ss, pars_ss, iso0, thermo14):
    return {f"{name}-{'one' if one else 'batch'}": (lambda run=run, one=one: run(one))
            for name, run in (("self-similar", lambda one: self_similar(iso_ss, pars_ss, one)),
                              ("linear", lambda one: linear(iso0, one)),
                              ("thermo", lambda one: thermo(thermo14, one)),
                              ("growth-floor", lambda one: growth_then_floor(iso_ss, pars_ss, one)),
                              ("linear-growth", lambda one: linear_growth(iso0, one)))
            for one in (True, False)}


@pytest.fixture(scope="module")
def default_runs(cases):
    return {name: case() for name, case in cases.items()}


def test_the_cases_stop_mid_block_and_span_emissions(default_runs):
    kinds = {name: [[e.kind for e in r.events] for r in runs]
             for name, runs in default_runs.items()}
    assert kinds["self-similar-batch"] == [["growth"], ["cfl-floor"], []]
    assert kinds["self-similar-one"] == [["growth"]]
    assert kinds["thermo-batch"] == [["temperature-negative"], []]
    for runs in default_runs.values():        # several accepted steps between emissions
        assert all(len(r.times) > 2 * len(r.snapshots) for r in runs if r.completed)


@pytest.mark.parametrize("block", [1, 2, 10_000])
def test_block_size_changes_no_bits(cases, default_runs, monkeypatch, block):
    monkeypatch.setattr(F, "_PROBE_BLOCK", block)
    for name, case in cases.items():
        assert [fingerprint(r) for r in case()] == \
            [fingerprint(r) for r in default_runs[name]], name


def test_growth_wins_over_a_later_stop(iso_ss, pars_ss, default_runs):
    for one in (True, False):
        grown = default_runs[f"growth-floor-{'one' if one else 'batch'}"][0]
        [event] = grown.events
        assert event.kind == "growth" and event.clock == grown.times[-1] == grown.final.clock
        # the same member, never growing, stops at that clock on the step it tried next
        [floor] = growth_then_floor(iso_ss, pars_ss, one, threshold=1e9)[0].events
        assert (floor.kind, floor.clock) == ("cfl-floor", event.clock)
    assert [r.completed for r in default_runs["growth-floor-batch"]] == [False, True]


def test_states_after_growth_never_reach_the_ledger(cases, monkeypatch):
    folded = []

    def spy(block, weights, alpha_clock):
        folded.extend(f.clock for f in block)
        return integrands(block, weights, alpha_clock)

    integrands = F.ledger_integrands
    monkeypatch.setattr(F, "ledger_integrands", spy)
    for one in (True, False):
        folded.clear()
        runs = cases[f"linear-growth-{'one' if one else 'batch'}"]()
        grown = runs[-1]
        assert [e.kind for e in grown.events] == ["growth"] and len(grown.times) == 7
        assert sorted(folded) == sorted(t for r in runs for t in r.times)
        for r in runs:                # one online entry for each snapshot
            assert all(len(vs) == len(r.snapshots) for vs in r.dissipation_online.values())


def test_omega_is_each_snapshots_amplitude(default_runs):
    runs = [r for rs in default_runs.values() for r in rs]
    assert len(runs) == 16
    for r in runs:
        assert r.omega.tolist() == [F.amplitude(s) for s in r.snapshots]


def test_total_energy_ledger_is_the_same_in_blocks_of_one(default_runs, monkeypatch):
    runs = [r for rs in default_runs.values() for r in rs if r.completed and r.weights is not None]
    assert len(runs) == 6
    reports = [F.total_energy_ledger(r) for r in runs]
    monkeypatch.setattr(F, "_PROBE_BLOCK", 1)
    assert [F.total_energy_ledger(r) for r in runs] == reports


def jm_zero_data(x):
    """phi with the edge Jacobian Hm + xm df exactly 0.0 on edge 8 of N = 16 (a step at 8)."""
    dx, xm = x[1] - x[0], 0.5 * (x[8] + x[9])
    c = -1.0 / 9.0
    for _ in range(200):                  # walk c to the float where Jm is exactly zero
        jm = xm * ((c - 0.0) / dx) + (1.0 + 0.5 * c)
        if jm == 0.0:
            break
        c = np.nextafter(c, -np.inf if jm > 0.0 else np.inf)
    assert jm == 0.0
    return np.where(np.arange(x.size) > 8, c, 0.0)


def test_a_zero_edge_jacobian_raises_without_a_warning(iso_ss, pars_ss):
    x = np.linspace(0.0, iso_ss.R0, 17)
    phi = jm_zero_data(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainViolation, match="degenerates"):
            evolve_self_similar(iso_ss, pars_ss, (phi, 0 * phi), 1.0, SolverSpec(n_cells=16))
        with pytest.raises(DomainViolation, match="phi_x <= 0"):
            F.perturbation_energy_ss(x, phi, 0 * phi, x**4 * iso_ss.rho_at(x),
                                     np.ones(16), 1.0, pars_ss.delta, 0.0)


def ledger_transient(run):
    """Traced peak of `total_energy_ledger` on a finished run: the block's working set.

    Freelists are emptied first and nothing is collected inside, so the figure does not
    depend on what the process allocated before.
    """
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        F.total_energy_ledger(run)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_the_default_block_keeps_the_peak_within_64_kb(iso0, monkeypatch):
    with open(os.path.join(CONFIGS, "stability_linear.json")) as fh:
        cfg = validate_config(json.load(fh))
    n = cfg.solver.n_cells
    x = np.linspace(0.0, iso0.R0, n + 1)
    initial = build_initial(x, iso0.R0, cfg.initial)
    omega = F.amplitude(PerturbationField(x, *initial, None, 0.0, LINEAR_REGIME))
    initial = tuple(a * (cfg.initial.amplitude / omega) for a in initial)

    def run():
        return evolve_linear_isentropic(
            iso0, classify_expansion(cfg.model.delta, cfg.model.a0, cfg.model.a1), initial,
            cfg.time.end, cfg.solver, weights=cfg.weights)

    default = ledger_transient(run())
    monkeypatch.setattr(F, "_PROBE_BLOCK", 1)
    ones = ledger_transient(run())
    assert default <= ones + 64 * 1024, (default, ones)
