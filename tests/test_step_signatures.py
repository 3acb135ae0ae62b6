"""Characterisation of the step kernel: exact outputs of fixed runs.

Each test pins the bits of a run, so a rewrite of the per-step kernel that
claims to change no arithmetic is checked against these values.  The
self-similar growth run is the c09 workload at seed 7 (the session's shared
`c09_runs` run); the short runs cover the order-2 midpoint solve, which
computes the geometry of its own intermediate state, in both isentropic
regimes (N = 64, the setting of c07), the overdamped cap of the velocity solve
(a1 = 20, where alpha^3 outgrows the inertia within a unit clock) for one
member and a batch, and the thermodynamic temperature step.  The pins hold for
the platform's IEEE doubles with numpy's and LAPACK's summation orders, on
numpy's AVX-512 dispatch for `power`, `exp`, `log` and `cbrt`, libm for the
`math` scalars (the alpha clock, the ledger coefficients) and the LAPACK
build's `dgtsv`.  Every pin here fails on numpy's AVX2 path (a host without
AVX-512, or `NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`); a
change to any of these shows here first.
"""

import numpy as np
import pytest

from starlab import classify_expansion
from starlab import functionals as F
from starlab import kernel
from starlab.lagrangian import (LINEAR_REGIME, SolverSpec, evolve_ensemble,
                                evolve_linear_isentropic, evolve_linear_thermo,
                                evolve_self_similar)
from fingerprints import digest, snapshot_digest

# exact outputs of the runs below.  GROWTH_S is the step-quantised event clock:
# a change of the star at the 1e-10 level shifts the steps left after each emission
# clamp and so moves it by up to about 3e-4, while the located crossing moves by 1e-8
GROWTH_S = 67.16522768921146
STEPS = 2643
OMEGA_END = 0.10005060181744574
# E and D come from the step's own edge geometry and Gram factors; they feed
# neither dt nor growth, so only this pin moved when they stopped being
# recomputed (by at most 8e-14 relative in E, 4e-15 of the series max in D and W)
EDW_SHA = "4f5e46307a2e7d7ed3e1c4bb1a940016278fc759ce3b7b4c281cd06ebe1d0466"
SCHEME_SHA = {
    "order2": "b1ab7dbf00fb0aacf411502a8b37b3125c2a332fe8ff9bc39c1d06ccc7a2d8d0",
    "thermo": "443f046460f1a7a8ef0bc6cc69c4a81133ed0268663d62051867ce49b014e8db",
    "linear-order2": "7c55f9f7dc0aa3c993740ee34d17783b81532d66693780846da34f37e858f4f7",
    "linear-cap": "444a4588032f711e5228c425331fe237fb7ec317ccbfd6fc72f604343ee57f2a",
    "linear-cap-second": "ae6c9c340bafab0e3425b9d7e2b97879829132ed35d3132fe1be681c19408ed3",
}


def test_self_similar_growth_seed_7(c09_runs):
    _, _, (run,) = c09_runs((7,), energy=True)
    growth = [e.clock for e in run.events if e.kind == "growth"]
    assert growth == [GROWTH_S]
    assert len(run.times) - 1 == STEPS
    assert F.amplitude(run.final) == OMEGA_END
    assert digest(run.energy, run.dissipation, run.visc_work) == EDW_SHA


def bump(x, R0, amp):
    c, w = 0.45 * R0, 0.25 * R0
    return amp * np.where(np.abs(x - c) < w, 0.5 * (1 + np.cos(np.pi * (x - c) / w)), 0.0)


@pytest.mark.parametrize("scheme", ["order2"])
def test_self_similar_schemes(iso_ss, pars_ss, scheme):
    n = 64
    x = np.linspace(0.0, iso_ss.R0, n + 1)
    phi0 = bump(x, iso_ss.R0, 1e-2)
    spec = SolverSpec(n_cells=n, n_emit=5, growth_threshold=1.0, order=2)
    run = evolve_self_similar(iso_ss, pars_ss, (phi0, 0.5 * phi0), 2.0, spec)
    assert run.completed and not run.events
    assert snapshot_digest(run) == SCHEME_SHA[scheme]


def test_linear_order2(iso0):
    n = 64
    x = np.linspace(0.0, iso0.R0, n + 1)
    phi0 = bump(x, iso0.R0, 1e-2)
    spec = SolverSpec(n_cells=n, n_emit=5, growth_threshold=1.0, order=2)
    run = evolve_linear_isentropic(iso0, classify_expansion(0.0, 1.0, 1.0), (phi0, 0.5 * phi0),
                                   2.0, spec)
    assert run.completed and not run.events
    assert snapshot_digest(run) == SCHEME_SHA["linear-order2"]


def test_linear_overdamped_cap(iso0, monkeypatch):
    n = 64
    x = np.linspace(0.0, iso0.R0, n + 1)
    phi0 = bump(x, iso0.R0, 1e-2)
    capped = []
    cap = kernel._cap_overdamped

    def counted(visc, mass_term, K_diag):
        out = cap(visc, mass_term, K_diag)
        capped.append(out is not visc)
        return out

    monkeypatch.setattr(kernel, "_cap_overdamped", counted)
    params, spec = classify_expansion(0.0, 1.0, 20.0), SolverSpec(n_cells=n, n_emit=5,
                                                                  growth_threshold=1.0)
    run = evolve_linear_isentropic(iso0, params, (phi0, 0.5 * phi0), 1.0, spec)
    assert run.completed and sum(capped) == 9
    assert snapshot_digest(run) == SCHEME_SHA["linear-cap"]
    pair = evolve_ensemble(iso0, params, [(phi0, 0.5 * phi0), (0.5 * phi0, -phi0)], 1.0, spec,
                           regime=LINEAR_REGIME)
    assert [snapshot_digest(r) for r in pair] == [SCHEME_SHA["linear-cap"],
                                                  SCHEME_SHA["linear-cap-second"]]


def test_thermo_run(thermo14):
    n = 64
    x = np.linspace(0.0, thermo14.R0, n + 1)
    xi0 = 1e-3 * (0.7 + 0.3 * np.cos(np.pi * x / thermo14.R0))
    zeta0 = 1e-3 * (thermo14.R0 - x) * x / thermo14.R0**2
    run = evolve_linear_thermo(thermo14, classify_expansion(0.0, 1.0, 20.0),
                               (xi0, 0.1 * xi0, zeta0), 0.5, SolverSpec(n_cells=n, n_emit=5))
    assert run.completed
    assert snapshot_digest(run) == SCHEME_SHA["thermo"]

