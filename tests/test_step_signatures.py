"""Characterisation of the step kernel: exact outputs of fixed runs.

Each test pins the bits of a run, so a rewrite of the per-step kernel that
claims to change no arithmetic is checked against these values.  The
self-similar growth run is the c09 workload at seed 7; the short runs cover
the order-2 midpoint solve, which computes the geometry of its own
intermediate state, and the thermodynamic temperature step.  The pins hold
for the platform's IEEE doubles with numpy's and LAPACK's summation orders; a
change to either shows here first.
"""

import hashlib

import numpy as np
import pytest

from starlab import classify_expansion
from starlab import functionals as F
from starlab.acceptance import negative_energy_data
from starlab.lagrangian import (SolverSpec, evolve_linear_thermo,
                                evolve_self_similar)

# exact outputs of the runs below
GROWTH_S = 67.16553603285477
STEPS = 2643
OMEGA_END = 0.10005204608891712
# E and D come from the step's own edge geometry and Gram factors; they feed
# neither dt nor growth, so only this pin moved when they stopped being
# recomputed (by at most 8e-14 relative in E, 4e-15 of the series max in D and W)
EDW_SHA = "353f1278a56d6181efde80b78cd2b0dbf7f6f17c6db7631ddf620ff3bbd7e02c"
SCHEME_SHA = {
    "order2": "50ca4f0c869595a1f6db19fb3bfdadd80a447016e36e1cb0b84d5c6767da5e22",
    "thermo": "443f046460f1a7a8ef0bc6cc69c4a81133ed0268663d62051867ce49b014e8db",
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def snapshot_digest(run) -> str:
    arrays = [run.times]
    for s in run.snapshots:
        arrays.append([s.clock])
        arrays.extend(a for a in (s.theta, s.theta_t, s.theta_tt, s.zeta, s.zeta_t)
                      if a is not None)
    return digest(*arrays)


def test_self_similar_growth_seed_7(iso_ss, pars_ss):
    n = 192
    x = np.linspace(0.0, iso_ss.R0, n + 1)
    phi0, phi1 = negative_energy_data(iso_ss, pars_ss.delta, x, 1e-3, 7)
    spec = SolverSpec(n_cells=n, n_emit=40, growth_threshold=0.1)
    run = evolve_self_similar(iso_ss, pars_ss, (phi0, phi1), 600.0, spec)
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


def test_thermo_run(thermo14):
    n = 64
    x = np.linspace(0.0, thermo14.R0, n + 1)
    xi0 = 1e-3 * (0.7 + 0.3 * np.cos(np.pi * x / thermo14.R0))
    zeta0 = 1e-3 * (thermo14.R0 - x) * x / thermo14.R0**2
    run = evolve_linear_thermo(thermo14, classify_expansion(0.0, 1.0, 20.0),
                               (xi0, 0.1 * xi0, zeta0), 0.5, SolverSpec(n_cells=n, n_emit=5))
    assert run.completed
    assert snapshot_digest(run) == SCHEME_SHA["thermo"]

