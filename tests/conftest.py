import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from starlab import classify_expansion, solve_isentropic_profile, solve_thermo_profile
from starlab.acceptance import negative_energy_data
from starlab.lagrangian import SolverSpec, evolve_ensemble
from fingerprints import snapshot_arrays

settings.register_profile(
    "starlab",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("starlab")

# The empirically solvable negative-delta window is narrow; this is the
# standard laboratory point for self-similar PDE runs.
SS_DELTA = -1e-3


@pytest.fixture(scope="session")
def iso0():
    return solve_isentropic_profile(0.0)


@pytest.fixture(scope="session")
def iso_ss():
    return solve_isentropic_profile(SS_DELTA)


@pytest.fixture(scope="session")
def pars_ss():
    return classify_expansion(SS_DELTA, 1.0, np.sqrt(2 * abs(SS_DELTA)))


@pytest.fixture(scope="session")
def thermo14():
    return solve_thermo_profile(1.0, 0.25)


@pytest.fixture(scope="session")
def c09_runs(iso_ss, pars_ss):
    """`c09_runs(seeds, n_cells=192, order=1, cfl=0.4, energy=False)`: c09's runs, shared.

    Returns `(initials, spec, runs)`: each seed's negative-energy (phi0, phi1) at
    amplitude 1e-3, the solver setting and the batch's runs to s = 600 or omega = 0.1.
    Each setting is built once per session, and its arrays are read-only, so a test
    that writes into a shared run raises instead of corrupting the tests after it.
    """
    built = {}

    def runs(seeds, n_cells=192, order=1, cfl=0.4, energy=False):
        key = (tuple(seeds), n_cells, order, cfl, energy)
        if key not in built:
            x = np.linspace(0.0, iso_ss.R0, n_cells + 1)
            initials = [negative_energy_data(iso_ss, pars_ss.delta, x, 1e-3, s) for s in seeds]
            spec = SolverSpec(n_cells=n_cells, order=order, cfl=cfl, n_emit=40,
                              growth_threshold=0.1)
            out = evolve_ensemble(iso_ss, pars_ss, initials, 600.0, spec, energy=energy)
            shared = [a for initial in initials for a in initial]
            for r in out:
                shared += [r.times, r.omega, r.energy, r.dissipation, r.visc_work,
                           *snapshot_arrays(r)]
            for a in shared:
                if a is not None:
                    a.flags.writeable = False
            built[key] = initials, spec, out
        return built[key]

    return runs
