"""Numerical laboratory for expanding configurations of radiation gaseous stars."""

from .profiles import (
    GridSpec,
    IsentropicProfile,
    ThermoProfile,
    solve_isentropic_profile,
    solve_thermo_profile,
)
from .expansion import (
    ExpansionParams,
    ExpansionPath,
    classify_expansion,
    integrate_alpha,
)
from .homogeneous import (
    PhaseState,
    PhaseTrajectory,
    curve_phi_s,
    energy_homogeneous,
    integrate_phase,
)

__version__ = "0.1.0"
