"""Scenario configuration: parsing, validation, initial-perturbation families.

The grid and solver blocks are `profiles.GridSpec` and `lagrangian.SolverSpec`
themselves.  Each checks its own table of named constraints when built, so
the library and `validate_config` report the same texts.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import asdict, dataclass, fields
from typing import get_args, get_type_hints

import numpy as np

from .errors import ConfigInvalid
from .expansion import _SS_END, _SS_EXP_MAX, LINEAR, classify_expansion
from .functionals import WeightSpec
from .lagrangian import SolverSpec
from .profiles import GridSpec

SCENARIOS = ("profile", "expansion", "phase", "evolve-ss", "evolve-linear",
             "evolve-thermo", "verify")

FAMILIES = ("constant", "bump", "random-smooth")

# The JSON keys of the grid and solver blocks; the specs' other fields keep
# their defaults.  The solver's n_emit is read from time.n_emit.
GRID_KEYS = ("n_cells", "rtol", "atol", "y_max")
SOLVER_KEYS = ("n_cells", "cfl", "order", "max_rel_change", "growth_threshold", "dt_max")

# On the Linear branch alpha(tau) <= a0 e^{a1 tau}, and the ledger weights are
# powers of alpha below 4: alpha^4 must stay finite up to time.end.
_LEDGER_EXP_MAX = math.log(sys.float_info.max) / 4.0


@dataclass(frozen=True)
class ModelParams:
    kind: str = "isentropic"      # isentropic | thermo
    delta: float = 0.0
    a0: float = 1.0
    a1: float | None = 1.0        # None on evolve-ss selects the escape speed
    K: float = 1.0
    epsilon: float = 0.25
    c_nu: float = 3.0
    mu: float = 1.0


@dataclass(frozen=True)
class InitialSpec:
    family: str = "bump"
    amplitude: float = 1e-3
    amplitude_t: float = 0.0
    center: float = 0.45          # bump center, fraction of R0
    width: float = 0.25           # bump half-width, fraction of R0
    modes: int = 6                # random-smooth cosine modes
    seed: int = 0
    normalize_omega: bool = False  # rescale so the initial sup-norm amplitude = amplitude


@dataclass(frozen=True)
class TimeConfig:
    end: float = 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    model: ModelParams = ModelParams()
    grid: GridSpec = GridSpec()
    solver: SolverSpec = SolverSpec()
    initial: InitialSpec = InitialSpec()
    weights: WeightSpec = WeightSpec()
    time: TimeConfig = TimeConfig()
    phase_grid: tuple = ()        # ((phi, phi_s), ...) for the phase scenario
    out_dir: str = "out"
    seed: int = 0

    def to_dict(self) -> dict:
        """Every field a config sets, in the JSON layout validate_config reads.

        The solver block holds only SOLVER_KEYS, and n_emit goes under time.
        """
        d = asdict(self)
        d["time"]["n_emit"] = d["solver"]["n_emit"]
        d["solver"] = {k: d["solver"][k] for k in SOLVER_KEYS}
        d["phase_grid"] = [list(p) for p in self.phase_grid]
        return d


def family_shape(x: np.ndarray, R0: float, spec: InitialSpec) -> np.ndarray:
    """Unit-amplitude spatial shape of an initial perturbation family.

    All families are even at the center to discretization order and have
    vanishing slope at R0 (cosine modes), keeping x*f_x boundary-compatible.
    """
    if spec.family == "constant":
        return np.ones_like(x)
    if spec.family == "bump":
        c, w = spec.center * R0, spec.width * R0
        out = np.where(np.abs(x - c) < w,
                       0.5 * (1.0 + np.cos(np.pi * (x - c) / w)), 0.0)
        return out
    if spec.family == "random-smooth":
        rng = np.random.default_rng(spec.seed)
        modes = np.arange(1, spec.modes + 1)
        coef = rng.standard_normal(spec.modes) / (1.0 + modes) ** 2
        out = np.cos(np.outer(x, modes) * np.pi / R0) @ coef
        return out / np.max(np.abs(out))
    raise ConfigInvalid([f"unknown initial family {spec.family!r}"])


def build_initial(x: np.ndarray, R0: float, spec: InitialSpec,
                  thermo: bool = False):
    """(theta0, theta1[, zeta0]) fields for a run.

    zeta0 carries the extra boundary-compatibility factor (R0 - x)/R0 so
    the temperature perturbation satisfies its Dirichlet condition exactly.
    """
    shape = family_shape(x, R0, spec)
    f0 = spec.amplitude * shape
    f1 = spec.amplitude_t * shape
    if not thermo:
        return f0, f1
    z0 = spec.amplitude * shape * (R0 - x) / R0
    return f0, f1, z0


def _section(errors: list, raw: dict, name: str) -> dict:
    """raw[name], which must be a JSON object; anything else is named and read as {}."""
    d = raw.get(name, {})
    if isinstance(d, dict):
        return d
    errors.append(f"{name} must be an object, got {d!r}")
    return {}


def _read(errors: list, d: dict, cls, section: str, keys=None, **defaults) -> dict:
    """The fields `keys` (all by default) of dataclass cls from d, by their annotations.

    A missing key takes defaults[key] or the dataclass default.  A value of
    the wrong JSON type is recorded by name and its field takes the default:
    "section.key must be true or false" for a boolean, "section.key must be a
    number" (JSON true and false are not numbers) and "section.key is an
    integer" for a number with a fractional part where an integer is needed.
    """
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if keys is not None and f.name not in keys:
            continue
        val, kind = d.get(f.name, defaults.get(f.name, f.default)), hints[f.name]
        name = f"{section}.{f.name}" if section else f.name
        out[f.name] = f.default
        if kind is bool:
            if isinstance(val, bool):
                out[f.name] = val
            else:
                errors.append(f"{name} must be true or false, got {val!r}")
        elif kind is str or (val is None and type(None) in get_args(kind)):
            out[f.name] = val
        elif isinstance(val, bool) or not isinstance(val, numbers.Real):
            errors.append(f"{name} must be a number, got {val!r}")
        elif kind is int:
            if isinstance(val, numbers.Integral) or float(val).is_integer():
                out[f.name] = int(val)
            else:
                errors.append(f"{name} is an integer")
        else:
            try:
                out[f.name] = float(val)
            except OverflowError:              # an integer beyond the float range
                errors.append(f"{name} must be a number, got {val!r}")
    return out


def _spec(errors: list, cls, kw: dict):
    """cls(**kw); if that violates cls's constraints, they are recorded and cls() stands in."""
    try:
        return cls(**kw)
    except ConfigInvalid as exc:
        errors.extend(exc.errors)
        return cls()


def validate_config(raw) -> ScenarioConfig:
    """Validate a scenario configuration, a dict as parsed from its JSON.

    Collects every violated constraint (named as in the model; the solver and
    grid texts are those of SolverSpec and GridSpec) and raises ConfigInvalid
    with the full list; never returns a partial config.  A key that `to_dict`
    does not write, in any section, is named as "section.key is not a key".
    """
    if not isinstance(raw, dict):
        raise ConfigInvalid([f"a config is a JSON object, got {type(raw).__name__}"])

    known = ScenarioConfig("").to_dict()    # the keys a manifest writes
    errors = [f"{key} is not a key" for key in raw if key not in known]
    scenario = raw.get("scenario")
    seed = _read(errors, raw, ScenarioConfig, "", ("seed",))["seed"]
    if scenario not in SCENARIOS:
        errors.append(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    sections = {name: _section(errors, raw, name)
                for name in ("model", "grid", "solver", "initial", "weights", "time")}
    for name, d in sections.items():
        errors.extend(f"{name}.{key} is not a key" for key in d if key not in known[name])
    md, gd, sd, idd, wd, td = sections.values()

    model = ModelParams(**_read(errors, md, ModelParams, "model"))
    # JSON's NaN and Infinity parse as numbers; mu's own range row names them
    nonfinite = [f"model.{k} is finite" for k, v in asdict(model).items()
                 if isinstance(v, float) and k != "mu" and not math.isfinite(v)]
    errors.extend(nonfinite)
    if model.kind not in ("isentropic", "thermo"):
        errors.append("model.kind must be 'isentropic' or 'thermo'")
    if model.a0 <= 0:
        errors.append("a0 > 0")
    if not 0 < model.mu < math.inf:        # the library's own check and text
        errors.append("0 < mu < inf")
    if model.a1 is None and scenario != "evolve-ss":
        errors.append("model.a1 = null only on evolve-ss")

    grid = _spec(errors, GridSpec, _read(errors, gd, GridSpec, "grid", GRID_KEYS))
    solver = _spec(errors, SolverSpec, {**_read(errors, sd, SolverSpec, "solver", SOLVER_KEYS),
                                        **_read(errors, td, SolverSpec, "time", ("n_emit",))})

    initial = InitialSpec(**_read(errors, idd, InitialSpec, "initial", seed=seed))
    if initial.family not in FAMILIES:
        errors.append(f"initial.family in {FAMILIES}")
    if initial.amplitude < 0:
        errors.append("initial.amplitude >= 0")
    if initial.modes < 1:
        errors.append("initial.modes >= 1")
    if initial.seed < 0:
        errors.append("initial.seed >= 0")

    weights = WeightSpec(**_read(errors, wd, WeightSpec, "weights"))
    errors.extend(weights.violations())

    time = TimeConfig(**_read(errors, td, TimeConfig, "time"))
    if time.end <= 0:
        errors.append("time.end > 0")
    elif not math.isfinite(time.end):
        errors.append("time.end is finite")
    finite = not nonfinite and math.isfinite(time.end)     # else the rows below would repeat it

    try:
        phase_grid = tuple(tuple(float(v) for v in p)
                           for p in raw.get("phase_grid", ()))
    except (TypeError, ValueError):
        errors.append("phase_grid entries are [phi, phi_s] number pairs")
        phase_grid = ()
    if not all(math.isfinite(v) for p in phase_grid for v in p):
        errors.append("phase_grid entries are finite")

    # scenario-specific constraints
    if scenario == "evolve-thermo" or (scenario == "profile" and model.kind == "thermo"):
        if not model.K > 0:
            errors.append("model.K > 0")
        if not (1.0 / 6.0 < model.epsilon * model.K < 1.0):
            errors.append("1/6 < epsilon*K < 1")
    if scenario == "evolve-thermo":
        if abs(3.0 * model.K - model.c_nu) > 1e-9 * max(abs(3.0 * model.K), abs(model.c_nu)):
            errors.append("3K - c_nu = 0")
        if model.delta != 0.0:
            errors.append("delta = 0 for the thermodynamic expansion")
        errors.extend(solver.violations(thermo=True))
    if (scenario in ("evolve-linear", "evolve-thermo") and finite and model.a0 > 0
            and model.a1 is not None):
        cls = classify_expansion(model.delta if scenario == "evolve-linear" else 0.0,
                                 model.a0, model.a1).classification
        if cls != LINEAR:
            errors.append(f"{scenario} needs a Linear expansion of (delta, a0, a1), got {cls}")
        elif not model.a1 * time.end + math.log(max(model.a0, 1.0)) < _LEDGER_EXP_MAX:
            errors.append(f"a1 * time.end + ln max(a0, 1) < {_LEDGER_EXP_MAX:.1f} "
                          "(the ledger's alpha^4 overflows beyond)")
    if scenario == "evolve-ss":
        if model.delta >= 0:
            errors.append("delta < 0 for the self-similar branch")
        elif finite and model.a0 > 0:
            a1_star = math.sqrt(2.0 * abs(model.delta) / model.a0)
            if model.a1 is not None and abs(model.a1 - a1_star) > 1e-12 * a1_star:
                errors.append("a1 = sqrt(2|delta|/a0) on the self-similar branch "
                              "(set a1 to null to select it)")
            if not (math.sqrt(2.0 * abs(model.delta)) * time.end
                    + math.log(max(model.a0, 1.0)) < _SS_EXP_MAX):
                errors.append(_SS_END)
    if scenario == "phase":
        if model.delta >= 0:
            errors.append("delta < 0 for the phase scenario")
        for p in phase_grid:
            if len(p) != 2:
                errors.append("phase_grid entries are [phi, phi_s] pairs")
                break
            if 1.0 + p[0] <= 0.0:
                errors.append("phase_grid requires 1 + phi > 0")
                break

    if errors:
        raise ConfigInvalid(errors)

    return ScenarioConfig(
        scenario=scenario, model=model, grid=grid, solver=solver,
        initial=initial, weights=weights, time=time, phase_grid=phase_grid,
        out_dir=str(raw.get("out_dir", "out")), seed=seed)
