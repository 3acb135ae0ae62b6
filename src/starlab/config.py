"""Scenario configuration: parsing, validation, initial-perturbation families."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigInvalid
from .functionals import WeightSpec

SCENARIOS = ("profile", "expansion", "phase", "evolve-ss", "evolve-linear",
             "evolve-thermo", "verify")

FAMILIES = ("constant", "bump", "random-smooth")


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
class GridConfig:
    n_cells: int = 512
    rtol: float = 1e-10
    atol: float = 1e-10
    y_max: float = 200.0


@dataclass(frozen=True)
class SolverConfig:
    n_cells: int = 192
    cfl: float = 0.4
    order: int = 1
    max_rel_change: float = 1e-3
    growth_threshold: float = 0.1
    fully_implicit: bool = False
    dt_max: float | None = None


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
    n_emit: int = 41


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    model: ModelParams = ModelParams()
    grid: GridConfig = GridConfig()
    solver: SolverConfig = SolverConfig()
    initial: InitialSpec = InitialSpec()
    weights: WeightSpec = WeightSpec()
    time: TimeConfig = TimeConfig()
    phase_grid: tuple = ()        # ((phi, phi_s), ...) for the phase scenario
    out_dir: str = "out"
    seed: int = 0

    def to_dict(self) -> dict:
        d = asdict(self)
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


def _get(d: dict, key: str, default):
    return d.get(key, default) if isinstance(d, dict) else default


def _num(errors: list, d: dict, name: str, default, conv=float, optional=False):
    """Field `name` ("section.key") of d converted by conv; a bad value is recorded."""
    val = _get(d, name.rpartition(".")[2], default)
    if optional and val is None:
        return None
    try:
        return conv(val)
    except (TypeError, ValueError):
        errors.append(f"{name} must be a number, got {val!r}")
        return default


def validate_config(raw) -> ScenarioConfig:
    """Parse and validate a scenario configuration.

    Accepts a JSON string, a path-free dict, or a ScenarioConfig.  Collects
    every violated constraint (named as in the model) and raises
    ConfigInvalid with the full list; never returns a partial config.
    """
    if isinstance(raw, ScenarioConfig):
        cfg_dict = raw.to_dict()
    elif isinstance(raw, str):
        try:
            cfg_dict = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid([f"not valid JSON: {exc}"]) from exc
    elif isinstance(raw, dict):
        cfg_dict = raw
    else:
        raise ConfigInvalid([f"unsupported config input {type(raw).__name__}"])

    errors: list[str] = []
    scenario = cfg_dict.get("scenario")
    seed = _num(errors, cfg_dict, "seed", 0, int)
    if scenario not in SCENARIOS:
        errors.append(f"scenario must be one of {SCENARIOS}, got {scenario!r}")

    md = cfg_dict.get("model", {})
    model = ModelParams(
        kind=_get(md, "kind", "isentropic"),
        delta=_num(errors, md, "model.delta", 0.0),
        a0=_num(errors, md, "model.a0", 1.0),
        a1=_num(errors, md, "model.a1", 1.0, optional=True),
        K=_num(errors, md, "model.K", 1.0),
        epsilon=_num(errors, md, "model.epsilon", 0.25),
        c_nu=_num(errors, md, "model.c_nu", 3.0),
        mu=_num(errors, md, "model.mu", 1.0),
    )
    if model.kind not in ("isentropic", "thermo"):
        errors.append("model.kind must be 'isentropic' or 'thermo'")
    if model.a0 <= 0:
        errors.append("a0 > 0")
    if model.mu <= 0:
        errors.append("mu > 0")

    gd = cfg_dict.get("grid", {})
    grid = GridConfig(n_cells=_num(errors, gd, "grid.n_cells", 512, int),
                      rtol=_num(errors, gd, "grid.rtol", 1e-10),
                      atol=_num(errors, gd, "grid.atol", 1e-10),
                      y_max=_num(errors, gd, "grid.y_max", 200.0))
    if grid.n_cells < 8:
        errors.append("grid.n_cells >= 8")
    if grid.rtol <= 0 or grid.atol <= 0:
        errors.append("grid tolerances > 0")
    if not grid.y_max > 0:
        errors.append("grid.y_max > 0")

    sd = cfg_dict.get("solver", {})
    solver = SolverConfig(n_cells=_num(errors, sd, "solver.n_cells", 192, int),
                          cfl=_num(errors, sd, "solver.cfl", 0.4),
                          order=_num(errors, sd, "solver.order", 1, int),
                          max_rel_change=_num(errors, sd, "solver.max_rel_change", 1e-3),
                          growth_threshold=_num(errors, sd, "solver.growth_threshold", 0.1),
                          fully_implicit=bool(_get(sd, "fully_implicit", False)),
                          dt_max=_num(errors, sd, "solver.dt_max", None, optional=True))
    if solver.order not in (1, 2):
        errors.append("solver.order in {1, 2}")
    if not (0 < solver.cfl <= 1):
        errors.append("0 < solver.cfl <= 1")
    if solver.n_cells < 8:
        errors.append("solver.n_cells >= 8")
    if not solver.max_rel_change > 0:
        errors.append("solver.max_rel_change > 0")
    if solver.dt_max is not None and not solver.dt_max > 0:
        errors.append("solver.dt_max > 0 when set")

    idd = cfg_dict.get("initial", {})
    initial = InitialSpec(family=_get(idd, "family", "bump"),
                          amplitude=_num(errors, idd, "initial.amplitude", 1e-3),
                          amplitude_t=_num(errors, idd, "initial.amplitude_t", 0.0),
                          center=_num(errors, idd, "initial.center", 0.45),
                          width=_num(errors, idd, "initial.width", 0.25),
                          modes=_num(errors, idd, "initial.modes", 6, int),
                          seed=_num(errors, idd, "initial.seed", seed, int),
                          normalize_omega=bool(_get(idd, "normalize_omega", False)))
    if initial.family not in FAMILIES:
        errors.append(f"initial.family in {FAMILIES}")
    if initial.amplitude < 0:
        errors.append("initial.amplitude >= 0")

    wd = cfg_dict.get("weights", {})
    weights = WeightSpec(a=_num(errors, wd, "weights.a", 0.5),
                         r1=_num(errors, wd, "weights.r1", 0.5),
                         l1=_num(errors, wd, "weights.l1", -2.5),
                         r2=_num(errors, wd, "weights.r2", -0.5),
                         l2=_num(errors, wd, "weights.l2", -2.0),
                         frak_r=_num(errors, wd, "weights.frak_r", -1.5),
                         r3=_num(errors, wd, "weights.r3", -2.5))
    errors.extend(weights.violations())

    td = cfg_dict.get("time", {})
    time = TimeConfig(end=_num(errors, td, "time.end", 1.0),
                      n_emit=_num(errors, td, "time.n_emit", 41, int))
    if time.end <= 0:
        errors.append("time.end > 0")
    if time.n_emit < 2:
        errors.append("time.n_emit >= 2")

    try:
        phase_grid = tuple(tuple(float(v) for v in p)
                           for p in cfg_dict.get("phase_grid", ()))
    except (TypeError, ValueError):
        errors.append("phase_grid entries are [phi, phi_s] number pairs")
        phase_grid = ()

    # scenario-specific constraints
    if scenario == "evolve-thermo" or (scenario == "profile" and model.kind == "thermo"):
        ek = model.epsilon * model.K
        if not (1.0 / 6.0 < ek < 1.0):
            errors.append("1/6 < epsilon*K < 1")
    if scenario == "evolve-thermo":
        if abs(3.0 * model.K - model.c_nu) > 1e-9 * max(3.0 * model.K, model.c_nu):
            errors.append("3K - c_nu = 0")
        if model.delta != 0.0:
            errors.append("delta = 0 for the thermodynamic expansion")
        if solver.order != 1:
            errors.append("solver.order = 1 for evolve-thermo")
        if solver.fully_implicit:
            errors.append("solver.fully_implicit = false for evolve-thermo")
    if scenario == "evolve-ss":
        if model.delta >= 0:
            errors.append("delta < 0 for the self-similar branch")
        elif model.a1 is not None:
            a1_star = math.sqrt(2.0 * abs(model.delta) / model.a0)
            if abs(model.a1 - a1_star) > 1e-12 * a1_star:
                errors.append("a1 = sqrt(2|delta|/a0) on the self-similar branch "
                              "(set a1 to null to select it)")
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
        out_dir=str(cfg_dict.get("out_dir", "out")), seed=seed)
