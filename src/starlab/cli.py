"""Scenario runner: orchestration, persistence, plots, and the verify gate.

    starlab <scenario> --config file.json [--out DIR] [--seed N] [--verify]

Exit codes: 0 success (all criteria pass under verify), 1 configuration
error, 2 runtime event treated as failure in verify mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, artifacts, functionals, svgplot
from .config import SCENARIOS, ScenarioConfig, build_initial, validate_config
from .errors import ConfigInvalid, StarlabError
from .expansion import classify_expansion, integrate_alpha
from .homogeneous import PhaseState, curve_phi_s, integrate_phase
from .lagrangian import (LINEAR_REGIME, SELF_SIMILAR_REGIME, THERMO_REGIME,
                         PerturbationField, RunEvent, evolve_linear_isentropic,
                         evolve_linear_thermo, evolve_self_similar, reconstruct_eulerian)
from .profiles import solve_isentropic_profile, solve_thermo_profile


@dataclass
class ExitReport:
    status: int
    summary: dict
    events: list
    artifacts: list


def _manifest(cfg: ScenarioConfig, out_dir: str, events, extra: dict) -> str:
    payload = {
        "version": __version__,
        "config": cfg.to_dict(),
        "events": [{"kind": e.kind, "clock": e.clock, "detail": e.detail}
                   | ({} if e.crossing is None else {"crossing": e.crossing})
                   for e in events],
    }
    payload.update(extra)
    return artifacts.write_json(os.path.join(out_dir, "manifest.json"), payload)


def run_scenario(cfg: ScenarioConfig) -> ExitReport:
    out_dir = artifacts.ensure_dir(cfg.out_dir)
    if cfg.scenario == "profile":
        return _run_profile(cfg, out_dir)
    if cfg.scenario == "expansion":
        return _run_expansion(cfg, out_dir)
    if cfg.scenario == "phase":
        return _run_phase(cfg, out_dir)
    if cfg.scenario in ("evolve-ss", "evolve-linear", "evolve-thermo"):
        return _run_evolution(cfg, out_dir)
    if cfg.scenario == "verify":
        return _run_verify(cfg, out_dir)
    raise ConfigInvalid([f"unknown scenario {cfg.scenario!r}"])


def _run_profile(cfg: ScenarioConfig, out_dir: str) -> ExitReport:
    gs = cfg.grid
    thermo = cfg.model.kind == "thermo"
    if thermo:
        prof = solve_thermo_profile(cfg.model.K, cfg.model.epsilon, gs)
        series = [("rho_bar", prof.y_nodes, prof.rho_bar),
                  ("theta_bar", prof.y_nodes, prof.theta_bar)]
        summary = {"R0": prof.R0, "fourth_moment": prof.fourth_moment,
                   "theta_boundary_slope": prof.theta_boundary_slope}
    else:
        prof = solve_isentropic_profile(cfg.model.delta, gs)
        series = [("w", prof.y_nodes, prof.w), ("rho_bar", prof.y_nodes, prof.rho_bar)]
        summary = {"R0": prof.R0, "fourth_moment": prof.fourth_moment,
                   "boundary_slope": prof.boundary_slope}
    files = list(artifacts.write_profile_csv(out_dir, prof, thermo=thermo))
    files.append(svgplot.line_chart(os.path.join(out_dir, "profile.svg"), series,
                                    title="stationary profile", xlabel="y"))
    files.append(_manifest(cfg, out_dir, [], {"summary": summary}))
    return ExitReport(0, summary, [], files)


def _run_expansion(cfg: ScenarioConfig, out_dir: str) -> ExitReport:
    m = cfg.model
    params = classify_expansion(m.delta, m.a0, m.a1)
    path = integrate_alpha(params, cfg.time.end)
    events = []
    if path.t_end < cfg.time.end:          # a collapse ended the path early
        events = [RunEvent("collapse-reached", path.t_end, f"T ~ {path.T_collapse:.6g}")]
    files = list(artifacts.write_expansion_csv(out_dir, path))
    files.append(svgplot.line_chart(
        os.path.join(out_dir, "expansion.svg"),
        [("alpha", path.t_samples, path.alpha)], title="expansion factor",
        xlabel="t", ylabel="alpha"))
    summary = {"classification": params.classification, "a1_star": params.a1_star,
               "alpha_end": float(path.alpha[-1])}
    if path.T_collapse is not None:
        summary["T_collapse"] = path.T_collapse
    files.append(_manifest(cfg, out_dir, events, {"summary": summary}))
    return ExitReport(0, summary, events, files)


def _run_phase(cfg: ScenarioConfig, out_dir: str) -> ExitReport:
    delta = cfg.model.delta
    if cfg.phase_grid:
        grid = list(cfg.phase_grid)
    else:
        vals = (-0.05, 0.0, 0.05)
        grid = [(p, q) for p in vals for q in vals]
    files = []
    fates = []
    series = []
    for idx, (phi0, phi1) in enumerate(grid):
        traj = integrate_phase(PhaseState(phi0, phi1, delta), cfg.time.end)
        files.append(artifacts.write_trajectory_csv(out_dir, f"trajectory_{idx:03d}.csv", traj))
        fates.append({"phi0": phi0, "phi1": phi1, "fate": traj.fate,
                      "first_escape_s": traj.first_escape_s})
        series.append((f"ic{idx}", traj.phi, traj.phi_s))
    phis = np.linspace(-0.6, 1.0, 200)
    series.append(("zero-energy curve", phis, curve_phi_s(phis, delta)))
    files.append(svgplot.line_chart(os.path.join(out_dir, "portrait.svg"), series,
                                    title="phase portrait", xlabel="phi", ylabel="phi_s"))
    files.append(artifacts.write_json(os.path.join(out_dir, "fates.json"),
                                      {"delta": delta, "trajectories": fates}))
    # one row per initial condition for portrait plotting
    files.append(artifacts.write_csv(
        os.path.join(out_dir, "sweep.csv"),
        ["phi0", "phi_s0", "fate", "first_escape_s"],
        [np.array([f["phi0"] for f in fates]),
         np.array([f["phi1"] for f in fates]),
         [f["fate"] for f in fates],
         np.array([f["first_escape_s"] if f["first_escape_s"] is not None
                   else np.nan for f in fates])]))
    files.append(_manifest(cfg, out_dir, [], {"summary": {"n_trajectories": len(grid)}}))
    return ExitReport(0, {"fates": [f["fate"] for f in fates]}, [], files)


def _run_evolution(cfg: ScenarioConfig, out_dir: str) -> ExitReport:
    m, gs, spec = cfg.model, cfg.grid, cfg.solver

    thermo = cfg.scenario == "evolve-thermo"
    a1 = m.a1
    if thermo:
        prof = solve_thermo_profile(m.K, m.epsilon, gs)
        regime, evolve = THERMO_REGIME, evolve_linear_thermo
    elif cfg.scenario == "evolve-linear":
        prof = solve_isentropic_profile(m.delta, gs)
        regime, evolve = LINEAR_REGIME, evolve_linear_isentropic
    else:
        prof = solve_isentropic_profile(m.delta, gs)
        regime, evolve = SELF_SIMILAR_REGIME, evolve_self_similar
        if a1 is None:
            a1 = np.sqrt(2.0 * abs(m.delta) / m.a0)
    params = classify_expansion(0.0 if thermo else m.delta, m.a0, a1)

    x = np.linspace(0.0, prof.R0, spec.n_cells + 1)
    initial = build_initial(x, prof.R0, cfg.initial, thermo=thermo)
    if cfg.initial.normalize_omega and cfg.initial.amplitude > 0:
        probe = PerturbationField(x, initial[0], initial[1], None, 0.0, regime, *initial[2:])
        om = functionals.amplitude(probe)
        if om > 0:
            scale = cfg.initial.amplitude / om
            initial = tuple(a * scale for a in initial)

    # every linearly expanding run keeps an energy ledger, a self-similar one its E/D/W
    ledger = {"energy": True} if regime == SELF_SIMILAR_REGIME else {"weights": cfg.weights}
    run = evolve(prof, params, initial, cfg.time.end, spec, mu=m.mu, **ledger)
    files = [artifacts.write_snapshot_csv(out_dir, idx, snap)
             for idx, snap in enumerate(run.snapshots)]
    eul = reconstruct_eulerian(run.final, run.alpha_clock)
    files.append(artifacts.write_eulerian_csv(out_dir, eul))
    if run.weights is not None:
        reports = functionals.total_energy_ledger(run)
        for rep, snap in zip(reports, run.snapshots):
            phys = functionals.physical_energy(reconstruct_eulerian(snap, run.alpha_clock),
                                               mu=m.mu, c_nu=m.c_nu)
            rep.E_phys, rep.D_phys = phys.E, phys.D
        files.extend(artifacts.write_energy_reports(out_dir, reports))

    clocks = np.array([s.clock for s in run.snapshots])
    files.append(svgplot.line_chart(os.path.join(out_dir, "amplitude.svg"),
                                    [("omega", clocks, run.omega)],
                                    title="perturbation amplitude",
                                    xlabel="clock", ylabel="omega"))
    if run.energy is not None:
        files.append(svgplot.line_chart(
            os.path.join(out_dir, "energy.svg"),
            [("E", run.times, run.energy), ("D", run.times, run.dissipation)],
            title="perturbation energy", xlabel="s"))

    summary = {
        "regime": run.regime,
        "completed": run.completed,
        "omega_initial": float(run.omega[0]),
        "omega_max": float(run.omega.max()),
        "clock_end": float(clocks[-1]),
        "mass_identity_residual": eul.mass_identity_residual,
    }
    if run.energy is not None:
        summary["energy_identity_residual"] = float(
            abs(run.energy[-1] - run.energy[0] + run.visc_work[-1]))
    files.append(_manifest(cfg, out_dir, run.events,
                           {"summary": summary,
                            "grid": {"n_cells": spec.n_cells, "R0": prof.R0}}))
    return ExitReport(0, summary, run.events, files)


def _run_verify(cfg: ScenarioConfig, out_dir: str) -> ExitReport:
    from . import acceptance
    results = acceptance.run_all(verbose=True)
    n_fail = sum(1 for r in results if not r.passed)
    summary = {r.name: ("PASS" if r.passed else "FAIL") for r in results}
    files = [artifacts.write_json(os.path.join(out_dir, "verify.json"),
                                  {"results": [r.to_dict() for r in results]})]
    return ExitReport(0 if n_fail == 0 else 2, summary, [], files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="starlab",
        description="Numerical laboratory for expanding radiation gaseous stars")
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--verify", action="store_true",
                        help="treat runtime events as failures (exit 2)")
    args = parser.parse_args(argv)

    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
            return 1
        if not isinstance(raw, dict):
            print(f"config error: {args.config} holds a {type(raw).__name__}, "
                  "not a JSON object", file=sys.stderr)
            return 1
    raw["scenario"] = args.scenario
    if args.out:
        raw["out_dir"] = args.out
    if args.seed is not None:
        raw["seed"] = args.seed
        if isinstance(raw.setdefault("initial", {}), dict):   # else validate_config names it
            raw["initial"]["seed"] = args.seed

    try:
        cfg = validate_config(raw)
    except ConfigInvalid as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 1

    try:
        report = run_scenario(cfg)
    except StarlabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    for key, val in report.summary.items():
        print(f"{key}: {val}")
    if report.events:
        for e in report.events:
            crossing = "" if e.crossing is None else f" crossing {e.crossing:.6g}"
            print(f"event: {e.kind} at clock {e.clock:.6g} {e.detail}{crossing}")
        if args.verify and cfg.scenario != "verify":
            return 2
    return report.status


if __name__ == "__main__":
    sys.exit(main())
