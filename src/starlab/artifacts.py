"""Deterministic CSV/JSON artifact writers for scenario runs."""

from __future__ import annotations

import json
import os

import numpy as np


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> str:
    """Full-precision CSV of equal-length columns: a float array is formatted %.17g
    a column at a time (`_fmt`'s bytes), any other column by `_fmt` cell by cell."""
    floats = [isinstance(col, np.ndarray) and col.dtype.kind == "f" for col in columns]
    row = ",".join("%.17g" if fl else "%s" for fl in floats)
    cols = [col.tolist() if fl else [_fmt(v) for v in col] for col, fl in zip(columns, floats)]
    with open(path, "w") as fh:
        fh.write("\n".join([",".join(header), *map(row.__mod__, zip(*cols))]) + "\n")
    return path


def write_json(path: str, payload: dict) -> str:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def write_profile_csv(out_dir: str, profile, thermo: bool = False) -> tuple[str, str]:
    """Profile CSV `y,w,rho_bar[,theta_bar]` plus its JSON sidecar."""
    if thermo:
        w = np.clip(profile.rho_bar, 0.0, None) ** (1.0 / 3.0)
        csv = write_csv(os.path.join(out_dir, "profile.csv"),
                        ["y", "w", "rho_bar", "theta_bar"],
                        [profile.y_nodes, w, profile.rho_bar, profile.theta_bar])
        sidecar = {
            "K": profile.K,
            "epsilon": profile.epsilon,
            "R0": profile.R0,
            "boundary_slope": profile.theta_boundary_slope,
            "rho_pow_boundary_slope": profile.rho_pow_boundary_slope,
            "fourth_moment": profile.fourth_moment,
        }
    else:
        csv = write_csv(os.path.join(out_dir, "profile.csv"),
                        ["y", "w", "rho_bar"],
                        [profile.y_nodes, profile.w, profile.rho_bar])
        sidecar = {
            "delta": profile.delta,
            "R0": profile.R0,
            "boundary_slope": profile.boundary_slope,
            "fourth_moment": profile.fourth_moment,
        }
    js = write_json(os.path.join(out_dir, "profile.json"), sidecar)
    return csv, js


def write_expansion_csv(out_dir: str, path_obj) -> tuple[str, str]:
    from .expansion import SELF_SIMILAR
    cls = path_obj.params.classification
    clock_name = "s" if cls == SELF_SIMILAR else "tau"
    clock = path_obj.s_samples if cls == SELF_SIMILAR else path_obj.tau_samples
    csv = write_csv(os.path.join(out_dir, "expansion.csv"),
                    ["t", "alpha", "alpha_prime", clock_name],
                    [path_obj.t_samples, path_obj.alpha, path_obj.alpha_prime, clock])
    summary = {
        "classification": cls,
        "a1_star": path_obj.params.a1_star,
        "beta1": path_obj.params.beta1,
        "beta2": path_obj.params.beta2,
    }
    if path_obj.T_collapse is not None:
        summary["T_collapse"] = path_obj.T_collapse
    js = write_json(os.path.join(out_dir, "expansion.json"), summary)
    return csv, js


def write_trajectory_csv(out_dir: str, name: str, traj) -> str:
    return write_csv(os.path.join(out_dir, name),
                     ["s", "phi", "phi_s", "energy", "curve_distance"],
                     [traj.s_samples, traj.phi, traj.phi_s, traj.energy,
                      traj.curve_distance])


def write_snapshot_csv(out_dir: str, idx: int, field) -> str:
    name = os.path.join(out_dir, f"snapshot_{idx:04d}.csv")
    if field.zeta is None:
        return write_csv(name, ["x", "theta", "theta_t"],
                         [field.x_nodes, field.theta, field.theta_t])
    return write_csv(name, ["x", "theta", "theta_t", "zeta"],
                     [field.x_nodes, field.theta, field.theta_t, field.zeta])


def write_eulerian_csv(out_dir: str, snap) -> str:
    name = os.path.join(out_dir, "eulerian.csv")
    if snap.theta_abs is None:
        return write_csv(name, ["r", "rho", "u"], [snap.r, snap.rho, snap.u])
    return write_csv(name, ["r", "rho", "u", "theta_abs"],
                     [snap.r, snap.rho, snap.u, snap.theta_abs])


def write_energy_reports(out_dir: str, reports) -> tuple[str, str]:
    """EnergyReport CSV (one ledger column per term) and its schema JSON."""
    term_names = sorted(reports[0].ledger)
    header = ["clock", "total_E", "total_D", "E0", "omega"] + term_names
    cols = [np.array([getattr(r, k) for r in reports]) for k in header[:5]]
    cols += [np.array([r.ledger[name] for r in reports]) for name in term_names]
    if reports[0].E_phys is not None:
        header += ["E_phys", "D_phys"]
        cols += [np.array([getattr(r, k) for r in reports]) for k in header[-2:]]
    csv = write_csv(os.path.join(out_dir, "energy_reports.csv"), header, cols)
    js = write_json(os.path.join(out_dir, "energy_schema.json"),
                    {"columns": header,
                     "ledger_terms": term_names,
                     "note": "D_* columns are time integrals accumulated along the run"})
    return csv, js
