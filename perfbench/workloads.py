"""The four benchmark workloads.

Each workload has the same four steps, and only `run` is timed:

- ``setup(op_seed)``: what a fresh process does before its first op, whose
  seed it is given (imports, star profiles, initial data);
- ``prepare(op_seed)``: the inputs of one op, deterministic in `op_seed`;
- ``run(inputs)``: the op itself, a call into starlab's public API;
- ``check(inputs, output)``: the op's correctness problems (a list, empty
  when the op is correct) and a signature of its physics outputs, which the
  traced run must reproduce exactly.

See README.md for why each workload was chosen.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import shutil
import tempfile

import numpy as np

# Calls go through module attributes, which the tracer patches.
from starlab import acceptance, cli, expansion, lagrangian, profiles
from starlab import functionals as F
from starlab.config import build_initial, validate_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = os.path.join(ROOT, ".bench_out")

# The acceptance suite's own bounds (c08, c10, c12).
OMEGA_MAX = 2e-3
THERMO_OMEGA_ENVELOPE = 2.0
MASS_RESIDUAL_MAX = 1e-8


def signature(obj) -> str:
    """Canonical text of a physics result; equal text means equal floats."""
    return json.dumps(obj, sort_keys=True, default=lambda o: o.item()
                      if hasattr(o, "item") else repr(o))


class SelfSimilarGrowth:
    """c09 inputs: negative-energy data on the self-similar star, run to growth."""

    name = "ss-growth"
    n_cells = 192
    amplitude = 1e-3
    s_end = 600.0

    def setup(self, op_seed):
        d = acceptance.SS_DELTA
        self.prof = profiles.solve_isentropic_profile(d)
        self.params = expansion.classify_expansion(d, 1.0, math.sqrt(2.0 * abs(d)))
        self.x = self.grid(self.n_cells)
        xm = 0.5 * (self.x[:-1] + self.x[1:])
        self.rho4 = self.x**4 * self.prof.rho_at(self.x)
        self.rho43 = xm**2 * self.prof.rho43_at(xm)
        self.prepare(op_seed)

    def grid(self, n_cells):
        return np.linspace(0.0, self.prof.R0, n_cells + 1)

    def data(self, x, seed):
        return acceptance.negative_energy_data(self.prof, acceptance.SS_DELTA, x,
                                               self.amplitude, seed)

    def prepare(self, op_seed):
        return self.data(self.x, op_seed)

    def run(self, inputs):
        phi0, phi1 = inputs
        E0, D0 = F.perturbation_energy_ss(self.x, phi0, phi1, self.rho4, self.rho43,
                                          1.0, acceptance.SS_DELTA, 0.0)
        spec = lagrangian.SolverSpec(n_cells=self.n_cells, n_emit=40, growth_threshold=0.1)
        return E0, D0, lagrangian.evolve_self_similar(self.prof, self.params, (phi0, phi1),
                                           self.s_end, spec)

    def check(self, inputs, output):
        E0, D0, run = output
        growth = [e.clock for e in run.events if e.kind == "growth"]
        problems = []
        if not E0 < 0:
            problems.append(f"E0 = {E0} is not negative")
        if not growth:
            problems.append("no growth event")
        return problems, signature({"E0": E0, "D0": D0, "growth_s": growth,
                                    "steps": len(run.times) - 1,
                                    "omega_end": F.amplitude(run.final)})


class LedgerScenario:
    """`cli.run_scenario` on a shipped config, seeded from the workload seed."""

    def __init__(self, name, config):
        self.name = name
        self.config = config

    def config_for(self, op_seed, out_dir):
        with open(os.path.join(ROOT, "configs", self.config)) as fh:
            raw = json.load(fh)
        raw["initial"]["seed"] = raw["seed"] = op_seed
        raw["out_dir"] = out_dir
        return validate_config(raw)

    def setup(self, op_seed):
        cfg = self.config_for(op_seed, OUT_ROOT)
        g, m = cfg.grid, cfg.model
        gs = profiles.GridSpec(n_cells=g.n_cells, rtol=g.rtol, atol=g.atol, y_max=g.y_max)
        thermo = cfg.scenario == "evolve-thermo"
        prof = (profiles.solve_thermo_profile(m.K, m.epsilon, gs) if thermo
                else profiles.solve_isentropic_profile(m.delta, gs))
        x = np.linspace(0.0, prof.R0, cfg.solver.n_cells + 1)
        build_initial(x, prof.R0, cfg.initial, thermo=thermo)

    def prepare(self, op_seed):
        os.makedirs(OUT_ROOT, exist_ok=True)
        return self.config_for(op_seed, tempfile.mkdtemp(dir=OUT_ROOT))

    def run(self, cfg):
        return cli.run_scenario(cfg)

    def check(self, cfg, report):
        s = report.summary
        problems = []
        if report.status != 0:
            problems.append(f"status {report.status}")
        if not s["completed"]:
            problems.append(f"run did not complete: {report.events}")
        if cfg.scenario == "evolve-thermo":
            # c10 bounds omega_max by 2e-3 for omega_0 = 1e-3; defaults.json
            # does not normalise omega_0, so the same envelope is relative.
            if not s["omega_max"] <= THERMO_OMEGA_ENVELOPE * s["omega_initial"]:
                problems.append(f"omega_max {s['omega_max']} above "
                                f"{THERMO_OMEGA_ENVELOPE} omega_0")
            for path in sorted(glob.glob(os.path.join(cfg.out_dir, "snapshot_*.csv"))):
                zeta_R0 = float(_read_csv(path)["zeta"][-1])
                if zeta_R0 != 0.0:
                    problems.append(f"zeta(R0) = {zeta_R0} in {os.path.basename(path)}")
        elif not s["omega_max"] <= OMEGA_MAX:
            problems.append(f"omega_max {s['omega_max']} above {OMEGA_MAX}")
        if not s["mass_identity_residual"] < MASS_RESIDUAL_MAX:
            problems.append(f"mass identity residual {s['mass_identity_residual']}")
        ledger = _read_csv(os.path.join(cfg.out_dir, "energy_reports.csv"))
        bad = [k for k, col in ledger.items() if not np.all(np.isfinite(col))]
        if bad:
            problems.append(f"non-finite ledger terms {bad}")
        digests = {}
        for path in sorted(glob.glob(os.path.join(cfg.out_dir, "*.csv"))):
            with open(path, "rb") as fh:
                digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
        shutil.rmtree(cfg.out_dir)
        return problems, signature({"summary": s, "csv_sha256": digests})


def _read_csv(path) -> dict:
    data = np.genfromtxt(path, delimiter=",", names=True)
    return {k: np.atleast_1d(data[k]) for k in data.dtype.names}


class Verify:
    """`acceptance.run_all()` from a cold profile cache: `starlab verify`."""

    name = "verify"

    def setup(self, op_seed):
        pass

    def prepare(self, op_seed):
        acceptance._cache.clear()

    def run(self, inputs):
        return acceptance.run_all()

    def check(self, inputs, results):
        problems = [f"c{r.cid:02d} failed: {r.error}" for r in results if not r.passed]
        return problems, signature([
            (r.cid, r.passed, {k: v for k, v in r.details.items() if k != "runtime_s"})
            for r in results])


WORKLOADS = {
    "ss-growth": SelfSimilarGrowth,
    "linear-ledger": lambda: LedgerScenario("linear-ledger", "stability_linear.json"),
    "thermo-ledger": lambda: LedgerScenario("thermo-ledger", "defaults.json"),
    "verify": Verify,
}


def make(name):
    return WORKLOADS[name]()

