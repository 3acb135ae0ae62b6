"""Characterisation of the energy ledger's exact output.

SHA-256 of `energy_reports.csv` that `cli.run_scenario` writes for short
linearly expanding runs (32 cells, 5 emissions): isentropic with delta = 0
and on a general linear path (delta != 0), and thermodynamic.  A refactor of
the ledger must reproduce these bits.
"""

import hashlib

import pytest

from starlab.cli import run_scenario
from starlab.config import validate_config

CASES = {
    "linear": ("evolve-linear", {"delta": 0.0, "a1": 1.0}, 0.5,
               "597911d2a7f355aada584e4f15e9f23670da5d8060eb106115e394e88e94ae38"),
    "general-linear": ("evolve-linear", {"delta": -1e-3, "a1": 0.1}, 0.5,
                       "33db77d4659f17c32409aaace8908ae91e13fd8a89f0e6333493c298da168904"),
    "thermo": ("evolve-thermo", {"kind": "thermo", "a1": 20.0}, 0.05,
               "cf2425134330ea3c54301bb02988579ccf7967eeaa94e90e5771314a47fa72be"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_energy_reports_bits(tmp_path, case):
    scenario, model, end, digest = CASES[case]
    cfg = validate_config({
        "scenario": scenario, "model": model, "solver": {"n_cells": 32},
        "initial": {"family": "random-smooth", "amplitude": 1e-3, "seed": 4},
        "time": {"end": end, "n_emit": 5}, "out_dir": str(tmp_path),
    })
    report = run_scenario(cfg)
    assert report.status == 0 and report.summary["completed"]
    data = (tmp_path / "energy_reports.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
