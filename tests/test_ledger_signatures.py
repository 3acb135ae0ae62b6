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
               "d436c40172953fb8fcfee942a83085f1738af8bd5359bb68ee67d76369aec569"),
    "general-linear": ("evolve-linear", {"delta": -1e-3, "a1": 0.1}, 0.5,
                       "dff7a002c73009113ae92e44994acb961a2e9e284ead413ecd5f0a84539b4637"),
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
