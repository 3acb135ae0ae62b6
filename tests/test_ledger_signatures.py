"""Characterisation of the energy ledger's exact output.

SHA-256 of `energy_reports.csv` that `cli.run_scenario` writes for short
linearly expanding runs (32 cells, 5 emissions): isentropic with delta = 0
and on a general linear path (delta != 0), and thermodynamic.  A refactor of
the ledger must reproduce these bits.

The two shipped ledger configs pin every CSV they write: `energy_reports.csv`,
`eulerian.csv` and, as one digest of their sorted `name sha256` lines, the
snapshots.  A refactor of the ledger or of the CSV writer must keep them too.
The digests assume the paths `test_step_signatures.py` names (numpy's AVX-512
`power`, `exp`, `log` and `cbrt`, libm, LAPACK's `dgtsv`); on numpy's AVX2 path
every test here fails.
"""

import hashlib
import json
import os

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


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = {
    "stability_linear.json": {
        "energy_reports.csv": "01e5751a5666e2d43d2a7f190e954e9b0cd244d6d03db04282a5855fa0146591",
        "eulerian.csv": "1e9413554478d0da901e0c1df301128b09625d91c79ece532eda1a79bc0e292e",
        "snapshot_*.csv": "7a0c83b53d5696dfde0b49e5559f4c525148d897a6818d8402d82acb85756326"},
    "defaults.json": {
        "energy_reports.csv": "641d4927d76758b3a69800855aa505251fe71290c4311f87834707f22cbc50ec",
        "eulerian.csv": "be0f82dbb4d56af0a161e71f602cf0d18c4eddf47ea4769ff9d076281d2a3704",
        "snapshot_*.csv": "517a65b91edbddf0a312903275255c3054c5d6715e3551508e24c42cfa7fa18c"},
}


@pytest.mark.parametrize("config", sorted(SHIPPED))
def test_shipped_config_csv_bits(tmp_path, config):
    with open(os.path.join(CONFIGS, config)) as fh:
        raw = json.load(fh)
    raw["out_dir"] = str(tmp_path)
    report = run_scenario(validate_config(raw))
    assert report.status == 0 and report.summary["completed"]
    shas = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.glob("*.csv"))}
    snaps = "".join(f"{n} {h}\n" for n, h in shas.items() if n.startswith("snapshot_"))
    got = {n: h for n, h in shas.items() if not n.startswith("snapshot_")}
    got["snapshot_*.csv"] = hashlib.sha256(snaps.encode()).hexdigest()
    assert got == SHIPPED[config]
