"""One background per grid: sampling, grid checks, and profile evaluation counts."""

import json
import os

import numpy as np
import pytest

import starlab.functionals as F
from starlab import classify_expansion
from starlab.cli import run_scenario
from starlab.config import validate_config
from starlab.errors import InvalidParams
from starlab.expansion import AlphaClock
from starlab.lagrangian import (LINEAR_REGIME, THERMO_REGIME, PerturbationField,
                                reconstruct_eulerian)
from starlab.profiles import IsentropicProfile, ThermoProfile, sample_background

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
N = 96


def grid(prof, n=N):
    return np.linspace(0.0, prof.R0, n + 1)


class TestSampling:
    @pytest.mark.parametrize("n", [8, N])
    def test_isentropic_samples_equal_profile_evaluations(self, iso0, n):
        x = grid(iso0, n)
        xm = 0.5 * (x[:-1] + x[1:])
        bg = sample_background(iso0, x)
        assert bg.R0 == iso0.R0
        assert np.array_equal(bg.x, x) and np.array_equal(bg.xm, xm)
        assert np.array_equal(bg.rho, iso0.rho_at(x))
        assert np.array_equal(bg.rho_m, iso0.rho_at(xm))
        assert np.array_equal(bg.rho43, iso0.rho43_at(x))
        assert np.array_equal(bg.rho43_m, iso0.rho43_at(xm))
        assert np.array_equal(bg.chi, F.chi_cutoff(x, iso0.R0))
        assert bg.theta is None and bg.K is None

    @pytest.mark.parametrize("n", [8, N])
    def test_thermo_samples_equal_profile_evaluations(self, thermo14, n):
        p = thermo14
        x = grid(p, n)
        xm = 0.5 * (x[:-1] + x[1:])
        bg = sample_background(p, x)
        assert np.array_equal(bg.rho, p.rho_at(x))
        assert np.array_equal(bg.rho_m, p.rho_at(xm))
        assert np.array_equal(bg.theta, p.theta_at(x))
        assert np.array_equal(bg.theta_m, p.theta_at(xm))
        assert np.array_equal(bg.thetap_m, p.thetaprime_at(xm))
        assert np.array_equal(bg.ptheta_m, p.K * p.rho_at(xm) * p.theta_at(xm))
        assert np.array_equal(bg.chi, F.chi_cutoff(x, p.R0))
        assert bg.K == p.K and bg.rho43 is None

    def test_arrays_are_read_only_and_private(self, iso0):
        x = grid(iso0)
        bg = sample_background(iso0, x)
        with pytest.raises(ValueError):
            bg.rho[0] = 0.0
        assert bg.x is not x and x.flags.writeable


class TestGridMismatch:
    def test_isentropic_consumers_reject_another_grid(self, iso0, iso_ss):
        x = grid(iso0)
        z = 0 * x
        pars = classify_expansion(0.0, 1.0, 1.0)
        # coarser grid, and a grid with the same node count but another R0
        for bg in (sample_background(iso0, x[::2]), sample_background(iso_ss, grid(iso_ss))):
            f = PerturbationField(x, z, z, z, 0.0, LINEAR_REGIME, background=bg)
            with pytest.raises(InvalidParams):
                F.ledger_terms_isentropic([f], bg, F.WeightSpec(), [1.0])
            with pytest.raises(InvalidParams):
                F.dissipation_integrands_isentropic([f], bg, F.WeightSpec(), [1.0])
            with pytest.raises(InvalidParams):
                F.initial_energy_isentropic(x, z, z, z, bg)
            with pytest.raises(InvalidParams):
                reconstruct_eulerian(f, AlphaClock(pars, LINEAR_REGIME))

    def test_thermo_consumers_reject_another_grid(self, thermo14):
        x = grid(thermo14)
        z = 0 * x
        bg = sample_background(thermo14, x[::2])
        f = PerturbationField(x, z, z, z, 0.0, THERMO_REGIME, z, z, background=bg)
        with pytest.raises(InvalidParams):
            F.ledger_terms_thermo([f], bg, F.WeightSpec(), 20.0)
        with pytest.raises(InvalidParams):
            F.dissipation_integrands_thermo([f], bg, F.WeightSpec(), 20.0)

    def test_field_without_background_cannot_be_reconstructed(self, iso0):
        x = grid(iso0)
        f = PerturbationField(x, 0 * x, 0 * x, None, 0.0, LINEAR_REGIME)
        with pytest.raises(InvalidParams):
            reconstruct_eulerian(f, AlphaClock(classify_expansion(0.0, 1.0, 1.0),
                                               LINEAR_REGIME))


@pytest.mark.parametrize("config, cls, method", [
    ("stability_linear.json", IsentropicProfile, "w_at"),
    ("defaults.json", ThermoProfile, "_eval"),
])
def test_scenario_evaluates_the_profile_a_fixed_number_of_times(
        monkeypatch, tmp_path, config, cls, method):
    calls = []
    original = getattr(cls, method)

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, counted)
    with open(os.path.join(CONFIGS, config)) as fh:
        raw = json.load(fh)
    counts = []
    for scale in (1.0, 2.0):
        calls.clear()
        cfg = validate_config({**raw, "time": {**raw["time"], "end": scale * raw["time"]["end"]},
                               "out_dir": str(tmp_path / f"x{scale}")})
        report = run_scenario(cfg)
        assert report.status == 0 and report.summary["completed"]
        counts.append(len(calls))
    assert 0 < counts[0] <= 20
    assert counts[1] == counts[0]
