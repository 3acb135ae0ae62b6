import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from starlab import (acceptance, classify_expansion, expansion, homogeneous, kernel,
                     lagrangian, profiles, solve_isentropic_profile)
from starlab.cli import main, run_scenario
from starlab.config import (InitialSpec, build_initial, family_shape,
                            validate_config)
from starlab.errors import ConfigInvalid
from starlab.lagrangian import SolverSpec, evolve_linear_isentropic

DEFAULTS = os.path.join(os.path.dirname(__file__), "..", "configs", "defaults.json")
STABILITY_LINEAR = os.path.join(os.path.dirname(DEFAULTS), "stability_linear.json")


@pytest.fixture(scope="module")
def iso_unstable():
    return solve_isentropic_profile(-1.5e-3)


class TestValidation:
    def test_defaults_file_valid(self):
        with open(DEFAULTS) as fh:
            cfg = validate_config(json.load(fh))
        w = cfg.weights
        assert (w.r1, w.r2, w.l1, w.l2, w.frak_r, w.r3) == (0.5, -0.5, -2.5, -2.0, -1.5, -2.5)

    def test_a_constraint_named(self):
        with pytest.raises(ConfigInvalid) as exc:
            validate_config({"scenario": "evolve-linear", "weights": {"a": 1.5}})
        assert any("0 < a < 1" in e for e in exc.value.errors)

    def test_thermo_gate_named(self):
        with pytest.raises(ConfigInvalid) as exc:
            validate_config({"scenario": "evolve-thermo",
                             "model": {"K": 1.0, "c_nu": 2.0, "epsilon": 0.25}})
        assert any("3K - c_nu = 0" in e for e in exc.value.errors)

    def test_all_errors_collected(self):
        with pytest.raises(ConfigInvalid) as exc:
            validate_config({"scenario": "evolve-thermo",
                             "model": {"K": 1.0, "c_nu": 2.0, "a0": -1.0},
                             "weights": {"a": 2.0},
                             "time": {"end": -1.0}})
        msgs = exc.value.errors
        assert len(msgs) >= 4

    def test_self_similar_needs_escape_speed(self):
        with pytest.raises(ConfigInvalid) as exc:
            validate_config({"scenario": "evolve-ss",
                             "model": {"delta": -1e-3, "a1": 1.0}})
        assert any("sqrt(2|delta|/a0)" in e for e in exc.value.errors)
        cfg = validate_config({"scenario": "evolve-ss",
                               "model": {"delta": -1e-3, "a1": None}})
        assert cfg.model.a1 is None

    def test_non_numeric_delta_named(self):
        with pytest.raises(ConfigInvalid) as exc:
            validate_config({"model": {"delta": "abc"}})
        assert any("model.delta" in e and "'abc'" in e for e in exc.value.errors)

    @pytest.mark.parametrize("raw, field", [
        ({"solver": {"n_cells": "many"}}, "solver.n_cells"),
        ({"time": {"end": [1.0]}}, "time.end"),
        ({"weights": {"a": None}}, "weights.a"),
        ({"seed": "x"}, "seed"),
    ])
    def test_non_numeric_field_named(self, raw, field):
        with pytest.raises(ConfigInvalid) as exc:
            validate_config({"scenario": "evolve-linear", **raw})
        assert any(e.startswith(f"{field} must be a number") for e in exc.value.errors)

    def test_null_optional_numbers_accepted(self):
        cfg = validate_config({"scenario": "evolve-ss", "model": {"delta": -0.5, "a1": None},
                               "solver": {"dt_max": None}})
        assert cfg.model.a1 is None and cfg.solver.dt_max is None

    @pytest.mark.parametrize("scenario, raw, message", [
        ("evolve-linear", {"solver": {"n_cells": 3}}, "solver.n_cells >= 8"),
        ("evolve-linear", {"time": {"n_emit": 0}}, "time.n_emit >= 2"),
        ("evolve-linear", {"solver": {"max_rel_change": -1}}, "solver.max_rel_change > 0"),
        ("evolve-linear", {"solver": {"dt_max": -1}}, "solver.dt_max > 0 when set"),
        ("profile", {"grid": {"y_max": -5}}, "grid.y_max > 0"),
        ("evolve-thermo", {"solver": {"order": 2}}, "solver.order = 1 for evolve-thermo"),
        # epsilon*K = 0.5 with both negative: profile ended in a sqrt warning and
        # ToleranceNotMet, evolve-thermo named "3K - c_nu = 0" for 3K = c_nu = -6
        ("profile", {"model": {"kind": "thermo", "K": -2, "epsilon": -0.25}}, "model.K > 0"),
        ("evolve-thermo", {"model": {"K": -2, "epsilon": -0.25, "c_nu": -6}}, "model.K > 0"),
    ])
    def test_constraint_named(self, scenario, raw, message):
        with pytest.raises(ConfigInvalid) as exc:
            validate_config({"scenario": scenario, **raw})
        assert exc.value.errors == [message]

    def test_isentropic_schemes_accepted(self):
        cfg = validate_config({"scenario": "evolve-linear",
                               "solver": {"order": 2, "dt_max": 0.1}})
        assert cfg.solver.order == 2

    def test_bad_json(self):
        # JSON text is the CLI's to parse; validate_config takes the parsed object
        with pytest.raises(ConfigInvalid) as exc:
            validate_config("{not json")
        assert exc.value.errors == ["a config is a JSON object, got str"]


class TestFamilies:
    @pytest.mark.parametrize("family", ["constant", "bump", "random-smooth"])
    def test_unit_scale_and_boundary(self, family):
        x = np.linspace(0.0, 10.0, 401)
        shape = family_shape(x, 10.0, InitialSpec(family=family, seed=4))
        assert np.max(np.abs(shape)) <= 1.0 + 1e-12
        # boundary-compatible: x * d shape/dx vanishes at R0
        dsh = np.gradient(shape, x, edge_order=2)
        assert abs(x[-1] * dsh[-1]) < 0.05

    def test_seed_determinism(self):
        x = np.linspace(0.0, 10.0, 101)
        a = family_shape(x, 10.0, InitialSpec(family="random-smooth", seed=9))
        b = family_shape(x, 10.0, InitialSpec(family="random-smooth", seed=9))
        c = family_shape(x, 10.0, InitialSpec(family="random-smooth", seed=10))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_thermo_zeta_compatible(self):
        x = np.linspace(0.0, 10.0, 101)
        _, _, z0 = build_initial(x, 10.0, InitialSpec(family="bump"), thermo=True)
        assert z0[-1] == 0.0


class TestScenarios:
    def test_phase_scenario_artifacts(self, tmp_path):
        cfg = validate_config({
            "scenario": "phase",
            "model": {"delta": -0.5},
            "time": {"end": 3.0},
            "out_dir": str(tmp_path),
        })
        report = run_scenario(cfg)
        assert report.status == 0
        names = sorted(os.listdir(tmp_path))
        assert sum(n.startswith("trajectory_") for n in names) == 9
        assert "portrait.svg" in names and "fates.json" in names
        fates = json.load(open(tmp_path / "fates.json"))
        assert len(fates["trajectories"]) == 9
        kinds = {f["fate"] for f in fates["trajectories"]}
        assert "Stationary" in kinds

    def test_evolve_ss_zero_amplitude(self, tmp_path):
        cfg = validate_config({
            "scenario": "evolve-ss",
            "model": {"delta": -1e-3, "a1": None},
            "solver": {"n_cells": 48},
            "initial": {"family": "constant", "amplitude": 0.0},
            "time": {"end": 0.5, "n_emit": 5},
            "out_dir": str(tmp_path),
        })
        report = run_scenario(cfg)
        assert report.status == 0
        assert report.summary["omega_max"] == 0.0
        snap = np.loadtxt(tmp_path / "snapshot_0002.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(snap[:, 1:])) == 0.0

    def test_evolve_linear_writes_reports(self, tmp_path):
        # the second model is a general linear path (delta != 0)
        for i, model in enumerate(({"delta": 0.0, "a0": 1.0, "a1": 1.0},
                                   {"delta": -1e-3, "a1": 0.1})):
            out = tmp_path / str(i)
            cfg = validate_config({
                "scenario": "evolve-linear",
                "model": model,
                "solver": {"n_cells": 48},
                "initial": {"family": "bump", "amplitude": 1e-4},
                "time": {"end": 0.5, "n_emit": 6},
                "out_dir": str(out),
            })
            report = run_scenario(cfg)
            assert report.status == 0
            names = os.listdir(out)
            assert "energy_reports.csv" in names and "energy_schema.json" in names
            schema = json.load(open(out / "energy_schema.json"))
            header = open(out / "energy_reports.csv").readline().strip().split(",")
            assert header == schema["columns"]
            assert "manifest.json" in names and "eulerian.csv" in names

    @pytest.mark.parametrize("scenario, model, extra", [
        ("evolve-ss", {"delta": -1e-3, "a1": None}, {"amplitude.svg", "energy.svg"}),
        ("evolve-linear", {"delta": 0.0}, {"amplitude.svg", "energy_reports.csv",
                                           "energy_schema.json"}),
        ("evolve-thermo", {"kind": "thermo"}, {"amplitude.svg", "energy_reports.csv",
                                               "energy_schema.json"}),
    ])
    def test_normalized_evolution_files(self, tmp_path, monkeypatch, scenario, model, extra):
        thermo = scenario == "evolve-thermo"
        if thermo:
            # zeta / (R0 - x) = 100 A / R0 everywhere: the zeta term sets omega
            monkeypatch.setattr("starlab.cli.build_initial", lambda x, R0, spec, thermo:
                                (0 * x + spec.amplitude, 0 * x,
                                 100.0 * spec.amplitude * (R0 - x) / R0))
        cfg = validate_config({
            "scenario": scenario, "model": model,
            "solver": {"n_cells": 32},
            "initial": {"family": "random-smooth", "amplitude": 1e-4, "seed": 5,
                        "normalize_omega": True},
            "time": {"end": 0.05, "n_emit": 4},
            "out_dir": str(tmp_path),
        })
        report = run_scenario(cfg)
        assert report.status == 0 and report.summary["completed"]
        assert abs(report.summary["omega_initial"] - 1e-4) < 1e-12
        snaps = {f"snapshot_{i:04d}.csv" for i in range(4)}
        assert set(os.listdir(tmp_path)) == snaps | extra | {"eulerian.csv", "manifest.json"}
        # evolve-ss asks its run for E/D/W: the identity residual is reported
        assert ("energy_identity_residual" in report.summary) == (scenario == "evolve-ss")
        if thermo:
            x, theta, _, zeta = np.loadtxt(tmp_path / "snapshot_0000.csv", delimiter=",",
                                           skiprows=1, unpack=True)
            assert abs(np.max(np.abs(zeta[:-1] / (x[-1] - x[:-1]))) - 1e-4) < 1e-12
            # theta shares the scale the zeta term set: A R0 / 100, not A
            assert np.allclose(theta, 1e-6 * x[-1], rtol=1e-12, atol=0.0)

    def test_one_alpha_clock_per_run(self, tmp_path, monkeypatch):
        # a general linear path builds one alpha clock, in closed form: the
        # ledger's physical energies and the final reconstruction use the run's clock
        for module in (lagrangian, expansion, homogeneous, profiles, acceptance):
            assert not hasattr(module, "solve_ivp")
        built = []
        clock_class = expansion.AlphaClock
        assert lagrangian.AlphaClock is clock_class
        for module in (expansion, lagrangian):
            monkeypatch.setattr(module, "AlphaClock",
                                lambda *a, **kw: built.append(a) or clock_class(*a, **kw))
        with open(STABILITY_LINEAR) as fh:
            raw = json.load(fh)
        raw["model"].update(delta=-1e-3, a1=0.1)
        raw["out_dir"] = str(tmp_path)
        cfg = validate_config(raw)
        assert (cfg.solver.n_cells, cfg.time.end, cfg.solver.n_emit) == (128, 10.0, 81)
        report = run_scenario(cfg)
        assert report.status == 0 and report.summary["completed"]
        assert "energy_reports.csv" in os.listdir(tmp_path)
        assert len(built) == 1

    def test_starlab_runs_never_import_scipy(self, tmp_path):
        # both stars come from the in-house DOP853, the kernel solves with numpy's own LAPACK
        # and c01 reads the pinned Lane-Emden constants; only the tests and the LAPACK
        # fallback load scipy
        ss = tmp_path / "ss.json"
        ss.write_text(json.dumps({"model": {"delta": -1e-3, "a1": None},
                                  "solver": {"n_cells": 32}, "time": {"end": 0.05, "n_emit": 4}}))
        argvs = [[scenario, "--config", config, "--out", str(tmp_path / scenario)]
                 for scenario, config in [("evolve-linear", STABILITY_LINEAR),
                                          ("evolve-thermo", DEFAULTS), ("evolve-ss", str(ss))]]
        code = (f"import json, sys\nfrom starlab import acceptance, kernel\n"
                f"from starlab.cli import main\n"
                f"assert [main(argv) for argv in {argvs!r}] == [0, 0, 0]\n"
                "assert [r.passed for r in acceptance.run_all(ids={1})] == [True]\n"
                "print(json.dumps([kernel.LAPACK, "
                "[m for m in sys.modules if m.split('.')[0] == 'scipy']]))\n")
        src = os.path.join(os.path.dirname(DEFAULTS), "..", "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        lapack, loaded = json.loads(done.stdout.splitlines()[-1])
        if lapack == "scipy.linalg.lapack":     # a numpy build without dgtsv: the fallback's
            loaded = [m for m in loaded if m.split(".")[1:2] in (["integrate"], ["optimize"])]
        assert loaded == []

    def test_scipys_lapack_serves_where_numpys_has_no_dgtsv(self, tmp_path, request):
        # the lookup misses: the same files, bit for bit, and the manifest names scipy's LAPACK
        files, lapacks, found = {}, [], kernel.LAPACK
        for side in ("numpy", "scipy"):
            if side == "scipy":
                request.getfixturevalue("scipy_lapack")
            out = tmp_path / side
            assert main(["evolve-thermo", "--config", DEFAULTS, "--out", str(out)]) == 0
            files[side] = {name: (out / name).read_bytes() for name in os.listdir(out)}
            manifest = json.loads(files[side].pop("manifest.json"))
            lapacks.append(manifest.pop("lapack"))
            assert manifest["config"].pop("out_dir") == str(out)
            files[side]["manifest.json"] = manifest
        assert files["numpy"] == files["scipy"]
        assert lapacks == [found, "scipy.linalg.lapack"]

    def test_determinism(self, tmp_path):
        raw = {
            "scenario": "evolve-linear",
            "model": {"delta": 0.0},
            "solver": {"n_cells": 32},
            "initial": {"family": "random-smooth", "amplitude": 1e-4, "seed": 12},
            "time": {"end": 0.3, "n_emit": 4},
            "seed": 12,
        }
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            cfg = validate_config({**raw, "out_dir": str(d)})
            run_scenario(cfg)
            outs.append(d)
        for name in sorted(os.listdir(outs[0])):
            if name.endswith(".csv"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestMain:
    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"weights": {"a": 2.0}}))
        code = main(["evolve-linear", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "0 < a < 1" in capsys.readouterr().err

    def test_non_numeric_value_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"delta": "abc"}}))
        code = main(["evolve-linear", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "model.delta must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read"),
        ("{not json", "cannot read"),
        ("[1, 2]", "not a JSON object"),
        ('{"initial": {"family": "random-smooth", "modes": 0}}', "initial.modes >= 1"),
        ('{"model": {"a1": null}}', "model.a1 = null only on evolve-ss"),
        ('{"solver": [1]}', "solver must be an object"),
        ('{"model": {"delta": -1e-3, "a1": 0.01}}',
         "evolve-linear needs a Linear expansion of (delta, a0, a1), got Collapse"),
        ('{"model": {"delta": 0.5}}',
         "evolve-linear needs a Linear expansion of (delta, a0, a1), got PositiveDelta"),
        ('{"model": {"delta": 0, "a1": -1}}',
         "evolve-linear needs a Linear expansion of (delta, a0, a1), got Collapse"),
        # a retired scheme key fails by name instead of running order 1
        ('{"solver": {"fully_implicit": false}}', "solver.fully_implicit is not a key"),
        # library-only fields: a manifest no longer writes them, so an edit fails by name
        ('{"solver": {"dt_floor": 1e-3}}', "solver.dt_floor is not a key"),
        ('{"solver": {"dt_init": 1e-3}}', "solver.dt_init is not a key"),
    ])
    def test_malformed_config_exit_code(self, tmp_path, capsys, content, message):
        path = tmp_path / "c.json"
        if content is not None:
            path.write_text(content)
        code = main(["evolve-linear", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("scenario, content, message", [
        # the first two ran until a 60 s timeout; the rest ended in a ValueError traceback
        ("expansion", '{"time": {"end": Infinity}}', "time.end is finite"),
        ("expansion", '{"model": {"delta": NaN}}', "model.delta is finite"),
        ("expansion", '{"model": {"a1": Infinity}}', "model.a1 is finite"),
        ("phase", '{"model": {"delta": -0.5}, "phase_grid": [[NaN, 0.0]]}',
         "phase_grid entries are finite"),
        ("phase", '{"model": {"delta": -0.5}, "phase_grid": [[0.0, Infinity]]}',
         "phase_grid entries are finite"),
        ("phase", '{"model": {"delta": -0.5}, "time": {"end": NaN}}', "time.end is finite"),
        ("evolve-linear", '{"model": {"a0": -Infinity}}', "model.a0 is finite"),
    ])
    def test_non_finite_value_named(self, tmp_path, capsys, scenario, content, message):
        path = tmp_path / "c.json"
        path.write_text(content)
        code = main([scenario, "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: ") and message in err.splitlines()[0]

    @pytest.mark.parametrize("scenario, model, end", [
        ("evolve-linear", {"a1": 10.0}, 21.0),
        ("evolve-thermo", {"kind": "thermo", "a1": 20.0}, 40.0),
    ])
    def test_ledger_overflow_named(self, tmp_path, capsys, scenario, model, end):
        # alpha^4 = e^{4 a1 time.end} overflows; these ended in a bare OverflowError
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"model": model, "solver": {"n_cells": 16},
                                    "time": {"end": end}}))
        code = main([scenario, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == ("config error: a1 * time.end + ln max(a0, 1) < 177.4 "
                                           "(the ledger's alpha^4 overflows beyond)\n")

    def test_self_similar_overflow_named(self, tmp_path, capsys):
        # alpha^(5/2) = e^{2.5 sqrt(2|delta|) s} overflows at time.end = 16000, which
        # ended in a bare OverflowError; at 6347 alpha^-3 underflows and the run
        # exited 0 with a mass identity residual of 1
        for end in (16000, 6347):
            path = tmp_path / "c.json"
            path.write_text(json.dumps({"model": {"delta": -1e-3, "a1": None},
                                        "solver": {"n_cells": 16}, "initial": {"amplitude": 0},
                                        "time": {"end": end, "n_emit": 3}}))
            code = main(["evolve-ss", "--config", str(path), "--out", str(tmp_path / "o")])
            assert code == 1
            assert capsys.readouterr().err == ("config error: sqrt(2|delta|) * time.end "
                                               "+ ln max(a0, 1) < 236.1 (the reconstruction's "
                                               "alpha^-3 underflows beyond)\n")

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
    def test_growth_threshold_named(self, tmp_path, capsys, threshold):
        # 0 and -1 stopped evolve-ss after its first step with exit 0; NaN never fired
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"model": {"delta": -1e-3, "a1": None},
                                    "solver": {"n_cells": 16, "growth_threshold": threshold},
                                    "time": {"end": 1.0, "n_emit": 3}}))
        code = main(["evolve-ss", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "config error: solver.growth_threshold > 0\n"
        with pytest.raises(ConfigInvalid) as exc:
            SolverSpec(growth_threshold=threshold)
        assert exc.value.errors == ["solver.growth_threshold > 0"]

    def test_thermo_order_two_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"solver": {"order": 2}}))
        code = main(["evolve-thermo", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "solver.order = 1 for evolve-thermo" in capsys.readouterr().err

    def test_general_linear_path_exits_zero(self, tmp_path):
        # delta != 0 on the linear branch used to fail after the run, when
        # the Eulerian reconstruction asked for an integrated path
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"delta": -1e-3, "a1": 0.1},
                                   "solver": {"n_cells": 48}, "time": {"end": 0.5}}))
        code = main(["evolve-linear", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "eulerian.csv").exists()

    def test_stability_range_event(self, tmp_path, iso_unstable):
        # delta <= -a0 a1^2/8: a non-stop event in the run and in manifest.json
        pars = classify_expansion(-1.5e-3, 1.0, 0.1)
        z = np.zeros(49)
        with pytest.warns(UserWarning, match="stability range") as caught:
            run = evolve_linear_isentropic(iso_unstable, pars, (z, z), 0.05,
                                           SolverSpec(n_cells=48, n_emit=2))
        assert caught[0].filename == __file__          # the caller's line, not the driver's
        assert run.completed
        assert [(e.kind, e.clock) for e in run.events] == [("outside-stability-range", 0.0)]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"delta": -1.5e-3, "a1": 0.1},
                                   "solver": {"n_cells": 48}, "time": {"end": 0.05}}))
        for flags, expected in (([], 0), (["--verify"], 2)):
            out = tmp_path / f"o{len(flags)}"
            with pytest.warns(UserWarning, match="stability range"):
                code = main(["evolve-linear", "--config", str(cfg), "--out", str(out)] + flags)
            assert code == expected
            with open(out / "manifest.json") as fh:
                events = json.load(fh)["events"]
            assert [(e["kind"], e["clock"]) for e in events] == [("outside-stability-range", 0.0)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("content, message", [
        # a star with no zero ran until killed at 60 s; the solve takes ~3.6 steps per unit y
        ('{"grid": {"y_max": Infinity}, "model": {"delta": -0.5}}',
         "ToleranceNotMet: isentropic profile integration failed: no event within 10000 "
         "steps, up to t = 2755.25\n"),
        # below the series start the solve ran backwards into divide-by-zero warnings
        ('{"grid": {"y_max": 1e-300}}', "NoFirstZero: isentropic profile: grid.y_max = 1e-300 "
         "is not beyond the series start y = 0.0138\n"),
        ('{"grid": {"y_max": 0.0138}, "model": {"kind": "thermo"}}', "NoFirstZero: thermo "
         "profile: grid.y_max = 0.0138 is not beyond the series start y = 0.0138\n"),
    ])
    def test_unusable_y_max_named(self, tmp_path, capsys, content, message):
        path = tmp_path / "c.json"
        path.write_text(content)
        t0 = time.perf_counter()
        code = main(["profile", "--config", str(path), "--out", str(tmp_path / "o")])
        # the 10000-step budget takes 1.2-2.0 s on a 2-core host; the bound catches a hang
        assert time.perf_counter() - t0 < 4.0
        assert code == 2 and capsys.readouterr().err == message

    def test_profile_scenario(self, tmp_path, capsys):
        code = main(["profile", "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "profile.csv").exists()
        header = open(tmp_path / "o" / "profile.csv").readline().strip()
        assert header == "y,w,rho_bar"

    def test_expansion_scenario(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"delta": -0.5, "a0": 1.0, "a1": 1.0},
                                   "time": {"end": 2.0}}))
        code = main(["expansion", "--config", str(cfg), "--out", str(tmp_path / "e")])
        assert code == 0
        header = open(tmp_path / "e" / "expansion.csv").readline().strip()
        assert header == "t,alpha,alpha_prime,s"

    def test_expansion_collapse_event(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"delta": -0.5, "a0": 1.0, "a1": 0.5},
                                   "time": {"end": 10.0}}))
        code = main(["expansion", "--config", str(cfg), "--out", str(tmp_path / "e")])
        assert code == 0
        with open(tmp_path / "e" / "manifest.json") as fh:
            events = json.load(fh)["events"]
        assert [e["kind"] for e in events] == ["collapse-reached"]
        assert "crossing" not in events[0]
        assert events[0]["detail"].startswith("T ~ ")

    def test_runtime_event_fails_under_verify(self, tmp_path, capsys):
        # growth event on an unstable run: plain exit 0, but 2 under --verify
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "model": {"delta": -1e-3, "a1": None},
            "solver": {"n_cells": 48, "growth_threshold": 0.02},
            "initial": {"family": "constant", "amplitude": 0.0, "amplitude_t": 0.015},
            "time": {"end": 40.0, "n_emit": 9},
        }))
        code = main(["evolve-ss", "--config", str(cfg), "--out", str(tmp_path / "g")])
        assert code == 0
        # the growth event carries its located crossing, at or before its clock,
        # in manifest.json and on the printed event line
        with open(tmp_path / "g" / "manifest.json") as fh:
            events = json.load(fh)["events"]
        assert [e["kind"] for e in events] == ["growth"]
        g = events[0]
        assert 0.0 < g["crossing"] <= g["clock"]
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("event: ")]
        assert printed == [f"event: growth at clock {g['clock']:.6g} {g['detail']} "
                           f"crossing {g['crossing']:.6g}"]
        code = main(["evolve-ss", "--config", str(cfg), "--out", str(tmp_path / "g2"),
                     "--verify"])
        assert code == 2

    def test_a_stopped_ledger_run_writes_its_ledger(self, tmp_path, capsys):
        # a uniform compression degenerates the flow map mid-run: the run still writes
        # one ledger row per snapshot (its last carries its step's rates) and exits 0,
        # and 2 under --verify
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "solver": {"n_cells": 48, "max_rel_change": 1e6, "growth_threshold": 1e9},
            "initial": {"family": "constant", "amplitude": 0.0, "amplitude_t": -5.0},
            "time": {"end": 1.0, "n_emit": 5},
        }))
        out = tmp_path / "s"
        code = main(["evolve-linear", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        with open(out / "manifest.json") as fh:
            events = json.load(fh)["events"]
        assert [e["kind"] for e in events] == ["jacobian-degenerate"]
        snapshots = [n for n in os.listdir(out) if n.startswith("snapshot_")]
        with open(out / "energy_reports.csv") as fh:
            rows = fh.read().splitlines()[1:]
        assert len(rows) == len(snapshots) == 2
        assert float(rows[-1].split(",")[0]) == events[0]["clock"]
        code = main(["evolve-linear", "--config", str(cfg), "--out", str(tmp_path / "s2"),
                     "--verify"])
        assert code == 2

    @staticmethod
    def run_vanishing_viscosity(tmp_path, capsys, scenario, config, event):
        """A vanishing viscosity makes every trial state non-finite: the run stops at the
        cfl floor, which prints as `event` (exit 0) with nothing on stderr, and fails
        under --verify."""
        with open(config) as fh:
            raw = json.load(fh)
        raw["model"]["mu"] = 1e-200
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        code = main([scenario, "--config", str(cfg), "--out", str(tmp_path / "t")])
        assert code == 0
        with open(tmp_path / "t" / "manifest.json") as fh:
            events = json.load(fh)["events"]
        assert [e["kind"] for e in events] == ["cfl-floor"]
        out, err = capsys.readouterr()
        printed = [line for line in out.splitlines() if line.startswith("event: ")]
        assert printed == [f"event: cfl-floor at clock {events[0]['clock']:.6g} "
                           f"{events[0]['detail']}"] == [event]
        assert err == ""
        code = main([scenario, "--config", str(cfg), "--out", str(tmp_path / "t2"), "--verify"])
        assert code == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_thermo_trial_is_an_event(self, tmp_path, capsys):
        self.run_vanishing_viscosity(tmp_path, capsys, "evolve-thermo", DEFAULTS,
                                     "event: cfl-floor at clock 0 dt = 5.821e-12")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_linear_trial_is_an_event(self, tmp_path, capsys):
        self.run_vanishing_viscosity(tmp_path, capsys, "evolve-linear", STABILITY_LINEAR,
                                     "event: cfl-floor at clock 0 dt = 8.693e-12")
