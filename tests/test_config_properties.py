"""Properties of the one constraint table, checked with Hypothesis.

- a validated config survives its round trip through `to_dict`, as a dict
  and as the JSON text a manifest holds;
- one bad solver, grid or time field gives the same named text from
  `validate_config` and from building `SolverSpec` or `GridSpec` directly;
- `starlab` on generated configs with a tiny `time.end` exits 0, 1 or 2 and
  raises nothing;
- a string where a boolean belongs, a fraction where an integer belongs or a
  misspelt key in any section exits 1 and names the field;
- the three evolution entry points, given a non-finite or misplaced initial
  field, a viscosity outside (0, inf) or an end clock outside [0, inf),
  raise a StarlabError that names it; so do the specs given a fraction for an
  integer, a self-similar batch given an end clock beyond the config's bound, and
  a linear run whose alpha = a0 e^(a1 tau) would leave the float range.

conftest.py's settings profile derandomizes every property.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from starlab import classify_expansion
from starlab.cli import main
from starlab.config import FAMILIES, ScenarioConfig, validate_config
from starlab.errors import ConfigInvalid, InvalidParams, StarlabError
from starlab.lagrangian import (SolverSpec, evolve_ensemble, evolve_linear_isentropic,
                                evolve_linear_thermo, evolve_self_similar)
from starlab.profiles import GridSpec

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

# A model each scenario accepts; the other sections are generated around it.
MODELS = {
    "profile": {"delta": 0.0},
    "expansion": {"delta": -0.5, "a1": 1.0},
    "phase": {"delta": -0.5},
    # time.end <= 1e3 and a0 <= 1e3 keep evolve-ss inside its bound: the
    # reconstruction's alpha^-3 stays normal, sqrt(2|delta|) * time.end + ln max(a0, 1) < 236.1
    "evolve-ss": {"delta": -1e-3, "a1": None},
    "evolve-linear": {"delta": 0.0, "a1": 1.0},
    "evolve-thermo": {"kind": "thermo", "a1": 20.0, "K": 1.0, "epsilon": 0.25, "c_nu": 3.0},
}


def _shipped(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        return json.load(fh)


positive = st.floats(min_value=1e-9, max_value=1e3)


@st.composite
def valid_configs(draw):
    scenario = draw(st.sampled_from(sorted(MODELS)))
    thermo = scenario == "evolve-thermo"
    a0, end = draw(positive), draw(positive)
    order = 1 if thermo else draw(st.sampled_from([1, 2]))
    if scenario in ("evolve-linear", "evolve-thermo"):
        # the ledger's alpha^4 stays finite: a1 * time.end + ln max(a0, 1) < 177.4
        end = min(end, (177.0 - math.log(max(a0, 1.0))) / MODELS[scenario]["a1"])
    return {
        "scenario": scenario,
        "model": {**MODELS[scenario], "a0": a0, "mu": draw(positive)},
        "grid": {"n_cells": draw(st.integers(8, 4096)), "rtol": draw(positive),
                 "atol": draw(positive), "y_max": draw(positive)},
        "solver": {"n_cells": draw(st.integers(8, 4096)),
                   "cfl": draw(st.floats(min_value=1e-9, max_value=1.0)),
                   "order": order,
                   "max_rel_change": draw(positive),
                   "growth_threshold": draw(positive),
                   "dt_max": draw(st.none() | positive)},
        "initial": {"family": draw(st.sampled_from(FAMILIES)),
                    "amplitude": draw(st.floats(0.0, 1.0)),
                    "amplitude_t": draw(st.floats(-1.0, 1.0)),
                    "center": draw(st.floats(0.0, 1.0)), "width": draw(st.floats(0.01, 1.0)),
                    "modes": draw(st.integers(1, 64)), "seed": draw(st.integers(0, 2**32)),
                    "normalize_omega": draw(st.booleans())},
        "weights": {"a": draw(st.floats(0.01, 0.99))},
        "time": {"end": end, "n_emit": draw(st.integers(2, 1000))},
        "phase_grid": draw(st.lists(st.lists(st.floats(-0.9, 1.0), min_size=2, max_size=2),
                                    max_size=3)),
        "out_dir": draw(st.sampled_from(["out", "out/run 1"])),
        "seed": draw(st.integers(0, 2**32)),
    }


@example(raw=_shipped("defaults.json"))
@example(raw=_shipped("phase_portrait.json"))
@example(raw=_shipped("stability_linear.json"))
@given(raw=valid_configs())
def test_round_trip(raw):
    cfg = validate_config(raw)
    assert validate_config(cfg.to_dict()) == cfg
    assert validate_config(json.loads(json.dumps(cfg.to_dict()))) == cfg


non_positive = st.floats(max_value=0.0) | st.just(math.nan)
BAD_FIELDS = st.one_of(
    st.tuples(st.just("solver"), st.just("n_cells"), st.integers(max_value=7)),
    st.tuples(st.just("solver"), st.just("n_cells"),
              st.floats(8.0, 4096.0).filter(lambda n: not n.is_integer())),
    st.tuples(st.just("solver"), st.just("cfl"),
              non_positive | st.floats(min_value=1.0, exclude_min=True)),
    st.tuples(st.just("solver"), st.just("order"),
              st.integers().filter(lambda o: o not in (1, 2))),
    st.tuples(st.just("solver"), st.just("max_rel_change"), non_positive),
    st.tuples(st.just("solver"), st.just("dt_max"), non_positive),
    st.tuples(st.just("solver"), st.just("growth_threshold"), non_positive),
    st.tuples(st.just("time"), st.just("n_emit"), st.integers(max_value=1)),
    st.tuples(st.just("grid"), st.just("n_cells"), st.integers(max_value=7)),
    st.tuples(st.just("grid"), st.sampled_from(["rtol", "atol", "y_max"]), non_positive),
)


# The inputs ROADMAP item 8 found the library running: backwards steps,
# a bare ValueError, order 3 run as order 1, a run that never finished,
# n_emit = 0 emitting two snapshots, and a profile integrated backwards.
@example(field=("solver", "cfl", -1.0))
@example(field=("solver", "dt_max", -1.0))
@example(field=("solver", "cfl", 0.0))
@example(field=("solver", "order", 3))
@example(field=("solver", "max_rel_change", 0.0))
@example(field=("time", "n_emit", 0))
@example(field=("grid", "y_max", -5.0))
# A threshold of 0 or -1 stopped evolve-ss after its first step with exit 0,
# and a NaN threshold never fired.
@example(field=("solver", "growth_threshold", 0.0))
@example(field=("solver", "growth_threshold", -1.0))
@example(field=("solver", "growth_threshold", math.nan))
# "n_cells": 16.9 validated as 16, and SolverSpec(n_cells=8.5) built.
@example(field=("solver", "n_cells", 16.9))
@given(field=BAD_FIELDS)
def test_one_bad_field_gives_one_text_from_both_entry_points(field):
    section, key, value = field
    with pytest.raises(ConfigInvalid) as from_config:
        validate_config({"scenario": "evolve-linear", section: {key: value}})
    with pytest.raises(InvalidParams) as from_spec:
        (GridSpec if section == "grid" else SolverSpec)(**{key: value})
    assert len(from_spec.value.errors) == 1
    assert from_config.value.errors == from_spec.value.errors


# Valid and invalid values per field; a generated config sets a few of them.
FIELD_VALUES = {
    ("model", "delta"): (0.0, -1e-3, -0.5, 0.5, "abc"),
    ("model", "a0"): (1.0, 0.5, 0.0, -1.0),
    ("model", "a1"): (1.0, 0.1, 20.0, None),
    ("model", "kind"): ("isentropic", "thermo", "other"),
    ("model", "epsilon"): (0.25, 0.5, 2.0),
    ("model", "c_nu"): (3.0, 2.0),
    ("model", "mu"): (1.0, 0.0),
    ("grid", "n_cells"): (8, 64, 4),
    ("grid", "rtol"): (1e-6, 0.0),
    ("grid", "y_max"): (200.0, 5.0, -5.0),
    ("solver", "n_cells"): (8, 16, 3, "many"),
    ("solver", "cfl"): (0.4, 1.0, 0.0, -1.0),
    ("solver", "order"): (1, 2, 3),
    ("solver", "max_rel_change"): (1e-3, 1e-8, 0.0),
    ("solver", "dt_max"): (None, 1e-4, -1.0),
    ("solver", "growth_threshold"): (0.1, 1e-9, 0.0, -1.0, math.nan),
    ("initial", "family"): FAMILIES + ("other",),
    ("initial", "amplitude"): (1e-3, 0.0, -1.0, 0.3),
    ("initial", "amplitude_t"): (0.0, 0.5),
    ("initial", "modes"): (6, 1, 0),
    ("initial", "seed"): (0, 7, -1),
    ("initial", "normalize_omega"): (False, True),
    ("time", "end"): (1e-3, 1e-2, 0.0, -1.0),
    ("time", "n_emit"): (2, 3, 0),
    ("weights", "a"): (0.5, 1.5),
}


@st.composite
def cli_configs(draw):
    scenario = draw(st.sampled_from(sorted(MODELS)))
    raw = {"model": dict(MODELS[scenario]), "grid": {"rtol": 1e-6, "atol": 1e-6},
           "solver": {"n_cells": 8}, "time": {"end": 1e-3, "n_emit": 2}}
    for section, key in draw(st.lists(st.sampled_from(sorted(FIELD_VALUES)), max_size=4,
                                      unique=True)):
        raw.setdefault(section, {})[key] = draw(st.sampled_from(FIELD_VALUES[section, key]))
    if draw(st.integers(0, 9)) == 0:
        raw[draw(st.sampled_from(["model", "solver", "time"]))] = [1]
    return scenario, raw


def run_main(scenario, raw):
    """(exit code, stderr) of `starlab scenario` on raw written as a config file."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([scenario, "--config", path, "--out", os.path.join(tmp, "out")])
    return code, err.getvalue()


@settings(max_examples=100)
@given(case=cli_configs())
def test_cli_exits_with_a_documented_code(case):
    code, err = run_main(*case)
    assert code in (0, 1, 2)
    if code == 1:
        assert all(line.startswith("config error: ") for line in err.splitlines())


# The layout a manifest writes: the keys a config may hold, with a value of each type.
KNOWN = ScenarioConfig("").to_dict()
SECTIONS = sorted(k for k, v in KNOWN.items() if isinstance(v, dict))
LEAVES = [(s, k, v) for s in SECTIONS for k, v in KNOWN[s].items()] + \
    [("", k, v) for k, v in KNOWN.items() if k not in SECTIONS]


def typed_fields(kind):
    return [(s, k) for s, k, v in LEAVES if type(v) is kind]


@st.composite
def misspelt_keys(draw):
    """(section, key): one deletion, insertion or substitution away from a key of section."""
    section = draw(st.sampled_from(["", *SECTIONS]))
    keys = KNOWN[section] if section else KNOWN
    key = draw(st.sampled_from(sorted(keys)))
    i = draw(st.integers(0, len(key)))
    c = draw(st.sampled_from("abcdefghijklmnopqrstuvwxyz_0123456789"))
    key = draw(st.sampled_from([key[:i] + key[i + 1:], key[:i] + c + key[i:],
                                key[:i] + c + key[i + 1:]]))
    assume(key not in keys)
    return section, key


MISTYPED = st.one_of(
    st.tuples(st.sampled_from(typed_fields(bool)), st.text(max_size=6) | st.integers(0, 1),
              st.just("must be true or false")),
    st.tuples(st.sampled_from(typed_fields(int)),
              st.floats(-1e6, 1e6).filter(lambda n: not n.is_integer()),
              st.just("is an integer")),
    st.tuples(misspelt_keys(), st.integers() | st.booleans() | st.text(max_size=4),
              st.just("is not a key")),
)


# The cases ROADMAP item 11 measured running with a meaning nobody wrote.
@example(case=(("initial", "normalize_omega"), "false", "must be true or false"))
@example(case=(("solver", "n_cells"), 16.9, "is an integer"))
@example(case=(("solver", "ordr"), 2, "is not a key"))
@settings(max_examples=100)
@given(case=MISTYPED)
def test_mistyped_value_or_key_is_named(case):
    (section, key), value, text = case
    raw = {"model": {"delta": 0.0}, "solver": {"n_cells": 8}, "time": {"end": 1e-3}}
    if section:
        raw.setdefault(section, {})[key] = value
    else:
        raw[key] = value
    code, err = run_main("evolve-linear", raw)
    name = f"{section}.{key}" if section else key
    assert code == 1
    assert any(line.startswith(f"config error: {name} {text}") for line in err.splitlines())


N = 16
BAD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf])
BAD_CALLS = st.one_of(
    st.tuples(st.just("initial"), st.integers(0, 2), st.integers(0, N), BAD_VALUES),
    st.tuples(st.just("size"), st.integers(0, 2), st.integers(0, 2 * N).filter(
        lambda n: n != N + 1)),
    st.tuples(st.just("mu"), st.floats(max_value=0.0) | BAD_VALUES),
    st.tuples(st.just("end"), st.floats(max_value=-1e-300) | BAD_VALUES),
)
TEXTS = {"initial": "initial fields are finite on 17 nodes",
         "size": "initial fields are finite on 17 nodes",
         "mu": "0 < mu < inf", "end": "0 <= end < inf"}


@example(regime="self-similar", call=("initial", 0, 3, math.nan))
@example(regime="self-similar", call=("mu", 0.0))
@example(regime="self-similar", call=("mu", -1.0))
@example(regime="self-similar", call=("end", math.inf))
@example(regime="self-similar", call=("end", -1.0))
@given(regime=st.sampled_from(["self-similar", "linear", "thermo"]), call=BAD_CALLS)
def test_library_names_bad_arguments(iso0, iso_ss, pars_ss, thermo14, regime, call):
    # each of these ended in a bare ValueError, LinAlgError or OverflowError, or ran
    # with a negative viscosity or zero steps
    prof, params, evolve = {
        "self-similar": (iso_ss, pars_ss, evolve_self_similar),
        "linear": (iso0, classify_expansion(0.0, 1.0, 1.0), evolve_linear_isentropic),
        "thermo": (thermo14, classify_expansion(0.0, 1.0, 1.0), evolve_linear_thermo),
    }[regime]
    initial = [np.zeros(N + 1) for _ in range(3 if regime == "thermo" else 2)]
    mu, end = 1.0, 0.1
    kind = call[0]
    if kind == "initial":
        _, which, node, value = call
        initial[which % len(initial)][node] = value
    elif kind == "size":
        _, which, size = call
        initial[which % len(initial)] = np.zeros(size)
    elif kind == "mu":
        mu = call[1]
    else:
        end = call[1]
    with pytest.raises(StarlabError) as exc:
        evolve(prof, params, initial, end, SolverSpec(n_cells=N, n_emit=3), mu=mu)
    assert TEXTS[kind] in str(exc.value)
    if kind == "mu":       # the config names the viscosity with the same text
        with pytest.raises(ConfigInvalid) as from_config:
            validate_config({"scenario": "evolve-linear", "model": {"mu": call[1]}})
        assert TEXTS["mu"] in from_config.value.errors


def test_library_names_fractions_and_the_self_similar_end_bound(iso_ss, pars_ss):
    # these built and then ended in a bare TypeError, or in a bare OverflowError
    with pytest.raises(ConfigInvalid, match="time.n_emit is an integer"):
        SolverSpec(n_emit=2.5)
    with pytest.raises(ConfigInvalid, match="grid.n_cells is an integer"):
        GridSpec(n_cells=8.5)
    with pytest.raises(ConfigInvalid) as from_config:
        validate_config({"scenario": "evolve-ss", "model": {"delta": pars_ss.delta, "a1": None},
                         "time": {"end": 1e6}})
    z = np.zeros(N + 1)
    for initials in ([(z, z)], [(z, z), (z, z + 1e-3)]):
        with pytest.raises(ConfigInvalid) as exc:
            evolve_ensemble(iso_ss, pars_ss, initials, 1e6, SolverSpec(n_cells=N))
        assert exc.value.errors == from_config.value.errors


@pytest.mark.parametrize("star, delta", [("iso0", 0.0), ("iso_ss", -1e-3), ("thermo14", 0.0)])
def test_library_names_the_linear_end_bound(request, star, delta):
    # these ended in a bare OverflowError once alpha = a0 e^(a1 tau) left the float range
    prof, thermo = request.getfixturevalue(star), star == "thermo14"
    evolve = evolve_linear_thermo if thermo else evolve_linear_isentropic
    z = np.zeros(N + 1)
    for end in (236.2 / 20.0, 1e3):
        with pytest.raises(ConfigInvalid) as exc:
            evolve(prof, classify_expansion(delta, 1.0, 20.0), (z,) * (2 + thermo), end,
                   SolverSpec(n_cells=N, n_emit=2))
        assert exc.value.errors == ["a1 * time.end + ln max(a0, 1) < 236.1 "
                                    "(the reconstruction's alpha^-3 underflows beyond)"]
