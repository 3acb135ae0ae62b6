"""Properties of the one constraint table, checked with Hypothesis.

- a validated config survives its round trip through `to_dict`, as a dict
  and as the JSON text a manifest holds;
- one bad solver, grid or time field gives the same named text from
  `validate_config` and from building `SolverSpec` or `GridSpec` directly;
- `starlab` on generated configs with a tiny `time.end` exits 0, 1 or 2 and
  raises nothing.

conftest.py's settings profile derandomizes every property.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from starlab.cli import main
from starlab.config import FAMILIES, validate_config
from starlab.errors import ConfigInvalid, InvalidParams
from starlab.lagrangian import SolverSpec
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
                   # the Picard corrector steps order 1 only
                   "fully_implicit": order == 1 and not thermo and draw(st.booleans()),
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
    ("solver", "fully_implicit"): (False, True),
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


@settings(max_examples=100)
@given(case=cli_configs())
def test_cli_exits_with_a_documented_code(case):
    scenario, raw = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([scenario, "--config", path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2)
    if code == 1:
        assert all(line.startswith("config error: ") for line in err.getvalue().splitlines())
