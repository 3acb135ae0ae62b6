"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

Each workload is run through the command at its smallest size (one second),
once untraced and once traced; the other tests run ops in this process.
"""

import json
import math
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402 - puts src/ on sys.path
import workloads  # noqa: E402
from spans import Tracer, layer_totals, self_times  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_benchmark_json_names_every_workload():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_span_self_times_fit_in_the_op():
    w = workloads.make("thermo-ledger")
    w.setup(3)
    tracer = Tracer()
    op = bench.run_op(w, 3, tracer, 0)
    assert not op["problems"]
    selves = self_times(tracer.spans)
    # children are timed inside their parent; allow only float rounding
    assert min(selves) >= -1e-12
    assert sum(selves) <= op["wall_s"]
    totals = layer_totals(tracer.spans)[0]
    assert totals["op"]["calls"] == 1
    assert totals["lagrangian.evolve"]["steps"] > 0
    # tracing leaves no wrapper behind
    from starlab import lagrangian, profiles
    assert not hasattr(lagrangian.evolve_linear_thermo, "__wrapped__")
    assert not hasattr(profiles.ThermoProfile.rho_at, "__wrapped__")


class NoGrowth(workloads.SelfSimilarGrowth):
    s_end = 1.0          # ends long before the growth event, so the check fails


class Counter:
    """An op whose output is its call count; it raises on call `fail_on`."""

    def __init__(self, fail_on=None):
        self.calls = 0
        self.fail_on = fail_on

    def prepare(self, op_seed):
        return op_seed

    def run(self, inputs):
        self.calls += 1
        if self.calls == self.fail_on:
            raise RuntimeError("injected failure")
        return self.calls

    def check(self, inputs, output):
        return [], str(output)


def test_injected_failures_raise_the_failed_share():
    raises, no_growth = Counter(fail_on=2), NoGrowth()
    no_growth.setup(5)
    ops = [bench.run_op(raises, 1), bench.run_op(raises, 2), bench.run_op(no_growth, 5)]
    assert [o["problems"] for o in ops[:2]] == [[], ["RuntimeError: injected failure"]]
    assert ops[2]["problems"] == ["no growth event"]
    assert bench.end_to_end(ops, [(1.0, 1.0)])["ops_ok_frac"][0] == pytest.approx(1 / 3)


def test_traced_physics_must_equal_untraced():
    plain, traced = bench.measure_traced(Counter(), bench.op_seeds(1), 0.0, Tracer())
    assert plain[0]["problems"] == []
    assert traced[0]["problems"] == ["traced physics outputs differ from untraced"]
