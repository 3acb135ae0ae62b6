"""starlab benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload ss-growth --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics: set-up time (median of
fresh processes), median wall time per op, peak resident memory and the
share of ops that were correct.  With ``--trace 1`` every op is run twice,
untraced and then traced, and it prints the per-layer metrics of the traced
ops, the tracing overhead and an N-scaling probe of the step kernel.  The
last line of standard output is one JSON object; the lines before it give
the environment and every metric by name and unit.  A report with every op
(and, traced, every span) is written under ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

try:
    import workloads
except ImportError as exc:
    sys.exit(f"perfbench: cannot import starlab from {SRC}: {exc}")
from hostspeed import PlainTimer, SampledTimer  # noqa: E402
from spans import Tracer, layer_totals  # noqa: E402

SETUP_REPEATS = 5
SCALING_N = (96, 192, 384, 768)
SCALING_SEED = 7
SCALING_S_END = 8.0      # caps the probe at about 1250 steps (N = 768)

# per-layer metric -> (layer, field of layer_totals, unit)
LAYER_METRICS = {
    "profiles.solve_s": ("profiles.solve", "self_s", "s"),
    "profiles.solve_calls": ("profiles.solve", "calls", "count"),
    "profiles.eval_s": ("profiles.eval", "self_s", "s"),
    "profiles.eval_calls": ("profiles.eval", "calls", "count"),
    "lagrangian.step_self_s": ("lagrangian.evolve", "self_s", "s"),
    "lagrangian.steps": ("lagrangian.evolve", "steps", "count"),
    "lagrangian.reconstruct_s": ("lagrangian.reconstruct", "self_s", "s"),
    "lagrangian.reconstruct_calls": ("lagrangian.reconstruct", "calls", "count"),
    "functionals.amplitude_s": ("functionals.amplitude", "self_s", "s"),
    "functionals.amplitude_calls": ("functionals.amplitude", "calls", "count"),
    "functionals.energy_ss_s": ("functionals.energy_ss", "self_s", "s"),
    "functionals.energy_ss_calls": ("functionals.energy_ss", "calls", "count"),
    "functionals.integrands_s": ("functionals.integrands", "self_s", "s"),
    "functionals.integrands_calls": ("functionals.integrands", "calls", "count"),
    "functionals.ledger_s": ("functionals.ledger", "self_s", "s"),
    "functionals.physical_energy_s": ("functionals.physical_energy", "self_s", "s"),
    "functionals.lemma_s": ("functionals.lemma", "self_s", "s"),
    "expansion.s": ("expansion", "self_s", "s"),
    "expansion.calls": ("expansion", "calls", "count"),
    "homogeneous.s": ("homogeneous", "self_s", "s"),
    "homogeneous.calls": ("homogeneous", "calls", "count"),
    "artifacts.write_s": ("artifacts.write", "self_s", "s"),
    "artifacts.files": ("artifacts.write", "files", "count"),
    "artifacts.bytes": ("artifacts.write", "bytes", "B"),
    "svgplot.s": ("svgplot", "self_s", "s"),
    # a criterion's whole span: its children are the layers above
    **{f"acceptance.c{i:02d}_s": (f"acceptance.c{i:02d}", "incl_s", "s")
       for i in range(1, 13)},
}


def op_seeds(seed):
    """The op seeds of a run, a deterministic stream from the workload seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2**31)


def run_op(workload, op_seed, tracer=None, op_id=None, sampled=False) -> dict:
    """Prepare, time and check one op; an exception fails the op, not the run.

    `sampled` times the op at reference host speed (hostspeed.py); traced
    ops must not be sampled, or sampling time would land in their spans.
    """
    inputs = workload.prepare(op_seed)
    timer = SampledTimer() if sampled else PlainTimer()
    try:
        with timer, tracer.op(op_id) if tracer else nullcontext():
            output = workload.run(inputs)
        problems, sig = workload.check(inputs, output)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed op
        problems, sig = [f"{type(exc).__name__}: {exc}"], None
    for p in problems:
        print(f"op seed {op_seed} failed: {p}", file=sys.stderr)
    return {"seed": op_seed, "wall_s": timer.wall_s, "host_scale": timer.scale,
            "problems": problems, "signature": sig}


def measure(workload, seeds, seconds) -> list[dict]:
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        ops.append(run_op(workload, next(seeds), sampled=True))
    return ops


def measure_traced(workload, seeds, seconds, tracer) -> tuple[list, list]:
    """Untraced and traced runs of the same ops, both timed plainly.

    The traced op of a pair fails if its physics differ from the untraced one.
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        op_seed = next(seeds)
        plain.append(run_op(workload, op_seed))
        traced.append(run_op(workload, op_seed, tracer, len(traced)))
        if plain[-1]["signature"] != traced[-1]["signature"] and not traced[-1]["problems"]:
            traced[-1]["problems"].append("traced physics outputs differ from untraced")
    return plain, traced


def setup_samples(name, op_seed, repeats=SETUP_REPEATS) -> list[tuple]:
    """(seconds, host scale) from spawning a fresh interpreter to ready for op 1.

    The child samples host speed while it sets up and reports the scale and
    its sampling time, which is taken out of the parent's measurement.
    """
    code = "\n".join([
        f"import sys; sys.path[:0] = {[HERE, SRC]!r}",
        "from hostspeed import SampledTimer",
        "with SampledTimer() as timer:",
        "    import workloads",
        f"    workloads.make({name!r}).setup({op_seed})",
        "print('ready', timer.sampling_s, timer.scale, flush=True)"])
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as child:
            words = child.stdout.readline().split()
            elapsed = time.perf_counter() - t0
            child.communicate(timeout=120)
        if child.returncode != 0 or words[:1] != ["ready"]:
            raise RuntimeError(f"set-up process exited {child.returncode}")
        samples.append((elapsed - float(words[1]), float(words[2])))
    return samples


def median_wall(ops, scaled=False) -> float:
    """Median op wall time over correct ops (all ops if none is correct)."""
    ok = [o for o in ops if not o["problems"]] or ops
    return statistics.median(o["wall_s"] * (o["host_scale"] if scaled else 1.0) for o in ok)


def end_to_end(ops, setup) -> dict:
    n_ok = sum(1 for o in ops if not o["problems"])
    return {
        "setup_s": (statistics.median(t * scale for t, scale in setup), "s"),
        "wall_s": (median_wall(ops, scaled=True), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_ok_frac": (n_ok / len(ops), "frac"),
    }


def layer_values(tot) -> dict:
    """Per-layer metrics of one op's layer totals."""
    def get(layer, key):
        return tot.get(layer, {}).get(key, 0)

    vals = {name: get(layer, key) for name, (layer, key, _) in LAYER_METRICS.items()}
    nodes, steps = get("lagrangian.evolve", "nodes"), get("lagrangian.evolve", "steps")
    vals["profiles.eval_points_per_node"] = get("profiles.eval", "points") / nodes if nodes else 0.0
    vals["lagrangian.us_per_step"] = (1e6 * get("lagrangian.evolve", "incl_s") / steps
                                      if steps else 0.0)
    return vals


def merge(a, b) -> dict:
    """Layer totals of two ops added together."""
    out = {layer: dict(fields) for layer, fields in a.items()}
    for layer, fields in b.items():
        t = out.setdefault(layer, {})
        for k, v in fields.items():
            t[k] = t.get(k, 0) + v
    return out


def per_layer(tracer, plain, traced) -> dict:
    """Median over traced ops of (traced set-up + that op), plus the overhead."""
    totals = layer_totals(tracer.spans)
    per_op = [layer_values(merge(totals.get("setup", {}), totals.get(i, {})))
              for i in range(len(traced))]
    units = {name: unit for name, (_, _, unit) in LAYER_METRICS.items()}
    units.update({"profiles.eval_points_per_node": "ratio", "lagrangian.us_per_step": "us"})
    metrics = {name: (statistics.median(v[name] for v in per_op), units[name])
               for name in per_op[0]}
    metrics["trace_overhead"] = (median_wall(traced) / median_wall(plain), "ratio")
    return metrics


def scaling_probe(workload) -> dict:
    """us per accepted step (at reference host speed) and steps to s = SCALING_S_END
    for seed-7 data per N."""
    from starlab import lagrangian
    metrics = {}
    for n in SCALING_N:
        x = workload.grid(n)
        initial = workload.data(x, SCALING_SEED)
        spec = lagrangian.SolverSpec(n_cells=n, n_emit=2, growth_threshold=0.1)
        with SampledTimer() as timer:
            run = lagrangian.evolve_self_similar(workload.prof, workload.params, initial,
                                                 SCALING_S_END, spec)
        steps = len(run.times) - 1
        metrics[f"lagrangian.us_per_step.n{n}"] = (1e6 * timer.wall_s * timer.scale / steps, "us")
        metrics[f"lagrangian.steps.n{n}"] = (steps, "count")
    return metrics


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy
    lines = 0
    for path in glob.glob(os.path.join(SRC, "starlab", "*.py")):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg()), "git_commit": git_commit(),
            "src_starlab_lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env = environment()
    seeds = op_seeds(args.seed)
    first = next(op_seeds(args.seed))
    workload = workloads.make(args.workload)

    report = {"args": vars(args), "env": env}
    if args.trace:
        tracer = Tracer()
        with tracer.op("setup"):
            workload.setup(first)
        plain, traced = measure_traced(workload, seeds, args.seconds, tracer)
        ops = plain + traced
        metrics = per_layer(tracer, plain, traced)
        probe = workloads.make("ss-growth")
        probe.setup(SCALING_SEED)
        metrics.update(scaling_probe(probe))
        report["spans"] = tracer.records()
    else:
        setup = setup_samples(args.workload, first)
        workload.setup(first)
        ops = measure(workload, seeds, args.seconds)
        metrics = end_to_end(ops, setup)
        report["setup_samples_s"] = setup
    failed = sum(1 for o in ops if o["problems"])
    report["ops"] = [{k: v for k, v in o.items() if k != "signature"} for o in ops]
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    os.makedirs(workloads.OUT_ROOT, exist_ok=True)
    with open(os.path.join(workloads.OUT_ROOT, f"report-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, separators=(",", ":"))

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops attempted, {failed} failed "
          f"(ops_failed_frac {failed / len(ops)})")
    if not args.trace:
        print(f"wall_s is the median of {len(ops) - failed or len(ops)} ops and setup_s of "
              f"{len(setup)} fresh processes, at reference host speed; unscaled they are "
              f"{median_wall(ops)} s and {statistics.median(t for t, _ in setup)} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
