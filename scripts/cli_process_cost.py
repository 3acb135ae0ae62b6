"""Fresh-process cost of CLI runs: wall time, modules loaded, resident peak.

    python scripts/cli_process_cost.py [--runs 10] TREE [TREE ...]

Each TREE is a checkout of this repository; its own src/ and configs/ are used.  For
evolve-thermo on configs/defaults.json, evolve-linear on configs/stability_linear.json
and verify (no config), each tree runs `python -m starlab.cli` in a fresh interpreter
--runs times, the trees taking turns to go first.  One JSON object is printed: per case
(the config's name, or the scenario's where it has none) and tree, the raw wall seconds
of every run and their median, and, from one more run that imports the CLI itself, the
modules loaded at its end, how many of them are scipy's, and the resident peak in MB.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

CASES = (("evolve-thermo", "defaults.json"), ("evolve-linear", "stability_linear.json"),
         ("verify", None))

PROBE = """import resource, sys, tempfile
from starlab.cli import main
with tempfile.TemporaryDirectory() as out:
    assert main({argv!r} + ["--out", out]) == 0
print(len(sys.modules), sum(m.split(".")[0] == "scipy" for m in sys.modules),
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def run(tree, args):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.path.join(os.path.abspath(tree), "src")}
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(args)} exited {done.returncode}\n{done.stderr}")
    return done.stdout


def cli_args(tree, scenario, name):
    """A case's CLI arguments in tree: its scenario, and its config where it has one."""
    if name is None:
        return [scenario]
    return [scenario, "--config", os.path.abspath(os.path.join(tree, "configs", name))]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    opts = parser.parse_args()
    report = {}
    for scenario, name in CASES:
        rows = report[name or scenario] = {tree: {"runs_s": []} for tree in opts.trees}
        for i in range(opts.runs):
            k = i % len(opts.trees)
            for tree in opts.trees[k:] + opts.trees[:k]:
                with tempfile.TemporaryDirectory() as out:
                    t0 = time.perf_counter()
                    run(tree, ["-m", "starlab.cli", *cli_args(tree, scenario, name), "--out", out])
                    rows[tree]["runs_s"].append(round(time.perf_counter() - t0, 4))
        for tree, row in rows.items():
            words = run(tree, ["-c", PROBE.format(argv=cli_args(tree, scenario, name))]).split()
            row.update(median_s=round(statistics.median(row["runs_s"]), 4),
                       sys_modules=int(words[-3]), scipy_modules=int(words[-2]),
                       peak_rss_mb=round(float(words[-1]), 2))
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
