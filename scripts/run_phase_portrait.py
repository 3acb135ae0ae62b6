#!/usr/bin/env python3
"""Phase portrait of uniform perturbations on a grid of initial conditions.

Writes one trajectory CSV per initial condition, a fate summary, and the
portrait SVG.
"""

import argparse

from starlab.cli import run_scenario
from starlab.config import validate_config


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta", type=float, default=-0.5)
    ap.add_argument("--s-end", type=float, default=8.0)
    ap.add_argument("--n", type=int, default=5, help="grid points per axis")
    ap.add_argument("--span", type=float, default=0.08, help="half-width of the IC grid")
    ap.add_argument("--out", default="out/phase-portrait")
    args = ap.parse_args()

    vals = [args.span * (2 * i / (args.n - 1) - 1) for i in range(args.n)]
    grid = [[p, q] for p in vals for q in vals]
    cfg = validate_config({
        "scenario": "phase",
        "model": {"delta": args.delta},
        "time": {"end": args.s_end},
        "phase_grid": grid,
        "out_dir": args.out,
    })
    report = run_scenario(cfg)
    print(f"{len(grid)} trajectories -> {args.out}")
    print("fates:", report.summary["fates"])


if __name__ == "__main__":
    main()
