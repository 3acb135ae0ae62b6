#!/usr/bin/env python3
"""Instability sweep: negative-energy inhomogeneous data on the self-similar star.

Each seed builds smooth data with E(phi0, phi1) < 0 at the requested
amplitude and evolves with the IMEX midpoint scheme at CFL 1 (as criterion 9
does) until the growth event fires; the seeds step as one batch, each with the
bits of its own run.  The script reports per seed the event clock (the last
accepted step) and the located crossing of the threshold.
"""

import argparse
import math

import numpy as np

import starlab.functionals as F
from starlab import classify_expansion, solve_isentropic_profile
from starlab.acceptance import negative_energy_data
from starlab.lagrangian import SolverSpec, evolve_ensemble
from starlab.profiles import sample_background


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta", type=float, default=-1e-3)
    ap.add_argument("--amplitude", type=float, default=1e-3)
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 11, 13])
    ap.add_argument("--n-cells", type=int, default=192)
    args = ap.parse_args()

    prof = solve_isentropic_profile(args.delta)
    params = classify_expansion(args.delta, 1.0, math.sqrt(2 * abs(args.delta)))
    x = np.linspace(0.0, prof.R0, args.n_cells + 1)
    bg = sample_background(prof, x)
    rho4 = x**4 * bg.rho
    rho43 = bg.xm**2 * bg.rho43_m
    spec = SolverSpec(n_cells=args.n_cells, order=2, cfl=1.0, n_emit=40, growth_threshold=0.1)
    initials = [negative_energy_data(prof, args.delta, x, args.amplitude, seed)
                for seed in args.seeds]
    runs = evolve_ensemble(prof, params, initials, 600.0, spec)    # one batch, all seeds
    for seed, (phi0, phi1), run in zip(args.seeds, initials, runs):
        E0, D0 = F.perturbation_energy_ss(x, phi0, phi1, rho4, rho43,
                                          params.a0, args.delta, 0.0)
        growth = [e for e in run.events if e.kind == "growth"]
        when = (f"s = {growth[0].clock:.3f}, crossing s = {growth[0].crossing:.5f}"
                if growth else "never (increase s_end)")
        print(f"seed {seed:3d}: E0 = {E0:+.3e}  D0 = {D0:.3e}  growth at {when}")


if __name__ == "__main__":
    main()
