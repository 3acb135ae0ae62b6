#!/usr/bin/env python3
"""Self-convergence of the discrete energy identity for the self-similar run.

For each refinement level the script reports |E(s1) - E(s0) + int a^{3/2} D ds|
and the observed order between consecutive levels.
"""

import argparse
import math

import numpy as np

from starlab import classify_expansion, solve_isentropic_profile
from starlab.config import InitialSpec, family_shape
from starlab.lagrangian import SolverSpec, evolve_self_similar


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta", type=float, default=-1e-3)
    ap.add_argument("--amplitude", type=float, default=1e-2)
    ap.add_argument("--s-end", type=float, default=1.0)
    ap.add_argument("--levels", type=int, nargs="+", default=[64, 128, 256, 512])
    args = ap.parse_args()

    prof = solve_isentropic_profile(args.delta)
    params = classify_expansion(args.delta, 1.0, math.sqrt(2 * abs(args.delta)))
    residuals = []
    for n in args.levels:
        x = np.linspace(0.0, prof.R0, n + 1)
        phi0 = args.amplitude * family_shape(x, prof.R0, InitialSpec(family="bump"))
        dt = 0.2 * prof.R0 / n
        spec = SolverSpec(n_cells=n, dt_init=dt, dt_max=dt, cfl=0.9, n_emit=3,
                          growth_threshold=1.0)
        run = evolve_self_similar(prof, params, (phi0, np.zeros_like(phi0)),
                                  args.s_end, spec, energy=True)
        resid = abs(run.energy[-1] - run.energy[0] + run.visc_work[-1])
        residuals.append(resid)
        order = ("-" if len(residuals) < 2
                 else f"{math.log2(residuals[-2] / residuals[-1]):.2f}")
        print(f"n = {n:4d}: residual = {resid:.4e}  observed order = {order}")


if __name__ == "__main__":
    main()
