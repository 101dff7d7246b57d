#!/usr/bin/env python3
"""Convergence-rate experiment on the linear scalar fixture.

Solves the backward scheme on a ladder of jointly shrinking meshes, evaluates
the discrete squared-error criterion against the closed form, and fits the
log-log rate.  First-order decay of the total criterion is the expected
outcome; the martingale-integrand terms decay faster and are reported
separately.
"""

import argparse

from bspde import SolverConfig, build_partition, builtin_problem, convergence_study


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--levels", type=int, nargs="+", default=[4, 8, 16, 32])
    parser.add_argument("--algorithm", choices=["one", "two"], default="one")
    parser.add_argument("--edge", type=float, default=0.03,
                        help="spatial edge; keep below the finest time step so the "
                        "mesh size is the time increment on every level")
    args = parser.parse_args()

    spec = builtin_problem("linear_scalar")
    partitions = [build_partition(1.0, n0, [args.edge], [1]) for n0 in args.levels]
    config = SolverConfig(algorithm=args.algorithm, samples=args.samples, seed=args.seed)
    fit = convergence_study(spec, partitions, config)

    print(f"{'mesh':>10} {'total':>14} {'V part':>14} {'Vbar part':>14} {'stderr':>12}")
    for (mesh, total), rep in zip(fit.points, fit.reports):
        print(
            f"{mesh:10.5f} {total:14.6e} {sum(rep.err_V_sq.values()):14.6e} "
            f"{sum(rep.err_Vbar_sq.values()):14.6e} {rep.stderr_total:12.3e}"
        )
    print(f"\nfitted slope: {fit.slope:.4f}   (samples={args.samples}, seed={args.seed})")


if __name__ == "__main__":
    main()
