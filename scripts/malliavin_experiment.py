#!/usr/bin/env python3
"""Representation-identity experiment.

Solves a base problem, then the frozen linear system for the Malliavin
derivative at every grid time, and compares the first two moments of the
martingale integrand against the diagonal derivative plus the diffusion
driver at every lattice node.
"""

import argparse

from bspde import (
    SolverConfig,
    build_partition,
    builtin_problem,
    check_representation_identity,
    solve,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--problem", choices=["martingale", "linear_scalar"],
                        default="linear_scalar")
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--steps", type=int, default=16)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    spec = builtin_problem(args.problem)
    part = build_partition(1.0, args.steps, [0.5], [1])
    base = solve(spec, part, SolverConfig(samples=args.samples, seed=args.seed))
    report = check_representation_identity(base)

    print(f"{'t':>8} {'x':>6} {'mean lhs':>12} {'mean rhs':>12} {'var lhs':>11} {'var rhs':>11} {'z':>8}")
    for row in report.rows:
        print(
            f"{row.t:8.4f} {row.x[0]:6.3f} {row.mean_lhs:12.5e} {row.mean_rhs:12.5e} "
            f"{row.var_lhs:11.4e} {row.var_rhs:11.4e} {row.zscore:8.3f}"
        )
    verdict = "consistent" if report.passed() else "INCONSISTENT"
    print(f"\nmax |z| = {report.max_abs_z:.4f} over {len(report.rows)} nodes -> {verdict}")


if __name__ == "__main__":
    main()
