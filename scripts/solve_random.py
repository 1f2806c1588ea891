"""Generate a random feasible conic program and watch the solver run.

Usage: python scripts/solve_random.py [--n 20] [--m 8] [--seed 0]
"""

import argparse
import logging
import sys

import numpy as np

from homcone.ipm import SolverOptions, random_problem, solve
from homcone.matrix import Structure
from homcone.pattern import random_homogeneous_pattern


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--m", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--gamma", type=float, default=None)
    ap.add_argument("--tol", type=float, default=1e-8)
    args = ap.parse_args()

    logging.basicConfig(stream=sys.stdout, format="%(message)s")
    logging.getLogger("homcone.ipm").setLevel(logging.DEBUG)
    gen = random_homogeneous_pattern(args.n, seed=args.seed, branching=3.0)
    struct = Structure(gen.pattern, gen.ordering, gen.etree)
    rng = np.random.default_rng(args.seed)
    problem = random_problem(struct, args.m, rng)
    rep = solve(problem, SolverOptions(gamma=args.gamma, tol_gap=args.tol,
                                       tol_feas=args.tol))
    print(f"\nstatus            {rep.status.value}")
    print(f"iterations        {rep.iterations}")
    print(f"primal objective  {rep.primal_objective:.10f}")
    print(f"dual objective    {rep.dual_objective:.10f}")
    print(f"gap               {rep.gap:.3e}")


if __name__ == "__main__":
    main()
