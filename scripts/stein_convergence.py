#!/usr/bin/env python3
"""Error-rate convergence study: how fast -(1/N) ln prob approaches the
relative entropy for a few qubit pairs, printed as a table."""

import argparse

from macrolab.harness import STEIN_RHO, STEIN_SIGMA
from macrolab.hypotest import stein_rate_series
from macrolab.operators import random_density


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=10)
    ap.add_argument("--epsilon", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    pairs = {
        "diag(0.9,0.1) vs uniform": (STEIN_RHO, STEIN_SIGMA),
        "seeded non-commuting": (random_density(args.seed, 2),
                                 random_density(args.seed, 2, index=1)),
    }
    for name, (rho, sigma) in pairs.items():
        series = stein_rate_series(rho, sigma, args.epsilon, args.n_max)
        print(f"\n{name}  (S(rho||sigma) = {series.rel_entropy:.7f})")
        print(f"{'N':>3} {'prob':>14} {'rate':>10} {'gap':>10}")
        for n, prob, rate in series.rows:
            gap = abs(rate - series.rel_entropy)
            print(f"{n:>3} {prob:>14.6e} {rate:>10.6f} {gap:>10.6f}")


if __name__ == "__main__":
    main()
