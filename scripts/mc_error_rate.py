"""Observed Monte Carlo failure rate against the requested budget.

For each epsilon, runs the sampling driver over consecutive seeds on a
fixed system and counts the runs that either fail outright or disagree
with the O(p) baseline.  The observed rate should sit well under
epsilon; the bound is not tight.  The system is diag(x^2 - x, 0): its
bad points 0 and 1 are among the first points of F_p, where their local
classes (T, T) are not cyclic, so the drivers' certified pass never
certifies and every run draws its sample points.
"""

import argparse

from pcurvature import diffop, fields, reconstruct
from pcurvature.errors import SelectionFailed


def main():
    ap = argparse.ArgumentParser(
        description="measure Monte Carlo failure rates per epsilon")
    ap.add_argument("--p", type=int, default=11, help="field characteristic")
    ap.add_argument("--runs", type=int, default=300, help="seeds per epsilon")
    ap.add_argument("--epsilons", default="0.05,0.1,0.2,0.4",
                    help="comma-separated failure budgets")
    args = ap.parse_args()
    K = fields.PrimeField(args.p)
    sysv = diffop.DiffSystem(K, (K.one,), (
        ((K.zero, K.from_int(-1), K.one), ()),
        ((), ()),
    ))
    ref = diffop.naive_invariant_factors(sysv, args.p)
    print("epsilon,runs,failures,rate")
    for text in args.epsilons.split(","):
        eps = float(text)
        failures = 0
        for seed in range(args.runs):
            params = reconstruct.select_params(sysv, epsilon=eps, seed=seed)
            try:
                failures += reconstruct.reconstruct_montecarlo(
                    sysv, args.p, params) != ref
            except SelectionFailed:
                failures += 1
        print(f"{eps},{args.runs},{failures},{failures / args.runs:.4f}")


if __name__ == "__main__":
    main()
