#!/usr/bin/env python3
"""Empirical risk of the Hadamard-response frequency estimator vs sample size.

Runs the seeded distribution-estimation experiment on a grid of sample
sizes and prints, per row, the Monte Carlo ell_2 risk with its 95%
half-width next to the minimax lower bound and ``hadamard_ub``, the
paper's Table 1 rate up to a universal constant (not an upper bound on
this estimator's risk).  The final line reports the fitted log-log
slope (the parametric rate predicts -1/2).

    python scripts/hadamard_rate_sweep.py [--d 4] [--eps 1.0986] [--trials 400]
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from ldpcontract.mechanisms import HadamardConfig
from ldpcontract.minimax import distribution_estimation_lb, hadamard_ub
from ldpcontract.probability import ProbVector
from ldpcontract.simulation import simulate_dist_estimation


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=4)
    ap.add_argument("--eps", type=float, default=math.log(3.0))
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--n", type=int, nargs="+", default=[1000, 4000, 16000])
    args = ap.parse_args()

    cfg = HadamardConfig.for_alphabet(args.d, args.eps)
    p_true = ProbVector(np.ones(args.d) / args.d)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "risk", "half_width", "lower_bound", "upper_bound"])
    risks = []
    for n in args.n:
        res = simulate_dist_estimation(cfg, p_true, n, 2.0, args.trials,
                                       args.seed, workers=args.workers)
        risks.append(res.estimate)
        writer.writerow([n, res.estimate, res.half_width,
                         distribution_estimation_lb(n, args.eps, args.d, 2.0),
                         hadamard_ub(n, args.eps, args.d, 2.0)])
    if len(args.n) > 1:
        slope = float(np.polyfit(np.log(args.n), np.log(risks), 1)[0])
        print(f"# log-log slope: {slope:.4f} (parametric rate: -0.5)", file=sys.stderr)


if __name__ == "__main__":
    main()
