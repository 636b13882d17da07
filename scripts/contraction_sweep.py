#!/usr/bin/env python3
"""Empirical sweep of contraction coefficients over random private channels.

For each privacy level, draws random channels, mixes them toward the
uniform row until the privacy audit passes, and records the largest
coefficient per divergence next to the closed-form ceiling
``upsilon(eps)``.  The KL, chi-squared and H^2 columns come from
``eta_bruteforce``, the certified supremum over input pairs; its search
runs once per channel, so the second and third kinds reuse it.  Prints a
CSV to stdout.

    python scripts/contraction_sweep.py [--channels 200] [--seed 0]
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from ldpcontract.contraction import (
    eta_bruteforce,
    eta_tv_exact,
    extremal_tv_under_ldp,
    upsilon,
)
from ldpcontract.mechanisms import mix_toward_uniform
from ldpcontract.probability import CHI2, H2, KL, Channel


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--channels", type=int, default=200, help="channels per privacy level")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["eps", "upsilon", "max_eta_kl", "max_eta_chi2", "max_eta_h2",
                     "max_eta_tv", "tv_ceiling"])
    for eps in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0):
        best, best_tv = [0.0, 0.0, 0.0], 0.0  # best: KL, chi-squared, H^2
        for _ in range(args.channels):
            n_in = int(rng.integers(2, 7))
            n_out = int(rng.integers(2, 7))
            raw = Channel(rng.dirichlet(np.ones(n_out), size=n_in))
            k = mix_toward_uniform(raw, eps)
            best = [max(b, eta_bruteforce(k, kind).value) for b, kind in zip(best, (KL, CHI2, H2))]
            best_tv = max(best_tv, eta_tv_exact(k).value)
        writer.writerow([eps, upsilon(eps), *best, best_tv,
                         extremal_tv_under_ldp(eps)])


if __name__ == "__main__":
    main()
