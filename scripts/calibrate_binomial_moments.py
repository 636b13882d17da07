#!/usr/bin/env python3
"""One-time calibration of the binomial central-moment constant.

For ``Z ~ Binom(n, p)`` the working bound is

    E|Z - n p|^h  <=  c2 * max(1, (n p)^{h/2})        (2 <= h <= 100)

with a single universal constant ``c2``.  This script evaluates the
left-hand side exactly (log-space summation over the binomial pmf) on a
dense ``(n, p, h)`` sweep, records the largest normalised moment seen,
and persists ``c2 = 1.5 x`` that maximum - plus a per-``h`` table for
reference - into the package data directory.

Run from the repository root:

    python scripts/calibrate_binomial_moments.py
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np

N_GRID = [1, 2, 3, 5, 8, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000]
P_GRID = [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]
H_GRID = [2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 20, 30, 50, 75, 100]

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "ldpcontract" / "data" / "binomial_moment_c2.json"


def binom_logpmf(n: int, p: float) -> np.ndarray:
    """log P(Z = z) for z = 0..n, from log-gamma."""
    z = np.arange(n + 1)
    log_choose = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                           for k in range(n + 1)])
    return log_choose + z * math.log(p) + (n - z) * math.log1p(-p)


def logsumexp(x: np.ndarray) -> float:
    top = float(np.max(x))
    return top + math.log(float(np.sum(np.exp(x - top))))


def log_abs_central_moment(n: int, p: float, h: float) -> float:
    """log E|Z - np|^h computed exactly from the pmf."""
    z = np.arange(n + 1)
    logpmf = binom_logpmf(n, p)
    gap = np.abs(z - n * p)
    keep = gap > 0
    if not np.any(keep):
        return -math.inf
    return logsumexp(logpmf[keep] + h * np.log(gap[keep]))


def main() -> None:
    per_h: dict[str, float] = {}
    overall = -math.inf
    argmax = None
    for h in H_GRID:
        best_h = -math.inf
        for n in N_GRID:
            for p in P_GRID:
                log_moment = log_abs_central_moment(n, p, h)
                log_norm = max(0.0, 0.5 * h * math.log(n * p)) if n * p > 0 else 0.0
                log_ratio = log_moment - log_norm
                if log_ratio > best_h:
                    best_h = log_ratio
                if log_ratio > overall:
                    overall = log_ratio
                    argmax = (n, p, h)
        per_h[str(h)] = 1.5 * math.exp(best_h)
        print(f"h={h:>3}: per-h c2 = {per_h[str(h)]:.6e}")

    c2 = 1.5 * math.exp(overall)
    payload = {
        "c2": c2,
        "safety_factor": 1.5,
        "max_normalized_moment": math.exp(overall),
        "argmax": {"n": argmax[0], "p": argmax[1], "h": argmax[2]},
        "per_h": per_h,
        "sweep": {"n": N_GRID, "p": P_GRID, "h": H_GRID},
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"c2 = {c2:.6e} (argmax {argmax}) -> {OUT}")


if __name__ == "__main__":
    main()
