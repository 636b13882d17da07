"""Reference values the benchmark computes itself, without ldpcontract.

Each function restates a definition from the paper or from a docstring
of the library, so that a check against it fails when the library's
answer moves, whatever the library's implementation.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(got: float, want: float, tol: float, what: str) -> None:
    expect(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} within {tol}")


def audit_eps(rows: np.ndarray) -> float:
    """Tightest eps for which the rows are eps-LDP: per-column max log minus min log."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(rows)
        gaps = logs.max(axis=0) - logs.min(axis=0)
    gaps = gaps[~np.isnan(gaps)]  # all-zero columns carry no constraint
    return max(float(gaps.max()), 0.0) if gaps.size else 0.0


def max_row_tv(rows: np.ndarray) -> float:
    """Dobrushin coefficient: the largest total variation between two rows."""
    return float(0.5 * np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2).max())


def h2(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))


def chi2(p: np.ndarray, q: np.ndarray) -> float:
    """Chi-squared divergence for a full-support ``q``."""
    return float(np.sum((p - q) ** 2 / q))


def tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def upsilon(eps: float) -> float:
    t = math.expm1(eps) / (math.exp(eps) + 1.0)
    return t * t


def psi(eps: float) -> float:
    return math.exp(-eps) * math.expm1(eps) ** 2


def bht_exact_errors(p: np.ndarray, q: np.ndarray, eps: float, n: int) -> tuple[float, float]:
    """Exact error rates of the likelihood-ratio test on ``n`` privatized bits.

    The binary mechanism sends symbols with ``p(x) >= q(x)`` to output 0
    with probability ``e^eps / (1 + e^eps)`` and the rest with
    ``1 / (1 + e^eps)``; the test rejects the null ``p`` when the
    log-likelihood ratio is negative and accepts on ties.
    """
    e = math.exp(eps)
    first = np.where(p >= q, e / (1.0 + e), 1.0 / (1.0 + e))
    mp, mq = float(p @ first), float(q @ first)
    w0, w1 = math.log(mp / mq), math.log((1.0 - mp) / (1.0 - mq))
    tie = 1e-9 * n * (abs(w0) + abs(w1))
    reject = [z * w0 + (n - z) * w1 < -tie for z in range(n + 1)]
    type_i = math.fsum(_binom_pmf(n, mp, z) for z in range(n + 1) if reject[z])
    type_ii = math.fsum(_binom_pmf(n, mq, z) for z in range(n + 1) if not reject[z])
    return type_i, type_ii


def _binom_pmf(n: int, p: float, k: int) -> float:
    log_pmf = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
               + k * math.log(p) + (n - k) * math.log1p(-p))
    return math.exp(log_pmf)


def binomial_abs_moment(n: int, p: float, h: float) -> float:
    """Exact central absolute moment ``E|Z - np|^h`` of ``Z ~ Binom(n, p)``, 0 < p < 1."""
    mu = n * p
    return math.fsum(_binom_pmf(n, p, k) * abs(k - mu) ** h for k in range(n + 1))
