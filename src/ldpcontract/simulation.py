"""Seeded Monte Carlo experiments for the mechanisms and bounds.

Reproducibility contract: every experiment splits its trials into
blocks of ``BLOCK`` and draws all of block ``i``'s trials, in order,
from the one Philox stream ``stream(seed, i)`` of
:func:`ldpcontract.rng.stream`.  Blocks are joined in block order, so
the output is a pure function of the seed and the experiment
parameters - the ``workers`` argument only runs blocks in parallel and
never changes a single bit of the result.  For the same reason
``workers`` is not echoed in result configs.

Conventions: estimates come with a normal-approximation 95% confidence
half-width; hypothesis tests with zero samples (or a channel carrying
no signal) fall back to a fair coin, giving both error rates 1/2.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .mechanisms import HadamardConfig, binary_mechanism, hadamard_estimate, hadamard_output_mass
from .probability import ProbVector, push_forward
from .rng import stream

__all__ = [
    "SimulationError",
    "SampleComplexityError",
    "SimResult",
    "simulate_dist_estimation",
    "simulate_bht",
    "empirical_sample_complexity",
    "binomial_moment_check",
    "load_calibrated_c2",
]

#: Trials per RNG block.  Fixed (never derived from the worker count) so
#: that results are identical for any degree of parallelism.
BLOCK = 4096

#: Histogram cells per multinomial draw in :func:`simulate_dist_estimation`.
_CHUNK_VALUES = 1 << 16

Z95 = 1.959963984540054  # two-sided 95% normal quantile


class SimulationError(ValueError):
    """Invalid simulation parameters."""


class SampleComplexityError(SimulationError):
    """Search for a passing sample size exceeded the cap."""


@dataclass(frozen=True)
class SimResult:
    """A Monte Carlo estimate with its uncertainty and provenance."""

    estimate: float
    half_width: float
    trials: int
    seed: int
    config: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "estimate": self.estimate,
            "half_width": self.half_width,
            "trials": self.trials,
            "seed": self.seed,
            "config": self.config,
        }


def _check_trials(trials: int) -> int:
    trials = int(trials)
    if trials < 1:
        raise SimulationError(f"trial count must be positive, got {trials}")
    return trials


def _per_block(draw, trials: int, seed: int, workers: int) -> np.ndarray:
    """``draw(stream(seed, i), size)`` for every block ``i``, joined along the last axis."""
    if workers < 1:
        raise SimulationError(f"worker count must be positive, got {workers}")

    def block(i: int) -> np.ndarray:
        return draw(stream(seed, i), min(BLOCK, trials - i * BLOCK))

    blocks = range(-(-trials // BLOCK))
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return np.concatenate(list(pool.map(block, blocks)), axis=-1)
    return np.concatenate(list(map(block, blocks)), axis=-1)


def _mean_result(values: np.ndarray, seed: int, config: dict) -> SimResult:
    trials = values.size
    est = float(values.mean())
    hw = float(Z95 * values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return SimResult(estimate=est, half_width=hw, trials=trials, seed=seed, config=config)


# -------------------------------------------------------- distribution risk


def simulate_dist_estimation(
    cfg: HadamardConfig,
    p_true: ProbVector,
    n: int,
    h: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> SimResult:
    """Mean ``ell_h`` risk of the Hadamard response frequency estimator.

    Each trial draws ``n`` users from ``p_true``, privatizes them
    through the Hadamard response channel, applies the unbiased linear
    estimator, and records ``||est - p_true||_h`` (no simplex
    projection, matching the analysis of the estimator).  A trial's
    output histogram is one ``Multinomial(n, p_true K)`` draw, with
    ``p_true K`` from :func:`~ldpcontract.mechanisms.hadamard_output_mass`:
    equal in distribution to privatizing the users one by one, without
    the ``d x n_out`` channel.  A block's trials come from its one
    stream, drawn and estimated as stacks of a fixed number of rows.
    """
    trials = _check_trials(trials)
    if int(n) < 1:
        raise SimulationError(f"sample size must be positive, got {n}")
    if float(h) < 1.0:
        raise SimulationError(f"norm order must satisfy h >= 1, got {h!r}")
    if p_true.dim != cfg.d:
        raise SimulationError(
            f"distribution dimension {p_true.dim} does not match layout alphabet {cfg.d}"
        )
    n = int(n)
    h = float(h)
    out_mass = hadamard_output_mass(p_true, cfg)
    rows = max(1, _CHUNK_VALUES // cfg.n_out)

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        errs = np.empty(size)
        for start in range(0, size, rows):
            hist = rng.multinomial(n, out_mass, size=min(rows, size - start))
            err = np.abs(hadamard_estimate(hist, cfg) - p_true.mass) ** h
            errs[start : start + len(hist)] = np.sum(err, axis=-1) ** (1.0 / h)
        return errs

    errs = _per_block(draw, trials, seed, workers)
    config = {
        "experiment": "dist_estimation",
        "d": cfg.d,
        "eps": cfg.eps,
        "B": cfg.B,
        "b": cfg.b,
        "n": n,
        "h": h,
        "p_true": p_true.mass.tolist(),
    }
    return _mean_result(errs, seed, config)


# ------------------------------------------------------- hypothesis testing


def simulate_bht(
    p: ProbVector,
    q: ProbVector,
    eps: float,
    n: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> tuple[SimResult, SimResult]:
    """Error rates of the exact likelihood-ratio test on privatized data.

    The data pass through the binary mechanism adapted to ``(p, q)``;
    the test computes the log-likelihood ratio of the ``n`` privatized
    bits and rejects the null (``p``) when it is negative, accepting on
    ties.  Returns ``(type_I, type_II)`` error estimates.  With ``n = 0``,
    or when the privatized distributions coincide so the statistic is
    identically zero, the decision is a fair coin and both error rates
    are 1/2.
    """
    trials = _check_trials(trials)
    if int(n) < 0:
        raise SimulationError(f"sample size must be non-negative, got {n}")
    n = int(n)
    config = {
        "experiment": "bht",
        "p": p.mass.tolist(),
        "q": q.mass.tolist(),
        "eps": float(eps),
        "n": n,
    }

    channel = binary_mechanism(p, q, eps)
    mp = float(push_forward(p, channel).mass[0])
    mq = float(push_forward(q, channel).mass[0])

    if n == 0:
        coin = SimResult(estimate=0.5, half_width=0.0, trials=trials, seed=seed, config=config)
        return coin, coin

    degenerate = mp == mq

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        if degenerate:
            # Statistic is identically zero: fall back to a fair coin.
            reject_p = rng.integers(0, 2, size=size).astype(bool)
            reject_q = rng.integers(0, 2, size=size).astype(bool)
            return np.stack([reject_p, ~reject_q])
        w0 = math.log(mp / mq)
        w1 = math.log((1.0 - mp) / (1.0 - mq))
        # Mathematically tied lattice points (e.g. count = n/2 for a
        # symmetric channel) can round to a tiny nonzero value; resolve
        # them as ties (accept the null) via a scale-relative cutoff.
        tie_tol = 1e-9 * n * (abs(w0) + abs(w1))
        cp = rng.binomial(n, mp, size=size)
        cq = rng.binomial(n, mq, size=size)
        llr_p = cp * w0 + (n - cp) * w1
        llr_q = cq * w0 + (n - cq) * w1
        return np.stack([llr_p < -tie_tol, llr_q >= -tie_tol])

    err1, err2 = _per_block(draw, trials, seed, workers).astype(float)
    return _mean_result(err1, seed, config), _mean_result(err2, seed, config)


def empirical_sample_complexity(
    p: ProbVector,
    q: ProbVector,
    eps: float,
    trials: int = 10_000,
    seed: int = 0,
    threshold: float = 0.1,
    n_cap: int = 1 << 20,
    workers: int = 1,
) -> int:
    """First passing ``n`` found by doubling and then bisecting.

    Doubles ``n`` until both simulated error rates drop below
    ``threshold``, then bisects between the last failing and the first
    passing power of two; every candidate is judged with the same seed
    (common random numbers).  The result need not be the smallest
    passing ``n``: pass/fail is not monotone in ``n``, because ties at
    even ``n`` accept the null.  For ``p = (.9, .1)``, ``q = (.1, .9)``
    at ``eps = ln 3`` the exact first passing ``n`` is 9 (10 and 12
    fail), while this search with 10 000 trials and seed 606 returns
    13.  Raises :class:`SampleComplexityError` if no ``n`` up to
    ``n_cap`` passes.
    """
    if not 0.0 < threshold < 0.5:
        raise SimulationError(f"error threshold must lie in (0, 0.5), got {threshold!r}")

    def passes(n: int) -> bool:
        r1, r2 = simulate_bht(p, q, eps, n, trials, seed, workers)
        return r1.estimate < threshold and r2.estimate < threshold

    n = 1
    while not passes(n):
        n *= 2
        if n > n_cap:
            raise SampleComplexityError(f"no sample size up to {n_cap} reached the error target")
    if n == 1:
        return 1
    lo, hi = n // 2, n  # lo failed, hi passed
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ------------------------------------------------------------------ moments


def binomial_moment_check(
    n: int,
    p: float,
    h: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> SimResult:
    """Monte Carlo estimate of the central absolute moment ``E|Z - np|^h``.

    ``Z ~ Binom(n, p)``.  Compare against
    ``c2 * max(1, (np)^{h/2})`` with :func:`load_calibrated_c2`.
    """
    trials = _check_trials(trials)
    if int(n) < 0:
        raise SimulationError(f"count parameter must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"success probability must lie in [0, 1], got {p!r}")
    if not 1.0 <= float(h) <= 100.0:
        raise SimulationError(f"moment order must lie in [1, 100], got {h!r}")
    n = int(n)
    h = float(h)

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        z = rng.binomial(n, p, size=size).astype(float)
        return np.abs(z - n * p) ** h

    vals = _per_block(draw, trials, seed, workers)
    config = {"experiment": "binomial_moment", "n": n, "p": float(p), "h": h}
    return _mean_result(vals, seed, config)


def load_calibrated_c2() -> dict:
    """Calibrated constant for the binomial moment bound.

    Loaded from packaged data produced by
    ``scripts/calibrate_binomial_moments.py``: ``c2`` is 1.5x the
    largest normalised moment ``E|Z - np|^h / max(1, (np)^{h/2})``
    observed over a dense ``(n, p, h)`` sweep (a per-``h`` table is
    stored alongside for reference).
    """
    text = resources.files("ldpcontract").joinpath("data/binomial_moment_c2.json").read_text()
    return json.loads(text)
