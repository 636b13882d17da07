"""Seeded Monte Carlo experiments for the mechanisms and bounds.

Reproducibility contract: every result is a pure function of the seed
and the experiment parameters.  The hypothesis-testing,
sample-complexity and binomial-moment experiments draw a call's
randomness from the one Philox stream ``stream(seed, 0)`` of
:func:`ldpcontract.rng.stream`, and check ``workers`` without using it.
The frequency-estimation experiment, whose trials cost enough for
threads to pay, draws block ``i`` of ``BLOCK`` trials from
``stream(seed, i)`` and joins blocks in block order, so its ``workers``
argument only runs blocks in parallel, on a thread pool that lives for
the call.  No config echoes ``workers``.

The hypothesis-testing experiment draws error counts, not trials.
The test's reject set is a run of counts at one end of ``0..n``, so a
trial's error is a Bernoulli event whose probability is one binomial
tail at the run's edge, summed from Loader's saddle-point pmf
(:func:`_binomial_split`).  The error counts under the two hypotheses
are then one binomial draw of all the trials at those rates, which
:func:`bht_exact_errors` returns.  The binomial-moment experiment, when
``n + 1 <= trials``, draws the histogram of its trials over ``0..n`` as
one multinomial on the same pmf (:func:`_binomial_pmf`).

Conventions: estimates come with a normal-approximation 95% confidence
half-width; hypothesis tests with zero samples (or a channel carrying
no signal) fall back to a fair coin, giving both error rates 1/2.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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
    "bht_exact_errors",
    "empirical_sample_complexity",
    "binomial_moment_check",
    "binomial_central_moment",
]

#: Trials per RNG block.  Fixed (never derived from the worker count) so
#: that results are identical for any degree of parallelism.
BLOCK = 4096

#: Histogram cells per multinomial draw in :func:`simulate_dist_estimation`.
_CHUNK_VALUES = 1 << 16

#: Smallest normal double: an ``ell_h`` sum below it may have underflowed.
_TINY = float(np.finfo(float).tiny)

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


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise SimulationError(f"worker count must be positive, got {workers}")


def _per_block(draw, trials: int, seed: int, workers: int) -> np.ndarray:
    """``draw(stream(seed, i), size)`` for every block ``i``, joined in block order.

    With ``workers > 1`` and more than one block, the blocks run on a pool
    of ``min(workers, blocks)`` threads that lives for this call.
    """
    _check_workers(workers)

    def block(i: int) -> np.ndarray:
        return draw(stream(seed, i), min(BLOCK, trials - i * BLOCK))

    blocks = range(-(-trials // BLOCK))
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(blocks)),
                                thread_name_prefix="ldpcontract") as pool:
            return np.concatenate(list(pool.map(block, blocks)))
    return np.concatenate([block(i) for i in blocks])


def _mean_result(values: np.ndarray, seed: int, config: dict,
                 counts: np.ndarray | None = None) -> SimResult:
    """The mean of the trials' values and its 95% half-width.

    Each entry of ``values`` is one trial, or with ``counts`` (positive
    integers), ``counts[i]`` trials that gave ``values[i]``.
    """
    trials = values.size if counts is None else int(counts.sum())

    def mean(v: np.ndarray) -> float:
        return float(v.mean() if counts is None else counts @ v / trials)

    def sd(v: np.ndarray) -> float:
        if counts is None:
            return float(v.std(ddof=1))
        return math.sqrt(float(counts @ (v - mean(v)) ** 2) / (trials - 1))

    with np.errstate(over="ignore"):  # an overflowing mean is an error; squares are rescaled
        est = mean(values)
        if not math.isfinite(est):
            raise SimulationError(
                f"the mean of the {config['experiment']} trials overflows a double")
        half = math.inf
        if trials > 1:
            half = sd(values)
            if not math.isfinite(half):
                top = float(np.abs(values).max())
                half = sd(values / top) * top
    return SimResult(estimate=est, half_width=Z95 * half / math.sqrt(trials), trials=trials,
                     seed=seed, config=config)


def _rate_result(count: int, trials: int, seed: int, config: dict) -> SimResult:
    """:func:`_mean_result` of ``trials`` 0/1 values of which ``count`` are 1, without the values."""
    count = int(count)
    var = count * (trials - count) / (trials * (trials - 1)) if trials > 1 else math.inf
    return SimResult(estimate=count / trials, half_width=Z95 * math.sqrt(var) / math.sqrt(trials),
                     trials=trials, seed=seed, config=config)


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
    if not 1.0 <= float(h) < math.inf:
        raise SimulationError(f"norm order must be finite and satisfy h >= 1, got {h!r}")
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
            err = np.abs(hadamard_estimate(hist, cfg) - p_true.mass)
            with np.errstate(over="ignore"):  # a row whose sum over- or underflows is redone
                sums = np.sum(err**h, axis=-1)
            norms = sums ** (1.0 / h)
            redo = ~np.isfinite(sums) | (sums < _TINY)
            if redo.any():  # m (sum (|e| / m)^h)^(1/h), m the row's largest |e| (1 if that is 0)
                top = err[redo].max(axis=-1, keepdims=True)
                top[top == 0.0] = 1.0
                norms[redo] = top[:, 0] * np.sum((err[redo] / top) ** h, axis=-1) ** (1.0 / h)
            errs[start : start + len(hist)] = norms
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

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

#: Largest number of binomial terms summed as one array in :func:`_tail_sum`.
_TAIL_CHUNK = 1 << 15


def _stirling_error(n: int) -> float:
    """``log n! - log(sqrt(2 pi n) (n / e)^n)`` for ``n >= 1`` (Loader 2000)."""
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _HALF_LOG_2PI
    nn = float(n) * n
    s0, s1, s2, s3, s4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188
    if n > 500:
        return (s0 - s1 / nn) / n
    if n > 80:
        return (s0 - (s1 - s2 / nn) / nn) / n
    if n > 35:
        return (s0 - (s1 - (s2 - s3 / nn) / nn) / nn) / n
    return (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / n


def _deviance(x: float, mean: float) -> float:
    """``x log(x / mean) + mean - x``; near ``mean``, its series in ``(x - mean) / (x + mean)``."""
    if abs(x - mean) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = (x - mean) / (x + mean)
    s, term, v2 = (x - mean) * v, 2.0 * x * v, v * v
    for j in range(1, 1000):
        term *= v2
        s_next = s + term / (2 * j + 1)
        if s_next == s:
            break
        s = s_next
    return s


def _binomial_log_pmf(n: int, p: float, k: int) -> float:
    """``log P(Z = k)`` for ``Z ~ Binom(n, p)``, ``0 < p < 1``, ``0 <= k <= n``.

    Loader's saddle-point form ("Fast and accurate computation of
    binomial probabilities", 2000): Stirling errors and deviances
    instead of ``log n!``, so the result keeps its relative accuracy
    at any ``n`` where ``lgamma(n + 1)`` alone would lose it.
    """
    q = 1.0 - p
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    lc = (_stirling_error(n) - _stirling_error(k) - _stirling_error(n - k)
          - _deviance(k, n * p) - _deviance(n - k, n * q))
    return lc - _HALF_LOG_2PI - 0.5 * (math.log(k) + math.log1p(-k / n))


def _tail_sum(n: int, p: float, start: int, step: int) -> float:
    """``P(Z = start) + P(Z = start + step) + ...`` up to ``0`` or ``n``, ``Z ~ Binom(n, p)``.

    The masses come from the one at ``start`` and the ratios of
    neighbours, in arrays of at most ``_TAIL_CHUNK`` terms.  Past the
    mode the ratios fall (the pmf is log-concave), so once a ratio
    ``r < 1`` the rest is below ``last * r / (1 - r)``; the sum stops
    when that is under ``2^-60`` of the total.  It takes
    ``O(min(sqrt(n), 1 / |start / n - p|))`` terms, at any ``n``.
    """
    log_odds = math.log(p) - math.log1p(-p)
    if step < 0:  # P(k - 1) / P(k) = k (1 - p) / ((n - k + 1) p)
        def log_ratios(k: np.ndarray) -> np.ndarray:
            return np.log(k / (n - k + 1.0)) - log_odds
    else:  # P(k + 1) / P(k) = (n - k) p / ((k + 1) (1 - p))
        def log_ratios(k: np.ndarray) -> np.ndarray:
            return np.log((n - k) / (k + 1.0)) + log_odds

    total, k, log_mass, size = 0.0, start, _binomial_log_pmf(n, p, start), 64
    while True:
        left = k + 1 if step < 0 else n - k + 1
        ks = k + step * np.arange(min(size, left), dtype=float)
        with np.errstate(divide="ignore"):  # the ratio past 0 or n is 0
            steps = log_ratios(ks)
        logs = log_mass + np.concatenate(([0.0], np.cumsum(steps[:-1])))
        masses = np.exp(logs)
        total += float(masses.sum())
        if len(ks) == left:
            return total
        ratio = math.exp(steps[-1])
        if ratio < 1.0 and masses[-1] * ratio <= (1.0 - ratio) * total * 2.0**-60:
            return total
        k, log_mass, size = k + step * len(ks), logs[-1] + steps[-1], min(2 * size, _TAIL_CHUNK)


def _binomial_split(n: int, p: float, j: int) -> tuple[float, float]:
    """``(P(Z <= j), P(Z > j))`` for ``Z ~ Binom(n, p)``, ``0 <= p <= 1``.

    The tail on the far side of ``j`` from the mode ``floor((n + 1) p)``
    is summed by :func:`_tail_sum` and the other is one minus it, so the
    smaller tail keeps its relative accuracy.  ``p`` of 0 or 1 is a
    point mass.
    """
    if j < 0 or p == 1.0 and j < n:
        return 0.0, 1.0
    if j >= n or p == 0.0:
        return 1.0, 0.0
    if j < math.floor((n + 1) * p):
        lower = _tail_sum(n, p, j, -1)
        return lower, 1.0 - lower
    upper = _tail_sum(n, p, j + 1, 1)
    return 1.0 - upper, upper


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """``P(Z = k)`` for ``k = 0..n``, ``Z ~ Binom(n, p)``, ``0 <= p <= 1``.

    Loader's mass at the mode ``floor((n + 1) p)`` (:func:`_binomial_log_pmf`)
    times, outward from it, the cumulative products of the neighbours'
    ratios (those of :func:`_tail_sum`), normalised to sum to 1.  The
    ratios fall below 1 away from the mode, so the products only shrink,
    and each step costs one rounding relative to the mass; a cumulative
    sum of log ratios would round at the scale of the log instead
    (``2^-44`` near ``log 1e-300``).  ``p`` of 0 or 1, and ``n = 0``, are
    point masses.  O(n) time and memory.
    """
    if n == 0 or p == 0.0 or p == 1.0:
        pmf = np.zeros(n + 1)
        pmf[n if p == 1.0 else 0] = 1.0
        return pmf
    odds = p / (1.0 - p)
    mode = math.floor((n + 1) * p)
    up = np.arange(mode, n, dtype=float)  # P(k + 1) / P(k) = (n - k) p / ((k + 1) (1 - p))
    down = np.arange(mode, 0, -1, dtype=float)  # P(k - 1) / P(k) = k (1 - p) / ((n - k + 1) p)
    pmf = math.exp(_binomial_log_pmf(n, p, mode)) * np.concatenate((
        np.cumprod(down / ((n - down + 1.0) * odds))[::-1],
        [1.0],
        np.cumprod((n - up) / (up + 1.0) * odds),
    ))
    return pmf / pmf.sum()


def _log_ratio(a: float, b: float) -> float:
    """``log(a / b)``, with ``log 0 = -inf`` and ``log(a / 0) = +inf``."""
    if b == 0.0:
        return math.inf
    ratio = a / b
    return math.log(ratio) if ratio > 0.0 else -math.inf


def _first_output_masses(p: ProbVector, q: ProbVector, eps: float) -> tuple[float, float]:
    """Masses of the binary mechanism's first output under ``p`` and under ``q``."""
    channel = binary_mechanism(p, q, eps)
    return float(push_forward(p, channel).mass[0]), float(push_forward(q, channel).mass[0])


def _reject_run(mp: float, mq: float, n: int) -> tuple[int, bool]:
    """The likelihood-ratio test's reject set as ``(j, low)``.

    A count is the number of first outputs among ``n >= 1`` privatized
    bits; ``mp != mq`` are the first-output masses under ``p`` and
    ``q``.  The test rejects ``p`` at the counts ``k <= j`` if ``low``
    and at ``k > j`` otherwise; ``(-1, True)`` is a test that never
    rejects.  The log-likelihood ratio ``k w0 + (n - k) w1`` has
    weights of opposite signs, so its floating-point value is monotone
    in ``k`` and the reject set is a run at one end: a bisection finds
    its edge in ``O(log n)`` evaluations.
    """
    w0 = _log_ratio(mp, mq)
    w1 = _log_ratio(1.0 - mp, 1.0 - mq)
    # Mathematically tied lattice points (e.g. count = n/2 for a
    # symmetric channel) can round to a tiny nonzero value; resolve
    # them as ties (accept the null) via a scale-relative cutoff.  An
    # infinite weight (a mass of 0 or 1) marks counts impossible under
    # one hypothesis and takes no part in the cutoff.
    tie_tol = 1e-9 * n * sum(abs(w) for w in (w0, w1) if math.isfinite(w))

    def rejects(k: int) -> bool:
        # 0 * inf is no term; inf - inf (a count neither allows) is nan, not a rejection
        llr = (k * w0 if k > 0 else 0.0) + ((n - k) * w1 if k < n else 0.0)
        return llr < -tie_tol

    low = rejects(0)
    if rejects(n) == low:
        return (n, True) if low else (-1, True)
    lo, hi = 0, n  # rejects(lo) == low != rejects(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rejects(mid) == low:
            lo = mid
        else:
            hi = mid
    return lo, low


def _bht_errors(mp: float, mq: float, n: int) -> tuple[float, float]:
    """Per-trial ``(type_I, type_II)`` error rates of the test on ``n >= 1`` privatized bits.

    ``mp`` and ``mq`` are the first-output masses under ``p`` and ``q``.
    The binomial mass of the reject set under ``p`` and of its
    complement under ``q``; equal masses carry no signal, and the test
    is a fair coin.
    """
    if mp == mq:
        return 0.5, 0.5
    j, low = _reject_run(mp, mq, n)
    (p_low, p_high), (q_low, q_high) = _binomial_split(n, mp, j), _binomial_split(n, mq, j)
    return (p_low, q_high) if low else (p_high, q_low)


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
    ties.  Returns ``(type_I, type_II)`` error estimates.  With ``n = 0``
    the decision is a fair coin and both estimates are exactly 1/2; when
    the privatized distributions coincide, so the statistic is
    identically zero, each trial is a fair coin.

    Each trial errs independently at the rates :func:`bht_exact_errors`
    returns (binomial tails at the edge of the reject run), so the two
    error counts are one ``stream(seed, 0).binomial(trials, rates)``:
    equal in distribution to drawing every trial, in O(1) time and
    memory.  ``workers`` is checked but not used.
    """
    trials = _check_trials(trials)
    _check_workers(workers)
    rates = bht_exact_errors(p, q, eps, n)
    n = int(n)
    config = {"experiment": "bht", "p": p.mass.tolist(), "q": q.mass.tolist(),
              "eps": float(eps), "n": n}
    if n == 0:
        coin = SimResult(estimate=0.5, half_width=0.0, trials=trials, seed=seed, config=config)
        return coin, coin
    counts = stream(seed, 0).binomial(trials, rates)
    return (_rate_result(counts[0], trials, seed, config),
            _rate_result(counts[1], trials, seed, config))


def bht_exact_errors(p: ProbVector, q: ProbVector, eps: float, n: int) -> tuple[float, float]:
    """Exact ``(type_I, type_II)`` error rates of the test :func:`simulate_bht` runs.

    The binomial mass of the reject set under ``p`` (type I) and of its
    complement under ``q`` (type II), from :func:`_binomial_split` and
    the same reject set and tie rule.  A fair-coin decision gives 1/2
    and 1/2.
    """
    if int(n) < 0:
        raise SimulationError(f"sample size must be non-negative, got {n}")
    n = int(n)
    mp, mq = _first_output_masses(p, q, eps)
    return (0.5, 0.5) if n == 0 else _bht_errors(mp, mq, n)


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
    passing power of two.  The first-output masses are computed once;
    each candidate ``n`` is judged by the one draw
    ``simulate_bht(p, q, eps, n, trials, seed)`` makes from
    ``stream(seed, 0)``.  Those draws are at different rates from the
    same stream, so a smaller error rate need not give a smaller count.
    The result need not be the smallest passing ``n`` either: pass/fail
    is not monotone in ``n``, because ties at even ``n`` accept the
    null.  For ``p = (.9, .1)``, ``q = (.1, .9)`` at ``eps = ln 3`` the
    exact first passing ``n`` is 9 (10 and 12 fail; see
    :func:`bht_exact_errors`), while this search with 10 000 trials and
    seed 606 returns 13.  ``workers`` is checked but not used.  Raises
    :class:`SampleComplexityError` if no ``n`` up to ``n_cap`` passes.
    """
    if not 0.0 < threshold < 0.5:
        raise SimulationError(f"error threshold must lie in (0, 0.5), got {threshold!r}")
    trials = _check_trials(trials)
    _check_workers(workers)
    mp, mq = _first_output_masses(p, q, eps)

    def passes(n: int) -> bool:  # simulate_bht's draw at n; both estimates below the threshold
        counts = stream(seed, 0).binomial(trials, _bht_errors(mp, mq, n))
        return int(counts.max()) / trials < threshold

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

#: Largest ``n`` :func:`binomial_central_moment` takes: its pmf over ``0..n``
#: costs O(n) time and memory (8 MiB per array at this cap).
MOMENT_N_CAP = 1 << 20


def _check_moment_inputs(n: int, p: float, h: float) -> tuple[int, float, float]:
    if int(n) < 0:
        raise SimulationError(f"count parameter must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"success probability must lie in [0, 1], got {p!r}")
    if not 1.0 <= float(h) <= 100.0:
        raise SimulationError(f"moment order must lie in [1, 100], got {h!r}")
    return int(n), float(p), float(h)


def binomial_moment_check(
    n: int,
    p: float,
    h: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> SimResult:
    """Monte Carlo estimate of the central absolute moment ``E|Z - np|^h``.

    ``Z ~ Binom(n, p)``.  Reports the mean over the trials and its 95%
    half-width, nothing more.  A call draws from the one stream
    ``stream(seed, 0)``, in one of two ways:

    * when ``n + 1 <= trials``, the histogram of the trials over
      ``0..n`` as one ``multinomial(trials, pmf)``, with the pmf from
      :func:`_binomial_pmf`: O(n) binomial draws and memory, equal in
      distribution to drawing every trial;
    * otherwise every trial, as one ``binomial(n, p, size=trials)``.

    ``workers`` is checked but not used.  Raises
    :class:`SimulationError` when the draws overflow a double, so that
    their mean is infinite (for example ``n = 10**12``, ``p = 0.5``,
    ``h = 100``).
    """
    trials = _check_trials(trials)
    _check_workers(workers)
    n, p, h = _check_moment_inputs(n, p, h)
    config = {"experiment": "binomial_moment", "n": n, "p": p, "h": h}
    rng = stream(seed, 0)
    if n + 1 <= trials:
        counts = rng.multinomial(trials, _binomial_pmf(n, p))
        seen = np.flatnonzero(counts)
        z, counts = seen.astype(float), counts[seen]
    else:
        z, counts = rng.binomial(n, p, size=trials).astype(float), None
    with np.errstate(over="ignore"):  # an overflow shows in the mean
        values = np.abs(z - n * p) ** h
    return _mean_result(values, seed, config, counts)


def binomial_central_moment(n: int, p: float, h: float) -> float:
    """Exact central absolute moment ``E|Z - np|^h``, ``Z ~ Binom(n, p)``.

    The pmf of :func:`_binomial_pmf` times ``|k - np|^h``, summed over
    the counts of positive mass, so the cost is O(n): ``n`` above
    :data:`MOMENT_N_CAP` raises :class:`SimulationError`, as does a
    moment that overflows a double.  Where some ``|k - np|^h`` overflows
    but the moment does not, the powers are taken of ``|k - np|`` over
    its largest value, and the sum is scaled back in log space.
    """
    n, p, h = _check_moment_inputs(n, p, h)
    if n > MOMENT_N_CAP:
        raise SimulationError(
            f"count parameter {n} exceeds the exact moment's cap of {MOMENT_N_CAP}")
    pmf = _binomial_pmf(n, p)
    support = np.flatnonzero(pmf)
    pmf, dev = pmf[support], np.abs(support - n * p)
    with np.errstate(over="ignore"):  # a power that overflows is rescaled below
        moment = float(pmf @ dev**h)
    if math.isfinite(moment):
        return moment
    top = float(dev.max())
    try:
        return math.exp(math.log(float(pmf @ (dev / top) ** h)) + h * math.log(top))
    except OverflowError:
        raise SimulationError("the binomial moment overflows a double") from None
