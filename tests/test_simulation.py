"""Monte Carlo harness: determinism, conventions, and statistical sanity."""

from __future__ import annotations

import math
import multiprocessing
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from ldpcontract import simulation
from ldpcontract.mechanisms import HadamardConfig, hadamard_estimate, hadamard_output_mass
from ldpcontract.probability import ProbVector
from ldpcontract.rng import stream
from ldpcontract.serialize import emit_json
from ldpcontract.simulation import (
    BLOCK,
    MOMENT_N_CAP,
    SampleComplexityError,
    SimResult,
    SimulationError,
    bht_exact_errors,
    binomial_central_moment,
    binomial_moment_check,
    empirical_sample_complexity,
    simulate_bht,
    simulate_dist_estimation,
)

LN3 = math.log(3.0)
BER_9 = ProbVector(np.array([0.9, 0.1]))
BER_1 = ProbVector(np.array([0.1, 0.9]))


# -------------------------------------------------------------- determinism


def test_dist_estimation_workers_do_not_change_results():
    cfg = HadamardConfig.for_alphabet(3, LN3)
    p = ProbVector(np.array([0.5, 0.3, 0.2]))
    base = simulate_dist_estimation(cfg, p, 50, 2.0, 64, seed=9, workers=1)
    multi = simulate_dist_estimation(cfg, p, 50, 2.0, 64, seed=9, workers=4)
    assert emit_json(base.to_payload()) == emit_json(multi.to_payload())


def test_dist_estimation_workers_do_not_change_results_across_blocks():
    cfg = HadamardConfig.for_alphabet(4, LN3)
    p = ProbVector(np.array([0.4, 0.3, 0.2, 0.1]))
    base = simulate_dist_estimation(cfg, p, 20, 2.0, BLOCK + 3, seed=5, workers=1)
    multi = simulate_dist_estimation(cfg, p, 20, 2.0, BLOCK + 3, seed=5, workers=2)
    assert base.trials == BLOCK + 3
    assert emit_json(base.to_payload()) == emit_json(multi.to_payload())


def test_dist_estimation_draws_one_stream_per_block(monkeypatch):
    paths = []

    def counting_stream(seed, *path):
        paths.append(path)
        return stream(seed, *path)

    monkeypatch.setattr(simulation, "stream", counting_stream)
    cfg = HadamardConfig.for_alphabet(4, LN3)
    simulate_dist_estimation(cfg, ProbVector.uniform(4), 20, 2.0, 2 * BLOCK + 5, seed=1, workers=2)
    assert sorted(paths) == [(0,), (1,), (2,)]


@pytest.mark.parametrize("chunk_values", [1, 7, 1 << 40])
def test_dist_estimation_does_not_depend_on_the_chunk_size(monkeypatch, chunk_values):
    cfg = HadamardConfig.for_alphabet(5, 2.0)
    p = ProbVector(np.array([0.3, 0.25, 0.2, 0.15, 0.1]))
    base = simulate_dist_estimation(cfg, p, 30, 3.0, BLOCK + 300, seed=4, workers=2)
    monkeypatch.setattr(simulation, "_CHUNK_VALUES", chunk_values)
    other = simulate_dist_estimation(cfg, p, 30, 3.0, BLOCK + 300, seed=4, workers=2)
    assert emit_json(other.to_payload()) == emit_json(base.to_payload())


def test_dist_estimation_memory_stays_proportional_to_the_output_alphabet():
    cfg = HadamardConfig.for_alphabet(4096, LN3)  # 8192 output symbols
    p = ProbVector.uniform(4096)
    tracemalloc.start()
    try:
        simulate_dist_estimation(cfg, p, 1000, 2.0, BLOCK, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_dist_estimation_norm_does_not_overflow_at_large_h(monkeypatch):
    """``|e|^200`` overflows a double where the ell_200 norm does not; other rows are unchanged."""
    cfg, p = HadamardConfig.for_alphabet(4, 0.01), ProbVector.uniform(4)
    values = []
    monkeypatch.setattr(simulation, "_mean_result", lambda v, seed, config: values.append(v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate_dist_estimation(cfg, p, 2, 200.0, 20, seed=1)
    hist = stream(1, 0).multinomial(2, hadamard_output_mass(p, cfg), size=20)
    err = np.abs(hadamard_estimate(hist, cfg) - p.mass)
    with np.errstate(over="ignore"):
        plain = np.sum(err**200.0, axis=1) ** (1.0 / 200.0)
    big = np.isinf(plain)
    assert 0 < big.sum() < 20
    assert np.array_equal(values[0][~big], plain[~big])  # bit for bit where nothing overflows
    for norm, row in zip(values[0][big], err[big]):
        top = float(row.max())
        want = top * math.exp(math.log(math.fsum((x / top) ** 200.0 for x in row)) / 200.0)
        assert norm == pytest.approx(want, rel=1e-13)



@pytest.mark.parametrize("h", [300.0, 1000.0])
def test_dist_estimation_norm_does_not_underflow_at_large_h(monkeypatch, h):
    """``|e|^h`` underflows where the ell_h norm, near the largest ``|e|``, does not."""
    cfg, p = HadamardConfig.for_alphabet(4, 1.0), ProbVector.uniform(4)
    values = []
    monkeypatch.setattr(simulation, "_mean_result", lambda v, seed, config: values.append(v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate_dist_estimation(cfg, p, 1000, h, 50, seed=1)
    hist = stream(1, 0).multinomial(1000, hadamard_output_mass(p, cfg), size=50)
    err = np.abs(hadamard_estimate(hist, cfg) - p.mass)
    sums = np.sum(err**h, axis=1)
    small = sums < np.finfo(float).tiny
    assert small.any() and err[small].max() > 0
    assert np.array_equal(values[0][~small], sums[~small] ** (1.0 / h))  # bit for bit elsewhere
    for norm, row in zip(values[0][small], err[small]):
        top = float(row.max())
        want = top * math.exp(math.log(math.fsum((x / top) ** h for x in row)) / h)
        assert norm == pytest.approx(want, rel=1e-13)

def test_bht_workers_do_not_change_results():
    a = simulate_bht(BER_9, BER_1, LN3, 20, 10_000, seed=3, workers=1)
    b = simulate_bht(BER_9, BER_1, LN3, 20, 10_000, seed=3, workers=3)
    assert emit_json(a[0].to_payload()) == emit_json(b[0].to_payload())
    assert emit_json(a[1].to_payload()) == emit_json(b[1].to_payload())


@pytest.mark.parametrize("n", [7, 20])
def test_bht_and_sample_complexity_do_not_depend_on_workers_across_blocks(n):
    bht = [simulate_bht(BER_9, BER_1, LN3, n, BLOCK + 3, seed=8, workers=w) for w in (1, 2, 5)]
    texts = {emit_json([r.to_payload() for r in pair]) for pair in bht}
    assert len(texts) == 1
    stars = {empirical_sample_complexity(BER_9, BER_1, LN3, trials=BLOCK + 3, seed=8, workers=w)
             for w in (1, 2, 5)}
    assert len(stars) == 1


def _block_threads(workers: int, seed: int) -> set[threading.Thread]:
    """The threads that ran the eight blocks of one ``_per_block`` call."""
    threads = set()

    def draw(rng, size):
        threads.add(threading.current_thread())
        return np.zeros(size)

    simulation._per_block(draw, 8 * BLOCK, seed, workers)
    return threads


def test_block_pool_lives_for_one_call():
    for workers in (2, 3):
        for seed in range(3):
            threads = _block_threads(workers, seed)
            assert 1 <= len(threads) <= workers
            assert threading.main_thread() not in threads  # the blocks ran on the pool
            assert not any(t.is_alive() for t in threads)  # and it was shut down before return


def _dist_of_blocks(workers: int) -> SimResult:
    """Three blocks of a frequency-estimation run, which ``workers > 1`` sends to the pool."""
    cfg = HadamardConfig.for_alphabet(4, LN3)
    p = ProbVector(np.array([0.4, 0.3, 0.2, 0.1]))
    return simulate_dist_estimation(cfg, p, 20, 2.0, 2 * BLOCK + 1, seed=4, workers=workers)


def _dist_in_child(conn):
    res = _dist_of_blocks(2)
    conn.send((res.estimate, res.half_width))


def test_block_pool_works_in_a_forked_child():
    parent = _dist_of_blocks(2)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_dist_in_child, args=(send,))
    child.start()
    try:
        assert recv.poll(60), "forked child did not finish its blocks"
        assert recv.recv() == (parent.estimate, parent.half_width)
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def test_same_seed_reproduces_exactly():
    r1 = binomial_moment_check(40, 0.3, 3.0, 5000, seed=11)
    r2 = binomial_moment_check(40, 0.3, 3.0, 5000, seed=11)
    assert emit_json(r1.to_payload()) == emit_json(r2.to_payload())
    r3 = binomial_moment_check(40, 0.3, 3.0, 5000, seed=12)
    assert r3.estimate != r1.estimate


# -------------------------------------------------------------- conventions


def test_bht_zero_samples_is_a_coin():
    r1, r2 = simulate_bht(BER_9, BER_1, LN3, 0, 100, seed=0)
    assert (r1.estimate, r1.half_width) == (0.5, 0.0)
    assert (r2.estimate, r2.half_width) == (0.5, 0.0)


def test_bht_zero_privacy_budget_is_a_coin():
    r1, r2 = simulate_bht(BER_9, BER_1, 0.0, 100, 20_000, seed=1)
    assert abs(r1.estimate - 0.5) <= 3.0 * r1.half_width + 1e-12
    assert abs(r2.estimate - 0.5) <= 3.0 * r2.half_width + 1e-12


def test_bht_errors_decrease_with_n():
    # start at n=4: ties (accepted as null) only exist at even n, so the
    # n=1 -> n=4 step genuinely raises the type-II error of the exact test
    prev = (1.0, 1.0)
    for n in (4, 16, 64):
        r1, r2 = simulate_bht(BER_9, BER_1, LN3, n, 20_000, seed=5)
        slack = 3.0 * (r1.half_width + r2.half_width)
        assert r1.estimate <= prev[0] + slack
        assert r2.estimate <= prev[1] + slack
        prev = (r1.estimate, r2.estimate)


def test_simulation_parameter_validation():
    with pytest.raises(SimulationError):
        simulate_bht(BER_9, BER_1, LN3, -1, 100, seed=0)
    with pytest.raises(SimulationError):
        simulate_bht(BER_9, BER_1, LN3, 10, 0, seed=0)
    cfg = HadamardConfig.for_alphabet(4, LN3)
    with pytest.raises(SimulationError):
        simulate_dist_estimation(cfg, BER_9, 10, 2.0, 10, seed=0)  # dim mismatch
    with pytest.raises(SimulationError):
        simulate_dist_estimation(cfg, ProbVector.uniform(4), 10, 0.5, 10, seed=0)
    with pytest.raises(SimulationError):
        empirical_sample_complexity(BER_9, BER_1, LN3, threshold=0.7)


# ---------------------------------------------------- exact binomial layer


def _pmf_by_enumeration(n: int, p: float, k: int) -> float:
    if p in (0.0, 1.0):
        return float(k == (0 if p == 0.0 else n))
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * math.log(p) + (n - k) * math.log1p(-p))


def _bht_errors_by_enumeration(p, q, eps, n):
    """The binary mechanism's masses, the tie rule and the error sums, term by term."""
    e = math.exp(eps)
    first = [e / (1.0 + e) if a >= b else 1.0 / (1.0 + e) for a, b in zip(p, q)]
    mp = math.fsum(a * f for a, f in zip(p, first))
    mq = math.fsum(b * f for b, f in zip(q, first))
    w0, w1 = math.log(mp / mq), math.log((1.0 - mp) / (1.0 - mq))
    tie = 1e-9 * n * (abs(w0) + abs(w1))
    reject = [z * w0 + (n - z) * w1 < -tie for z in range(n + 1)]
    return (math.fsum(_pmf_by_enumeration(n, mp, z) for z in range(n + 1) if reject[z]),
            math.fsum(_pmf_by_enumeration(n, mq, z) for z in range(n + 1) if not reject[z]))


def _llr_rejects(mp: float, mq: float, n: int) -> np.ndarray:
    """The test's decision at every count ``0..n``, one count at a time."""
    w0, w1 = simulation._log_ratio(mp, mq), simulation._log_ratio(1.0 - mp, 1.0 - mq)
    tie = 1e-9 * n * sum(abs(w) for w in (w0, w1) if math.isfinite(w))
    k = np.arange(n + 1)
    with np.errstate(invalid="ignore"):
        llr = np.where(k > 0, k * w0, 0.0) + np.where(k < n, (n - k) * w1, 0.0)
    return llr < -tie


def _run_as_counts(n: int, run: tuple[int, bool]) -> np.ndarray:
    j, low = run
    k = np.arange(n + 1)
    return k <= j if low else k > j


def test_binomial_split_matches_enumeration(rng):
    for n in [1, 2, 5, 17, 60, 400, 5000]:
        js = range(n) if n <= 400 else rng.integers(0, n, size=60)
        for p in [*rng.uniform(0.0, 1.0, size=4), 1e-300, 0.5, 1.0 - 1e-16]:
            pmf = [_pmf_by_enumeration(n, float(p), z) for z in range(n + 1)]
            pmf = np.array(pmf) / math.fsum(pmf)  # lgamma's rounding at n = 5000 is ~1e-12
            for j in js:
                lower, upper = simulation._binomial_split(n, float(p), int(j))
                want_lower, want_upper = math.fsum(pmf[: j + 1]), math.fsum(pmf[j + 1 :])
                assert abs(lower - want_lower) <= 1e-12 and abs(upper - want_upper) <= 1e-12
                small, want = min((lower, want_lower), (upper, want_upper))
                assert abs(small - want) <= 1e-9 * want, (n, p, j)  # the summed tail is relative


@pytest.mark.parametrize("n", [0, 1, 9])
def test_binomial_split_point_masses_and_ends(n):
    for j in range(-1, n + 1):
        assert simulation._binomial_split(n, 0.0, j) == ((0.0, 1.0) if j < 0 else (1.0, 0.0))
        assert simulation._binomial_split(n, 1.0, j) == ((1.0, 0.0) if j >= n else (0.0, 1.0))
    assert simulation._binomial_split(n, 0.3, -1) == (0.0, 1.0)
    assert simulation._binomial_split(n, 0.3, n) == (1.0, 0.0)


def test_binomial_log_pmf_keeps_its_accuracy_at_large_n():
    for n in [10**6, 10**9, 10**12, 10**15]:
        # P(Z = n/2) at p = 1/2 is sqrt(2 / (pi n)) (1 - 1/(4n) + O(n^-2))
        want = math.log(math.sqrt(2.0 / (math.pi * n))) + math.log1p(-0.25 / n)
        assert simulation._binomial_log_pmf(n, 0.5, n // 2) == pytest.approx(want, abs=1e-12)


def test_binomial_split_at_large_n_is_cheap():
    n = 10**12
    tracemalloc.start()
    start = time.perf_counter()
    try:
        # the slowest case: j at the mean, so the summed tail holds half the mass
        lower, upper = simulation._binomial_split(n, 0.5, n // 2)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    half_mode = 0.5 * math.sqrt(2.0 / (math.pi * n))  # P(Z <= n/2) = 1/2 + P(Z = n/2) / 2
    assert lower == pytest.approx(0.5 + half_mode, abs=1e-13)
    assert upper == pytest.approx(0.5 - half_mode, abs=1e-13)
    assert seconds < 5.0 and peak < 4 * 2**20, (seconds, peak)


def test_simulate_bht_at_large_n_is_cheap_and_matches_the_exact_errors():
    n = 10**12
    p = ProbVector(np.array([0.5 + 1e-6, 0.5 - 1e-6]))
    q = ProbVector(np.array([0.5 - 1e-6, 0.5 + 1e-6]))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        sim = simulate_bht(p, q, 1.0, n, 20_000, seed=5)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    exact = bht_exact_errors(p, q, 1.0, n)
    assert 0.05 < exact[0] < 0.45 and 0.05 < exact[1] < 0.45  # the edge is near both means
    for res, want in zip(sim, exact):
        assert abs(res.estimate - want) <= 5.0 * res.half_width, (res.estimate, want)
    assert seconds < 5.0 and peak < 8 * 2**20, (seconds, peak)
    far = simulate_bht(BER_9, BER_1, LN3, n, 1000, seed=5)
    assert (far[0].estimate, far[1].estimate) == (0.0, 0.0)


def _random_masses(rng, case: int) -> tuple[float, float]:
    kind = case % 4
    if kind == 0:  # random masses
        return tuple(float(x) for x in rng.uniform(0.0, 1.0, size=2))
    if kind == 1:  # symmetric channel: ties at count n/2 for even n
        mp = float(rng.uniform(0.0, 1.0))
        return mp, 1.0 - mp
    if kind == 2:  # masses of 0 or 1, as a privatized mass can round to
        return tuple(float(x) for x in rng.choice([0.0, 1.0, rng.uniform()], size=2))
    e = math.exp(float(rng.uniform(0.0, 5.0)))  # the acceptance-6 channel at a random eps
    return (0.9 * e + 0.1) / (1.0 + e), (0.1 * e + 0.9) / (1.0 + e)


def test_reject_run_matches_the_count_by_count_test(rng):
    cases = 0
    while cases < 6000:
        n = int(rng.integers(1, 61)) if cases % 50 else int(rng.integers(61, 5000))
        mp, mq = _random_masses(rng, cases)
        if mp == mq:
            continue
        run = simulation._reject_run(mp, mq, n)
        assert np.array_equal(_run_as_counts(n, run), _llr_rejects(mp, mq, n)), (n, mp, mq, run)
        cases += 1


class _RecordingStream:
    """A stand-in block stream that records each ``binomial(size, prob)`` call and draws 0."""

    def __init__(self, calls: list, path: tuple):
        self.calls, self.path = calls, path

    def binomial(self, size, prob):
        prob = np.asarray(prob)
        self.calls.append((self.path, size, prob.ravel().tolist()))
        return np.zeros(prob.shape, dtype=np.int64)


def test_simulate_bht_draws_once_at_the_exact_error_rates(rng, monkeypatch):
    """A call draws its two error counts once, from ``stream(seed, 0)``, at ``bht_exact_errors``.

    The masses cover random, tie, fair-coin and 0/1-mass cases; the
    trial counts span one to four ``BLOCK``s.
    """
    calls = []
    monkeypatch.setattr(simulation, "stream",
                        lambda seed, *path: _RecordingStream(calls, path))
    for case in range(12_000):
        n = int(rng.integers(1, 61))
        mp, mq = _random_masses(rng, case)
        trials = int(rng.integers(1, 4 * BLOCK + 1))
        monkeypatch.setattr(simulation, "_first_output_masses", lambda p, q, eps: (mp, mq))
        calls.clear()
        simulate_bht(BER_9, BER_1, LN3, n, trials, seed=0)
        want = list(bht_exact_errors(BER_9, BER_1, LN3, n))
        assert calls == [((0,), trials, want)], (n, mp, mq)


@pytest.mark.parametrize("n", [1, 9, 10, 20, 57])
def test_simulate_bht_estimates_are_the_one_stream_binomial_counts(rng, n):
    """Each estimate is the ``stream(seed, 0).binomial(trials, e)`` count over the trials."""
    pairs = [(BER_9, BER_1), (ProbVector(np.array([0.6, 0.4])), ProbVector(np.array([0.45, 0.55])))]
    for p, q in pairs:
        for eps in (float(rng.uniform(0.1, 3.0)), 0.0):  # eps = 0 carries no signal: a coin
            seed, trials = int(rng.integers(1000)), 2 * BLOCK + int(rng.integers(1, BLOCK))
            e = list(bht_exact_errors(p, q, eps, n))
            counts = stream(seed, 0).binomial(trials, e)
            results = simulate_bht(p, q, eps, n, trials, seed)
            for h in (0, 1):
                assert results[h].estimate == counts[h] / trials, (p, q, eps, h)
                assert results[h].trials == trials


def _unreachable(*args):
    raise AssertionError("must not be called")


def test_simulate_bht_never_submits_to_the_block_pool(monkeypatch):
    monkeypatch.setattr(simulation, "_per_block", _unreachable)
    monkeypatch.setattr(simulation, "ThreadPoolExecutor", _unreachable)
    one = simulate_bht(BER_9, BER_1, LN3, 20, 3 * BLOCK + 5, seed=2, workers=1)
    five = simulate_bht(BER_9, BER_1, LN3, 20, 3 * BLOCK + 5, seed=2, workers=5)
    assert one == five
    assert empirical_sample_complexity(BER_9, BER_1, LN3, trials=2 * BLOCK + 1, seed=2,
                                       workers=5) >= 1
    for n in (0, 20):  # workers is still checked, also where no block is drawn
        with pytest.raises(SimulationError, match="worker count"):
            simulate_bht(BER_9, BER_1, LN3, n, 100, seed=0, workers=0)


@pytest.mark.parametrize("trials", [1, 2, 3, 1000, BLOCK + 7])
def test_rate_result_is_the_mean_result_of_0_1_values(rng, trials):
    for count in {0, 1, trials // 3, trials - 1, trials}:
        if not 0 <= count <= trials:
            continue
        values = np.zeros(trials)
        values[rng.choice(trials, size=count, replace=False)] = 1.0
        want = simulation._mean_result(values, 3, {"experiment": "bht"})
        got = simulation._rate_result(count, trials, 3, {"experiment": "bht"})
        assert got.estimate == pytest.approx(want.estimate, rel=1e-15, abs=0.0)
        assert got.half_width == pytest.approx(want.half_width, rel=1e-12, abs=0.0)
        assert (got.trials, got.seed, got.config) == (trials, 3, {"experiment": "bht"})


@pytest.mark.parametrize("scale", [1.0, 1e200])  # 1e200: the squares overflow
@pytest.mark.parametrize("size", [1, 2, 40])
def test_weighted_mean_result_is_the_mean_result_of_the_repeated_values(rng, scale, size):
    values = rng.uniform(0.0, 5.0, size=size) * scale
    counts = rng.integers(1, 50, size=size)
    if size == 1:
        counts[0] = 1  # one trial: an infinite half-width
    want = simulation._mean_result(np.repeat(values, counts), 3, {"experiment": "binomial_moment"})
    got = simulation._mean_result(values, 3, {"experiment": "binomial_moment"}, counts)
    assert got.estimate == pytest.approx(want.estimate, rel=1e-13, abs=0.0)
    assert got.half_width == pytest.approx(want.half_width, rel=1e-12, abs=0.0)
    assert got.trials == want.trials == counts.sum()


@pytest.mark.parametrize("mp, mq, n, want", [
    (1.0, 0.3, 4, [1, 1, 1, 1, 0]),  # counts below n are impossible under p
    (0.7, 0.0, 4, [1, 0, 0, 0, 0]),  # counts above 0 are impossible under q
    (1.0, 0.0, 4, [1, 0, 0, 0, 0]),  # middle counts are impossible under both: accepted
    (0.2, 1.0, 3, [0, 0, 0, 1]),
])
def test_reject_run_at_masses_of_zero_and_one(mp, mq, n, want):
    run = simulation._reject_run(mp, mq, n)
    assert _run_as_counts(n, run).tolist() == [bool(w) for w in want]


EXACT_PAIRS = [
    (BER_9, BER_1),  # acceptance 6: ties at even n
    (ProbVector(np.array([0.5, 0.3, 0.2])), ProbVector(np.array([0.2, 0.3, 0.5]))),
    (ProbVector(np.array([0.6, 0.4])), ProbVector(np.array([0.45, 0.55]))),
]


@pytest.mark.parametrize("eps", [0.1, LN3, 2.0])
@pytest.mark.parametrize("pair", range(len(EXACT_PAIRS)))
def test_bht_exact_errors_match_enumeration(eps, pair):
    p, q = EXACT_PAIRS[pair]
    for n in range(0, 61):
        got = bht_exact_errors(p, q, eps, n)
        if n == 0:
            assert got == (0.5, 0.5)
            continue
        want = _bht_errors_by_enumeration(p.mass.tolist(), q.mass.tolist(), eps, n)
        assert abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12, (n, got, want)


@pytest.mark.parametrize("eps", [0.1, LN3, 2.0])
@pytest.mark.parametrize("n", [9, 10, 15, 16])
def test_simulated_bht_errors_agree_with_the_exact_ones(eps, n):
    for seed, (p, q) in enumerate(EXACT_PAIRS):
        exact = bht_exact_errors(p, q, eps, n)
        for res, want in zip(simulate_bht(p, q, eps, n, 20_000, seed=seed), exact):
            assert abs(res.estimate - want) <= 5.0 * res.half_width, (seed, res.estimate, want)


def test_bht_exact_errors_conventions():
    assert bht_exact_errors(BER_9, BER_1, 0.0, 10) == (0.5, 0.5)  # no signal: a coin
    # at eps = 40 the first-output mass under p rounds to 1: type II is mq^5 = (1 + e^40)^-5
    type_i, type_ii = bht_exact_errors(ProbVector(np.array([1.0, 0.0])),
                                       ProbVector(np.array([0.0, 1.0])), 40.0, 5)
    assert type_i == 0.0
    assert type_ii == pytest.approx((1.0 + math.exp(40.0)) ** -5, rel=1e-12)
    with pytest.raises(SimulationError):
        bht_exact_errors(BER_9, BER_1, LN3, -1)
    # acceptance 6's pair: the first n with both errors below 0.1 is 9; 10 and 12 fail
    passing = [n for n in range(1, 14) if max(bht_exact_errors(BER_9, BER_1, LN3, n)) < 0.1]
    assert passing[:3] == [9, 11, 13]


# -------------------------------------------------------- sample complexity


def test_sample_complexity_small_case():
    n_star = empirical_sample_complexity(BER_9, BER_1, LN3, trials=2000, seed=2)
    assert 1 <= n_star <= 64
    # one fewer sample must fail under the same seed (bisection invariant)
    if n_star > 1:
        r1, r2 = simulate_bht(BER_9, BER_1, LN3, n_star - 1, 2000, seed=2)
        assert max(r1.estimate, r2.estimate) >= 0.1


def _search_by_simulate_bht(trials: int, seed: int) -> tuple[int, list[int]]:
    """Acceptance 6's search, judged by ``simulate_bht`` calls: the result and the candidates."""
    seen = []

    def passes(n):
        seen.append(n)
        r1, r2 = simulate_bht(BER_9, BER_1, LN3, n, trials, seed)
        return r1.estimate < 0.1 and r2.estimate < 0.1

    n = 1
    while not passes(n):
        n *= 2
    lo, hi = n // 2, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi, seen


@pytest.mark.parametrize("trials, seed", [(10_000, 606), (2000, 2), (3 * BLOCK + 1, 7)])
def test_sample_complexity_makes_simulate_bht_draw_once_per_candidate(monkeypatch, trials, seed):
    want, candidates = _search_by_simulate_bht(trials, seed)
    assert len(candidates) > 1
    masses, streams, rates = [], [], []
    first_output_masses, bht_errors = simulation._first_output_masses, simulation._bht_errors
    monkeypatch.setattr(simulation, "_first_output_masses",
                        lambda *a: masses.append(a) or first_output_masses(*a))
    monkeypatch.setattr(simulation, "stream", lambda *a: streams.append(a) or stream(*a))
    monkeypatch.setattr(simulation, "_bht_errors",
                        lambda mp, mq, n: rates.append(n) or bht_errors(mp, mq, n))
    monkeypatch.setattr(simulation, "_per_block", _unreachable)
    monkeypatch.setattr(simulation, "ThreadPoolExecutor", _unreachable)
    assert empirical_sample_complexity(BER_9, BER_1, LN3, trials=trials, seed=seed,
                                       workers=2) == want
    assert len(masses) == 1
    assert rates == candidates
    assert streams == [(seed, 0)] * len(candidates)


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": 0}, "trial count"), ({"workers": 0}, "worker count"),
])
def test_sample_complexity_checks_trials_and_workers_before_the_first_candidate(
        monkeypatch, kwargs, message):
    monkeypatch.setattr(simulation, "_first_output_masses", _unreachable)
    monkeypatch.setattr(simulation, "stream", _unreachable)
    with pytest.raises(SimulationError, match=message):
        empirical_sample_complexity(BER_9, BER_1, LN3, **kwargs)


def test_sample_complexity_cap():
    close_p = ProbVector(np.array([0.5001, 0.4999]))
    close_q = ProbVector(np.array([0.4999, 0.5001]))
    with pytest.raises(SampleComplexityError):
        empirical_sample_complexity(close_p, close_q, 0.01, trials=200, seed=0, n_cap=64)


# ------------------------------------------------------------------ moments


def test_binomial_moment_h2_matches_variance():
    n, p = 60, 0.35
    res = binomial_moment_check(n, p, 2.0, 200_000, seed=17)
    # 2x the 95% half-width ~ 3.9 sigma; keeps the seed-fixed check stable
    assert abs(res.estimate - n * p * (1 - p)) <= 2.0 * res.half_width


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_binomial_moment_is_one_stream_draw_at_any_worker_count(monkeypatch, workers):
    """``stream(seed, 0)``'s histogram over ``0..n`` when ``n + 1 <= trials``, else its trials."""
    monkeypatch.setattr(simulation, "_per_block", _unreachable)
    monkeypatch.setattr(simulation, "ThreadPoolExecutor", _unreachable)
    for n, p, h, trials, seed in [(40, 0.3, 3.0, 2 * BLOCK + 1, 4), (1000, 0.05, 1.5, 3 * BLOCK, 9),
                                  (7, 0.5, 2.0, 1, 0), (10**9, 0.25, 2.5, 500, 3),
                                  (600, 0.5, 1.5, 601, 5), (601, 0.5, 1.5, 601, 5)]:
        res = binomial_moment_check(n, p, h, trials, seed, workers=workers)
        if n + 1 <= trials:
            counts = stream(seed, 0).multinomial(trials, simulation._binomial_pmf(n, p))
            k = np.flatnonzero(counts)
            want = simulation._mean_result(np.abs(k - n * p) ** h, seed, res.config, counts[k])
        else:
            z = stream(seed, 0).binomial(n, p, size=trials).astype(float)
            want = simulation._mean_result(np.abs(z - n * p) ** h, seed, res.config)
        assert res == want
    with pytest.raises(SimulationError, match="worker count"):
        binomial_moment_check(40, 0.3, 3.0, 100, seed=0, workers=0)


def test_binomial_moment_half_width_survives_overflowing_squares():
    """At h = 30 the moment is near 1e181, so its square overflows; the half-width does not."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = binomial_moment_check(10**12, 0.5, 30.0, 100, seed=1)
    z = stream(1, 0).binomial(10**12, 0.5, size=100).astype(float)
    scaled = np.abs(z - 0.5e12) ** 30.0 / 1e181
    want = simulation.Z95 * scaled.std(ddof=1) * 1e181 / math.sqrt(100)
    assert math.isfinite(res.half_width)
    assert res.half_width == pytest.approx(want, rel=1e-12)


def test_binomial_moment_overflow_raises_without_a_warning():
    """|Z - np|^100 overflows a double at n = 10^12; the mean says so, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for workers in (1, 2):
            with pytest.raises(SimulationError, match="overflows a double"):
                binomial_moment_check(10**12, 0.5, 100.0, 2 * BLOCK + 1, seed=1, workers=workers)
        res = binomial_moment_check(10**12, 0.5, 20.0, 1000, seed=1)
        assert math.isfinite(res.estimate) and math.isfinite(res.half_width)


def _exact_moment(n: int, p: float, h: float) -> float:
    """``E|Z - np|^h`` by enumerating ``math.comb(n, k) p^k (1 - p)^(n - k)``."""
    return math.fsum(math.comb(n, k) * p**k * (1.0 - p) ** (n - k) * abs(k - n * p) ** h
                     for k in range(n + 1))


@pytest.mark.parametrize("n", [1, 2, 37, 2000, 5000])
@pytest.mark.parametrize("p", [1e-3, 0.05, 0.5, 0.95, 1.0 - 1e-3])
def test_binomial_pmf_is_loaders_pmf_normalised(n, p):
    pmf = simulation._binomial_pmf(n, p)
    want = np.array([math.exp(simulation._binomial_log_pmf(n, p, k)) for k in range(n + 1)])
    kept = want > 1e-300
    assert pmf.shape == (n + 1,)
    assert np.all(np.abs(pmf[kept] / want[kept] - 1.0) <= 1e-12)
    assert abs(math.fsum(pmf) - 1.0) <= 1e-12


def test_binomial_pmf_point_masses():
    for n, p, at in [(0, 0.0, 0), (0, 0.3, 0), (0, 1.0, 0), (1, 0.0, 0), (1, 1.0, 1), (9, 0.0, 0),
                     (9, 1.0, 9)]:
        want = np.zeros(n + 1)
        want[at] = 1.0
        assert np.array_equal(simulation._binomial_pmf(n, p), want), (n, p)


@pytest.mark.parametrize("n, p, h, trials, seed", [
    (10, 0.5, 1.0, 10_000, 1), (40, 0.3, 3.0, 50_000, 2), (300, 0.05, 2.5, 100_000, 3),
    (1000, 0.9, 4.0, 100_000, 4), (600, 0.5, 1.5, 601, 5),
])
def test_binomial_moment_histogram_is_within_its_half_width(n, p, h, trials, seed):
    assert n + 1 <= trials  # the histogram case
    res = binomial_moment_check(n, p, h, trials, seed)
    assert abs(res.estimate - _exact_moment(n, p, h)) <= 5.0 * res.half_width


@pytest.mark.parametrize("n, p, h", [
    (0, 0.4, 2.0), (1, 0.5, 1.0), (9, 0.0, 3.0), (9, 1.0, 3.0), (12, 0.2, 1.5), (40, 0.7, 3.0),
    (300, 0.05, 2.5), (1000, 0.5, 4.0),
])
def test_binomial_central_moment_matches_enumeration(n, p, h):
    assert binomial_central_moment(n, p, h) == pytest.approx(_exact_moment(n, p, h), rel=1e-12)


@pytest.mark.parametrize("n, p", [(1, 0.5), (60, 0.35), (2000, 1e-3), (10**5, 0.9)])
def test_binomial_central_moment_h2_is_the_variance(n, p):
    assert binomial_central_moment(n, p, 2.0) == pytest.approx(n * p * (1 - p), rel=1e-12)


def test_binomial_central_moment_rescales_overflowing_powers():
    """At n = 10^6, p = 10^-3, h = 100 some ``|k - np|^100`` overflow; the moment does not."""
    n, p, h = 10**6, 1e-3, 100.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = binomial_central_moment(n, p, h)
        with pytest.raises(SimulationError, match="overflows a double"):
            binomial_central_moment(n, 0.5, h)
    k = np.arange(n + 1, dtype=float)
    with np.errstate(over="ignore"):
        assert np.isinf((np.abs(k - n * p) ** h)[simulation._binomial_pmf(n, p) > 0]).any()
    logs = [math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * math.log(p)
            + (n - j) * math.log1p(-p) + h * math.log(abs(j - n * p))
            for j in range(3000) if j != n * p]  # past 3000 the terms are below e^-1000 of the top
    top = max(logs)
    want = math.exp(top + math.log(math.fsum(math.exp(t - top) for t in logs)))
    assert got == pytest.approx(want, rel=1e-6)  # lgamma at n = 10^6 keeps about 9 digits


def test_binomial_central_moment_checks_its_inputs_and_cap():
    for args, message in [((-1, 0.5, 2.0), "count parameter"), ((10, 1.5, 2.0), "probability"),
                          ((10, 0.5, 0.5), "moment order"), ((10, 0.5, 101.0), "moment order"),
                          ((MOMENT_N_CAP + 1, 0.5, 2.0), str(MOMENT_N_CAP))]:
        with pytest.raises(SimulationError, match=message):
            binomial_central_moment(*args)
    assert binomial_central_moment(MOMENT_N_CAP, 0.5, 2.0) == pytest.approx(MOMENT_N_CAP / 4,
                                                                             rel=1e-12)
