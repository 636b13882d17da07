"""Monte Carlo harness: determinism, conventions, and statistical sanity."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from ldpcontract import simulation
from ldpcontract.mechanisms import HadamardConfig
from ldpcontract.probability import ProbVector
from ldpcontract.rng import stream
from ldpcontract.serialize import emit_json
from ldpcontract.simulation import (
    BLOCK,
    SampleComplexityError,
    SimulationError,
    binomial_moment_check,
    empirical_sample_complexity,
    load_calibrated_c2,
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


def test_bht_workers_do_not_change_results():
    a = simulate_bht(BER_9, BER_1, LN3, 20, 10_000, seed=3, workers=1)
    b = simulate_bht(BER_9, BER_1, LN3, 20, 10_000, seed=3, workers=3)
    assert emit_json(a[0].to_payload()) == emit_json(b[0].to_payload())
    assert emit_json(a[1].to_payload()) == emit_json(b[1].to_payload())


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


# -------------------------------------------------------- sample complexity


def test_sample_complexity_small_case():
    n_star = empirical_sample_complexity(BER_9, BER_1, LN3, trials=2000, seed=2)
    assert 1 <= n_star <= 64
    # one fewer sample must fail under the same seed (bisection invariant)
    if n_star > 1:
        r1, r2 = simulate_bht(BER_9, BER_1, LN3, n_star - 1, 2000, seed=2)
        assert max(r1.estimate, r2.estimate) >= 0.1


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


def test_binomial_moment_within_calibrated_bound():
    cal = load_calibrated_c2()
    for n, p, h in [(10, 0.5, 2.0), (100, 0.1, 6.0), (50, 0.9, 10.0)]:
        res = binomial_moment_check(n, p, h, 20_000, seed=23)
        bound = cal["c2"] * max(1.0, (n * p) ** (h / 2.0))
        assert res.estimate <= bound


def test_calibration_payload_shape():
    cal = load_calibrated_c2()
    assert cal["c2"] == pytest.approx(
        cal["safety_factor"] * cal["max_normalized_moment"], rel=1e-12)
    assert set(cal["per_h"]) >= {"2", "10", "100"}
    assert all(v <= cal["c2"] * (1 + 1e-12) for v in cal["per_h"].values())
