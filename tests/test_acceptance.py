"""End-to-end acceptance checks with explicit tolerances and runtime caps."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from ldpcontract.contraction import (
    chi2_tv_bound,
    eta_bruteforce,
    eta_tv_exact,
    prior_art_bounds,
    upsilon,
)
from ldpcontract.fisher import (
    fisher_multinomial,
    fisher_multinomial_inverse,
    multinomial_entropy_gradient,
)
from ldpcontract.mechanisms import HadamardConfig, randomized_response
from ldpcontract.minimax import (
    density_packing_build,
    distribution_estimation_lb,
    hadamard_ub,
    packing_neighbor_tv,
)
from ldpcontract.probability import (
    CHI2,
    H2,
    KL,
    TV,
    ProbVector,
    chi2_via_eg_quadrature,
    divergence,
    hellinger_via_eg_quadrature,
    push_forward,
)
from ldpcontract.serialize import emit_json
from ldpcontract.simulation import (
    empirical_sample_complexity,
    simulate_bht,
    simulate_dist_estimation,
)
from tests.conftest import rand_prob, random_ldp_channel

LN3 = math.log(3.0)


def test_acceptance_1_binary_rr_chi2_ratio_is_upsilon():
    start = time.perf_counter()
    for eps in (0.25, 0.5, 1.0, 2.0):
        k = randomized_response(2, eps)
        target = upsilon(eps)
        for alpha in (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9):
            p = ProbVector(np.array([alpha, 1.0 - alpha]))
            q = ProbVector.uniform(2)
            ratio = divergence(CHI2, push_forward(p, k), push_forward(q, k)) / divergence(
                CHI2, p, q)
            assert abs(ratio - target) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_acceptance_2_contraction_ceiling_random_ldp_channels():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for eps in (0.1, 0.5, 1.0, 2.0, 4.0):
        ceiling = upsilon(eps) + 1e-6
        for _ in range(500):
            n_in = int(rng.integers(2, 7))
            n_out = int(rng.integers(2, 7))
            k = random_ldp_channel(rng, eps, n_in, n_out)
            for kind in (KL, CHI2, H2):
                assert eta_bruteforce(k, kind).value <= ceiling
    assert time.perf_counter() - start < 300.0


def test_acceptance_3_output_chi2_vs_tv_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(10_000):
        eps = float(rng.uniform(0.05, 4.0))
        dim = int(rng.integers(2, 6))
        n_out = int(rng.integers(2, 6))
        k = random_ldp_channel(rng, eps, dim, n_out)
        p, q = rand_prob(rng, dim), rand_prob(rng, dim)
        tv = divergence(TV, p, q)
        chi2_out = divergence(CHI2, push_forward(p, k), push_forward(q, k))
        assert chi2_out <= chi2_tv_bound(eps, tv) + 1e-10
    # the new bound beats the earlier quadratic-in-TV bound whenever eps >= 1
    for eps in np.linspace(1.0, 5.0, 41):
        for tv in (0.05, 0.2, 0.5, 0.9):
            assert chi2_tv_bound(eps, tv) < prior_art_bounds(eps, tv)["tv_quadratic"]
    assert time.perf_counter() - start < 60.0


def test_acceptance_4_dobrushin_rr_within_one_ulp():
    for i in range(1, 21):
        eps = 0.2 * i
        got = eta_tv_exact(randomized_response(2, eps)).value
        ref = (math.exp(eps) - 1.0) / (math.exp(eps) + 1.0)
        assert abs(got - ref) <= math.ulp(ref)


def test_acceptance_5_fisher_identities():
    rng = np.random.default_rng(505)
    for _ in range(100):
        k = int(rng.integers(2, 11))
        theta = rng.dirichlet(np.full(k, 5.0))[:-1]
        prod = fisher_multinomial(theta) @ fisher_multinomial_inverse(theta)
        assert np.max(np.abs(prod - np.eye(k - 1))) <= 1e-8

    for k in range(3, 9):
        theta = np.full(k - 1, 1.0 / (3.0 * (k - 1)))
        grad = multinomial_entropy_gradient(theta)
        quad = float(grad @ fisher_multinomial_inverse(theta) @ grad)
        full = np.append(theta, 1.0 - theta.sum())
        var_log = float(np.sum(full * np.log(full) ** 2)
                        - np.sum(full * np.log(full)) ** 2)
        assert abs(quad - var_log) <= 1e-8
        assert abs(quad - (2.0 / 9.0) * math.log(2.0 * k - 2.0) ** 2) <= 1e-12


def test_acceptance_6_bht_sample_complexity_sandwich():
    start = time.perf_counter()
    p = ProbVector(np.array([0.9, 0.1]))
    q = ProbVector(np.array([0.1, 0.9]))
    n_star = empirical_sample_complexity(p, q, LN3, trials=10_000, seed=606)
    assert 2 <= n_star <= 21
    assert time.perf_counter() - start < 120.0


def test_acceptance_7_hadamard_rate_and_bounds():
    start = time.perf_counter()
    d, eps, h, trials = 4, LN3, 2.0, 400
    cfg = HadamardConfig.for_alphabet(d, eps)
    p_true = ProbVector(np.array([0.4, 0.3, 0.2, 0.1]))
    ns = [1000, 4000, 16000]
    risks, hws = [], []
    for n in ns:
        res = simulate_dist_estimation(cfg, p_true, n, h, trials, seed=707, workers=4)
        risks.append(res.estimate)
        hws.append(res.half_width)
        assert res.estimate >= distribution_estimation_lb(n, eps, d, h) - 3.0 * res.half_width
        assert res.estimate <= 10.0 * hadamard_ub(n, eps, d, h)
    slope = np.polyfit(np.log(ns), np.log(risks), 1)[0]
    assert abs(slope - (-0.5)) <= 0.05
    assert time.perf_counter() - start < 300.0


def test_acceptance_8_density_packing_consistency():
    rng = np.random.default_rng(808)
    for _ in range(50):
        beta = float(rng.uniform(0.25, 1.0))
        L = float(rng.uniform(0.5, 4.0))
        n = int(rng.integers(30, 200_000))
        eps = float(rng.uniform(0.25, 2.5))
        pk = density_packing_build(beta, L, n, eps)
        k = int(rng.integers(1, pk.N + 1))
        # Gauss-Legendre on cell k in its own coordinate t = 2^b x - k, times the cell width
        nodes, weights = np.polynomial.legendre.leggauss(64)
        t = 0.25 * np.concatenate([nodes + 1.0, nodes + 3.0])  # both halves of [0, 1]
        cell = 0.25 * np.sum(np.tile(weights, 2) * np.abs(pk.gamma * pk._bump(t, 0)))
        assert abs(math.ldexp(0.5 * cell, -pk.b) - pk.neighbor_tv_closed_form()) <= 1e-6
        assert packing_neighbor_tv(pk, k) == pk.neighbor_tv_closed_form()
        theta = rng.integers(0, 2, size=pk.N).astype(float)
        assert abs(pk.density_integral(theta) - 1.0) <= 1e-8
        xs = np.linspace(0.0, 1.0, 2001)
        assert np.all(pk.density(theta, xs) >= 0.0)


def test_acceptance_9_quadrature_identities():
    rng = np.random.default_rng(909)
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        p, q = rand_prob(rng, dim), rand_prob(rng, dim)
        assert abs(hellinger_via_eg_quadrature(p, q) - divergence(H2, p, q)) <= 1e-6
        assert abs(chi2_via_eg_quadrature(p, q) - divergence(CHI2, p, q)) <= 1e-6


def test_acceptance_10_simulation_worker_count_invariance():
    p = ProbVector(np.array([0.9, 0.1]))
    q = ProbVector(np.array([0.1, 0.9]))
    payloads = []
    for workers in (1, 2, 5):
        r1, r2 = simulate_bht(p, q, LN3, 15, 12_000, seed=1010, workers=workers)
        payloads.append(emit_json({"type_i": r1.to_payload(), "type_ii": r2.to_payload()}))
    assert payloads[0] == payloads[1] == payloads[2]

    cfg = HadamardConfig.for_alphabet(4, LN3)
    u = ProbVector.uniform(4)
    texts = [
        emit_json(simulate_dist_estimation(cfg, u, 100, 2.0, 200, seed=1010,
                                           workers=w).to_payload())
        for w in (1, 3)
    ]
    assert texts[0] == texts[1]
