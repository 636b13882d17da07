"""Minimax bound formulas, the density packing, and bound-report invariants."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from ldpcontract.contraction import psi, upsilon
from ldpcontract.minimax import (
    BoundEntry,
    BoundError,
    BoundReport,
    DensityPacking,
    InfeasiblePackingError,
    assouad_lb,
    bht_sample_complexity,
    density_estimation_lb,
    density_packing_build,
    distribution_estimation_lb,
    entropy_estimation_lb,
    gaussian_location_lb,
    gaussian_location_table1,
    hadamard_ub,
    le_cam_lb,
    le_cam_prior_lb,
    log_unit_ball_volume_l2,
    mim_lb,
    packing_neighbor_tv,
)
from ldpcontract.minimax import _leggauss, _unit_bump_holder_constant

LN3 = math.log(3.0)


# ------------------------------------------------------------------- Le Cam


def test_le_cam_hand_value():
    n, eps, alpha, kl, tv = 16, 1.0, 1.0, 0.02, 0.05
    u, p = upsilon(eps), psi(eps)
    term = min(math.sqrt(u * kl), 2.0 * math.sqrt(p) * tv, math.sqrt(p * tv))
    ref = (alpha / (2 * math.sqrt(2))) * max(math.sqrt(2) - 4.0 * term, 0.0)
    assert le_cam_lb(n, eps, alpha, kl, tv) == pytest.approx(ref, abs=1e-15)


def test_le_cam_third_route_hand_value():
    """At eps = 1, TV = 1/2 and KL = 10 the route ``sqrt(psi TV)`` = 0.737 wins over
    ``sqrt(upsilon KL)`` = 1.46 and ``2 sqrt(psi) TV`` = 1.04; the constants from ``math``."""
    psi1 = (math.e - 1.0) ** 2 / math.e
    upsilon1 = ((math.e - 1.0) / (math.e + 1.0)) ** 2
    routes = (math.sqrt(upsilon1 * 10.0), 2.0 * math.sqrt(psi1) * 0.5, math.sqrt(psi1 * 0.5))
    assert min(routes) == routes[2] < 0.74
    ref = (math.sqrt(2.0) - routes[2]) / (2.0 * math.sqrt(2.0))
    assert le_cam_lb(1, 1.0, 1.0, 10.0, 0.5) == pytest.approx(ref, rel=1e-14)


def test_le_cam_clamps_to_zero():
    assert le_cam_lb(10_000, 2.0, 1.0, 0.5, 0.5) == 0.0


def test_le_cam_dominates_prior_version():
    rng = np.random.default_rng(21)
    for _ in range(200):
        eps = float(rng.uniform(0.05, 3.0))
        tv = float(rng.uniform(0.01, 0.5))
        # Pinsker-consistent and quadratically comparable, as in two-point
        # constructions; kl <= (e^eps + 1)^2 tv^2 makes the KL route dominate
        kl = float(rng.uniform(2.0 * tv * tv, 4.0 * tv * tv))
        n = int(rng.integers(1, 1000))
        assert le_cam_lb(n, eps, 1.0, kl, tv) >= le_cam_prior_lb(n, eps, 1.0, tv) - 1e-12


def test_le_cam_monotone_in_n_and_eps():
    for n1, n2 in [(1, 10), (10, 100)]:
        assert le_cam_lb(n1, 1.0, 1.0, 0.02, 0.05) >= le_cam_lb(n2, 1.0, 1.0, 0.02, 0.05)
    for e1, e2 in [(0.2, 1.0), (1.0, 3.0)]:
        assert le_cam_lb(50, e1, 1.0, 0.02, 0.05) >= le_cam_lb(50, e2, 1.0, 0.02, 0.05)


def test_formulas_not_using_the_constants_check_eps():
    for bad in (-1.0, math.nan, math.inf, 710.0):
        with pytest.raises(BoundError):
            le_cam_prior_lb(10, bad, 1.0, 0.1)
        with pytest.raises(BoundError):
            gaussian_location_table1(10, 2, 1.0, bad)
        with pytest.raises(BoundError):
            hadamard_ub(10, bad, 4, 2.0)


# ------------------------------------------------------- entropy and Assouad


def test_entropy_lb_hand_value():
    n, eps, k = 1000, 1.0, 8
    ref = 0.05 * min(1.0, 1.0 / (100 * n * upsilon(eps))) * math.log(k - 1) ** 2
    assert entropy_estimation_lb(n, eps, k) == pytest.approx(ref, abs=1e-15)
    with pytest.raises(BoundError):
        entropy_estimation_lb(10, 1.0, 2)


def test_entropy_lb_saturates_at_eps_zero():
    assert entropy_estimation_lb(10, 0.0, 5) == pytest.approx(
        0.05 * math.log(4.0) ** 2, abs=1e-15)


def test_assouad_hand_value():
    n, eps, k, tau, s = 20, 1.0, 4, 0.1, 0.01
    ref = k * tau * max(1.0 - math.sqrt(2.0 * n * psi(eps) / k * s), 0.0)
    assert assouad_lb(n, eps, k, tau, s) == pytest.approx(ref, abs=1e-15)


def test_assouad_zero_tv_budget_near_eps_max():
    # 2 n psi overflows to inf here; with no TV budget the bound is k tau, not inf * 0
    assert assouad_lb(10**6, 709.78, 4, 0.5, 0.0) == 2.0
    assert assouad_lb(10**6, 709.78, 4, 0.5, 1e-300) == 0.0
    # k tau overflows to inf here, where the bracket is 0: the bound is 0, not inf * 0
    assert assouad_lb(100, 1.0, 10, 1e308, 1.0) == 0.0


@pytest.mark.parametrize("call, what", [
    (lambda: le_cam_lb(100, 1.0, math.inf, 1.0, 0.5), "separation"),
    (lambda: le_cam_prior_lb(100, 1.0, math.inf, 0.5), "separation"),
    (lambda: assouad_lb(100, 1.0, 4, math.inf, 1.0), "separation"),
    (lambda: gaussian_location_lb(100, 2, math.inf, 1.0, 1.0, 0.0, 1.0, 1.0), "loss power"),
], ids=["le_cam_lb", "le_cam_prior_lb", "assouad_lb", "gaussian_location_lb"])
def test_infinite_separation_or_loss_power_is_refused(call, what):
    """Each would give NaN: ``inf * 0``, or ``inf`` powers in the Gaussian prefactor."""
    with pytest.raises(BoundError, match=f"{what} must be finite"):
        call()


# --------------------------------------------- distribution estimation, l_h


def test_distribution_lb_hand_derivation_h1():
    # at h = 1 the tail term is (sqrt(2)/2) * (1/sqrt(2)) = 1/2, n-free
    n, eps, d = 10**6, 1.0, 4
    np_eff = n * psi(eps)
    term2 = (math.sqrt(2) / 2.0) * (1.0 / 4.0) * d / math.sqrt(np_eff)
    ref = min(1.0, term2, 0.5)
    assert distribution_estimation_lb(n, eps, d, 1.0) == pytest.approx(ref, abs=1e-12)


def test_distribution_lb_hand_derivation_h2():
    n, eps, d = 1000, LN3, 4
    np_eff = n * psi(eps)
    lead = 2.0 * math.sqrt(2) / 3.0
    term2 = lead * math.sqrt(1.0 / 6.0) * math.sqrt(d) / math.sqrt(np_eff)
    term3 = lead * (1.0 / (2.0 * math.sqrt(2))) ** 0.5 * np_eff ** -0.25
    ref = min(1.0, term2, term3)
    assert distribution_estimation_lb(n, eps, d, 2.0) == pytest.approx(ref, abs=1e-12)


def test_distribution_lb_saturates_at_eps_zero():
    assert distribution_estimation_lb(100, 0.0, 4, 2.0) == 1.0


def test_hadamard_ub_hand_value():
    # d=4, eps=ln3, h=2: sqrt(3) * sqrt(7) / (2 sqrt(n))
    n = 400
    ref = math.sqrt(21.0) / (2.0 * math.sqrt(n))
    assert hadamard_ub(n, LN3, 4, 2.0) == pytest.approx(ref, rel=1e-12)
    with pytest.raises(BoundError):
        hadamard_ub(10, 1.0, 4, 1.5)
    with pytest.raises(BoundError):
        hadamard_ub(10, 0.0, 4, 2.0)


@pytest.mark.parametrize("h", [2.0, 3.5, 100.0])
def test_hadamard_ub_past_the_overflow_point_matches_log_space(h):
    n, d = 10**6, 4
    for eps in (705.0, 709.78):  # (e^eps - 1) sqrt(n) overflows at both
        log_ref = ((h - 1.0) / h * eps + math.log(math.exp(eps) + d) / h
                   - math.log(math.expm1(eps)) - 0.5 * math.log(n))
        assert hadamard_ub(n, eps, d, h) == pytest.approx(math.exp(log_ref), rel=1e-12)
    for eps in (LN3, 30.0, 690.0):  # finite there: the formula as written, bit for bit
        e = math.exp(eps)
        assert hadamard_ub(n, eps, d, h) == (
            e ** ((h - 1.0) / h) * (e + d) ** (1.0 / h) / ((e - 1.0) * math.sqrt(n)))


def test_n_psi_bounds_past_the_overflow_point_match_log_space():
    n, d = 1000, 4
    for eps in (709.0, 709.78):  # n psi overflows at both; psi does not
        log_np = math.log(n) + math.log(psi(eps))
        lead = 2.0 * math.sqrt(2) / 3.0
        dist_ref = min(lead * math.sqrt(d / 6.0) * math.exp(-0.5 * log_np),
                       lead * 8.0**-0.25 * math.exp(-0.25 * log_np))
        assert distribution_estimation_lb(n, eps, d, 2.0) == pytest.approx(dist_ref, rel=1e-12)
        assert density_estimation_lb(n, eps, 1.0, 2.0) == pytest.approx(
            math.exp(-0.5 * log_np), rel=1e-12)
    for eps in (LN3, 30.0, 700.0):  # finite there: the formulas as written, bit for bit
        np_eff = n * psi(eps)
        lead = math.sqrt(2.0) * 2.0 / 3.0
        assert distribution_estimation_lb(n, eps, d, 2.0) == min(
            1.0, lead * (1.0 / 6.0) ** 0.5 * d**0.5 / math.sqrt(np_eff),
            lead * (1.0 / (math.sqrt(2.0) * 2.0)) ** 0.5 * (1.0 / math.sqrt(np_eff)) ** 0.5)
        assert density_estimation_lb(n, eps, 0.5, 3.0) == np_eff ** (-3.0 * 0.5 / 3.0)


def test_density_packing_past_the_overflow_point_continues_in_log_space():
    small = density_packing_build(1.0, 1.0, 1, 709.78)
    big = density_packing_build(1.0, 1.0, 1000, 709.78)  # n psi overflows
    log_np = math.log(1000) + math.log(psi(709.78))
    assert big.b == round(math.log2(math.exp(log_np / 4.0) + 1.0)) > small.b
    assert big.gamma == pytest.approx(math.exp(-3.0 / 8.0 * log_np), rel=1e-12)
    assert 0.0 < big.gamma < small.gamma and big.amplitude > 0.0


def test_lower_below_upper_on_grid():
    for n in (100, 1000, 10_000):
        for eps in (0.5, 1.0, 2.0):
            for d in (2, 8, 32):
                assert distribution_estimation_lb(n, eps, d, 2.0) <= hadamard_ub(
                    n, eps, d, 2.0) * 10.0  # rate comparison up to constants


# ------------------------------------------------------------------- density


def test_density_lb_hand_value():
    n, eps, beta, h = 5000, 1.0, 1.0, 2.0
    ref = (n * psi(eps)) ** (-h * beta / (2 * beta + 2))
    assert density_estimation_lb(n, eps, beta, h) == pytest.approx(ref, rel=1e-14)
    assert density_estimation_lb(100, 0.0, 1.0, 2.0) == math.inf


def test_density_packing_membership_invariants():
    rng = np.random.default_rng(31)
    for _ in range(20):
        beta = float(rng.uniform(0.3, 1.0))
        L = float(rng.uniform(0.5, 3.0))
        n = int(rng.integers(50, 100_000))
        eps = float(rng.uniform(0.3, 2.0))
        pk = density_packing_build(beta, L, n, eps)
        assert pk.N == 2**pk.b - 1
        assert pk.gamma * 2.0 ** (pk.b / 2.0) * pk.g_sup <= 1.0 + 1e-12
        assert pk.gamma * 2.0 ** (pk.b * (beta + 0.5)) * pk.g_holder <= L + 1e-12


def _holder_sweep(beta: float) -> float:
    """Brute-force ``sup_{d in (0, 1]} 2 sin(pi d) / d^beta`` on a dense 1-D grid."""
    d = np.linspace(0.0, 1.0, 2_000_001)[1:]
    return float(np.max(2.0 * np.sin(np.pi * d) / d**beta))


@pytest.mark.parametrize("beta", [0.01, 0.25, 0.3, 0.5, 0.6, 0.77, 0.9, 0.99, 0.999])
def test_unit_bump_holder_constant_matches_sweep(beta):
    closed = _unit_bump_holder_constant(beta)
    sweep = _holder_sweep(beta)
    assert closed >= sweep - 1e-12
    assert closed - sweep <= 1e-9


def test_unit_bump_holder_constant_lipschitz_is_two_pi():
    assert _unit_bump_holder_constant(1.0) == 2.0 * math.pi


def test_density_packing_members_are_densities():
    pk = density_packing_build(1.0, 1.0, 2000, 1.0)
    rng = np.random.default_rng(32)
    xs = np.linspace(0.0, 1.0, 4001)
    for _ in range(5):
        theta = rng.integers(0, 2, size=pk.N).astype(float)
        vals = pk.density(theta, xs)
        assert np.all(vals >= -1e-12)
        assert pk.density_integral(theta) == pytest.approx(1.0, abs=1e-8)


def test_density_is_one_at_finite_points_off_the_unit_interval():
    pk = density_packing_build(0.5, 1.0, 10**6, 1.0)
    theta = np.ones(pk.N)
    far = np.array([-np.finfo(float).max, -1e300, -3.0, -1.0, -1e-300, 1.0, 1.0 + 2**-52, 2.0,
                    1e300, np.finfo(float).max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = pk.density(theta, far)
    assert vals.tolist() == [1.0] * far.size


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_density_rejects_non_finite_points(bad):
    pk = density_packing_build(0.5, 1.0, 10**6, 1.0)
    with pytest.raises(BoundError, match="finite"):
        pk.density(np.ones(pk.N), [0.5, bad])


def test_density_integral_checks_theta_once(monkeypatch):
    pk = density_packing_build(1.0, 4.0, 10**9, 3.0)
    assert pk.b == 9
    checks = []
    check = DensityPacking._check_theta

    def counting(self, theta):
        checks.append(theta)
        return check(self, theta)

    monkeypatch.setattr(DensityPacking, "_check_theta", counting)
    assert pk.density_integral(np.ones(pk.N)) == pytest.approx(1.0, abs=1e-8)
    assert len(checks) == 1


def test_density_packing_infeasible_inputs():
    with pytest.raises(InfeasiblePackingError):
        density_packing_build(1.0, 1.0, 1, 0.01)  # effective sample size < 1
    with pytest.raises(BoundError):
        density_packing_build(1.5, 1.0, 100, 1.0)


def _gauss_legendre_per_call(f, edges, order=64):
    """Reference quadrature: the rule rebuilt per call and ``f`` called once on every node."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.asarray(edges, dtype=float)
    knots = np.empty(2 * edges.size - 1)
    knots[::2] = edges
    knots[1::2] = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(knots)[:, None]
    xs = half * nodes + (knots[:-1, None] + half)
    return float(np.sum(half * weights * f(xs)))


def _cell_tv_oracle(pk):
    """Neighbour TV by the rule on one cell in its own coordinate ``t = 2^b x - k``, over
    [0, 1], times the cell width ``2^-b``: every node stays resolved however fine the packing."""
    return math.ldexp(0.5 * _gauss_legendre_per_call(
        lambda t: np.abs(pk.gamma * pk._bump(t, 0)), [0.0, 1.0]), -pk.b)


EPS = Decimal(2) ** -52
_PI = Decimal("3.14159265358979323846264338327950288419716939937510")
#: ``int_0^1 |sin 2 pi x|^q dx`` at q = 1..4, to ``Decimal``'s 28 digits
SINE_POWER_INTEGRALS = {1: 2 / _PI, 2: Decimal(1) / 2, 3: 4 / (3 * _PI), 4: Decimal(3) / 8}


def test_packing_quadrature_bit_identical_to_per_call_rule():
    rng = np.random.default_rng(97)
    seen_b = set()
    for _ in range(405):
        b = int(rng.integers(1, 10))
        beta = float(rng.uniform(0.25, 1.0))
        eps = float(rng.uniform(0.25, 3.0))
        # n psi(eps) = (2^b - 1)^(2 beta + 2), nudged up, gives resolution b
        n = math.ceil((2**b - 1) ** (2.0 * beta + 2.0) / psi(eps) * rng.uniform(1.0, 1.2))
        pk = density_packing_build(beta, float(rng.uniform(0.5, 4.0)), n, eps)
        seen_b.add(pk.b)

        theta = rng.random(pk.N)
        edges = np.ldexp(np.arange(2**pk.b + 1, dtype=float), -pk.b)
        assert pk.density_integral(theta) == _gauss_legendre_per_call(
            lambda xs: pk.density(theta, xs), edges)

        k = int(rng.integers(1, pk.N + 1))
        theta0 = np.zeros(pk.N)
        theta1 = theta0.copy()
        theta1[k - 1] = 1.0
        # the closed form, and the rule on cell k in its own coordinate t = 2^b x - k,
        # where f_{e_k} - f_0 = gamma g_k
        assert packing_neighbor_tv(pk, k) == pk.neighbor_tv_closed_form()
        assert packing_neighbor_tv(pk, k) == pytest.approx(_cell_tv_oracle(pk), rel=4e-15, abs=0.0)
        t = np.linspace(0.0, 1.0, 9)
        x = np.ldexp(t + k, -pk.b)
        assert np.allclose(pk.density(theta1, x) - pk.density(theta0, x),
                           pk.gamma * pk._bump(t, 0), rtol=0.0, atol=1e-12)

        # int_0^1 |sin 2 pi x|^q is 2/pi, 1/2, 4/(3 pi), 3/8 at q = 1..4; to 2 ulp of 1
        for q, exact in SINE_POWER_INTEGRALS.items():
            want = Decimal(pk.amplitude) * exact ** (Decimal(1) / q)
            assert abs(Decimal(pk.g_norm(q)) - want) <= 2 * EPS * want
        q = float(10.0 ** rng.uniform(0.0, 8.0))
        assert pk.g_norm(q) == pytest.approx(pk.amplitude * _sine_norm(q), rel=1e-14, abs=0.0)
    assert seen_b == set(range(1, 10))


def _packing_at(b, rng):
    """A random packing of resolution ``b``, drawn as in
    ``test_packing_quadrature_bit_identical_to_per_call_rule`` until it has that ``b``
    (rounding ``n`` up can raise ``b`` when ``psi(eps)`` is large)."""
    while True:
        beta = float(rng.uniform(0.25, 1.0))
        eps = float(rng.uniform(0.25, 3.0))
        n = math.ceil((2**b - 1) ** (2.0 * beta + 2.0) / psi(eps) * rng.uniform(1.0, 1.2))
        pk = density_packing_build(beta, float(rng.uniform(0.5, 4.0)), n, eps)
        if pk.b == b:
            return pk


@pytest.mark.parametrize("lopsided", [False, True])
def test_density_integral_bit_identical_to_per_call_rule_at_b1_to_12(monkeypatch, lopsided):
    """``density_integral`` equals the per-call rule at b = 1 to 12.  A sine bump has mean 0 on
    each cell, so the integral hides which coefficient each cell gets and the low bits of
    each phase; the bump replaced by its phase ``t - k``, scaled by ``2^40``, makes the
    integral depend on both."""
    if lopsided:
        monkeypatch.setattr(DensityPacking, "_bump", lambda self, t, k: np.ldexp(t - k, 40))
    rng = np.random.default_rng(98)
    for b in range(1, 13):
        pk = _packing_at(b, rng)
        edges = np.ldexp(np.arange(2**b + 1, dtype=float), -b)
        for theta in (rng.random(pk.N), rng.integers(0, 2, size=pk.N).astype(float)):
            assert pk.density_integral(theta) == _gauss_legendre_per_call(
                lambda xs: pk.density(theta, xs), edges)


def test_square_integral_matches_the_rule_at_b1_to_9():
    rng = np.random.default_rng(100)
    for b in range(1, 10):
        pk = _packing_at(b, rng)
        edges = np.ldexp(np.arange(2**b + 1, dtype=float), -b)
        for theta in (rng.random(pk.N), rng.integers(0, 2, size=pk.N).astype(float)):
            quad = _gauss_legendre_per_call(lambda xs: pk.density(theta, xs) ** 2, edges)
            assert pk.square_integral(theta) == pytest.approx(quad, rel=1e-13, abs=0.0)


def test_square_integral_sees_a_one_cell_shift_of_the_coefficients(monkeypatch):
    """With ``gamma theta`` shifted one cell up inside ``density`` (cell k gets theta_{k-1},
    theta_N drops out), the rule on ``f_theta`` still gives 1, but the rule on ``f_theta^2``
    misses ``(gamma amplitude theta_N)^2 / 2`` of the closed form."""
    def shifted(self, theta, x):
        t = np.ldexp(np.clip(np.asarray(x, dtype=float), -1.0, 2.0), self.b)
        k = np.floor(t)
        coef = np.concatenate(([0.0, 0.0], self.gamma * theta[:-1], [0.0]))
        return 1.0 + np.take(coef, k.astype(np.intp), mode="clip") * self._bump(t, k)

    monkeypatch.setattr(DensityPacking, "density", shifted)
    rng = np.random.default_rng(101)
    for b in range(1, 10):
        pk = _packing_at(b, rng)
        edges = np.ldexp(np.arange(2**b + 1, dtype=float), -b)
        theta = rng.uniform(0.5, 1.0, pk.N)
        assert _gauss_legendre_per_call(lambda xs: pk.density(theta, xs), edges) == pytest.approx(
            1.0, abs=1e-12)
        quad = _gauss_legendre_per_call(lambda xs: pk.density(theta, xs) ** 2, edges)
        missed = 0.5 * (pk.gamma * pk.amplitude * theta[-1]) ** 2
        assert pk.square_integral(theta) - quad == pytest.approx(missed, rel=1e-6)


def _density_masked(pk, theta, x):
    """``f_theta`` by masking: 1 where ``k = floor(2^b x)`` is off ``1..N``, else
    ``1 + gamma theta_k g_k``, with ``x`` clipped to [-1, 2] first."""
    t = np.ldexp(np.clip(x, -1.0, 2.0), pk.b)
    k = np.floor(t).astype(int)
    inside = (k >= 1) & (k <= pk.N)
    k_safe = np.clip(k, 1, pk.N)
    return 1.0 + np.where(inside, pk.gamma * theta[k_safe - 1] * pk._bump(t, k_safe), 0.0)


def test_density_bit_identical_to_masked_formula():
    rng = np.random.default_rng(99)
    big = np.finfo(float).max
    far = [-big, -1e300, -3.0, -1.0, -0.5, -1e-300, 0.0, 1.0, 1.0 + 2**-52, 1.5, 2.0, 1e300, big]
    for b in range(1, 13):
        pk = _packing_at(b, rng)
        edges = np.ldexp(np.arange(2**b + 1, dtype=float), -b)
        x = np.concatenate([rng.random(2000), rng.uniform(-1.5, 2.5, 500), edges,
                            np.nextafter(edges, 2.0), np.nextafter(edges, -1.0), far])
        for theta in (rng.random(pk.N), rng.integers(0, 2, size=pk.N).astype(float)):
            assert pk.density(theta, x).tobytes() == _density_masked(pk, theta, x).tobytes()


def test_sine_rows_bit_identical_within_each_binade_parity_class():
    """The reuse in ``density_integral``: on half-cell ``r`` the phase ``2^b x - r // 2`` and
    its sine depend only on the binade of ``2r + 1`` and the parity of ``r``, and ``np.sin``
    gives the same bits on one row alone as on that row inside the whole array."""
    nodes, _ = _leggauss(64)
    b = 12
    h = math.ldexp(1.0, -(b + 2))
    r = np.arange(2 ** (b + 1))
    phase = np.ldexp(h * nodes + (2 * r[:, None] + 1) * h, b) - (r // 2)[:, None]
    sines = np.sin(2.0 * math.pi * phase)
    first = np.array([q if q < 2 else (1 << (q.bit_length() - 1)) + q % 2 for q in r.tolist()])
    assert np.unique(first).size == 2 * (b + 1)
    assert phase.tobytes() == phase[first].tobytes()
    alone = {q: np.sin(2.0 * math.pi * phase[q]) for q in np.unique(first).tolist()}
    assert sines.tobytes() == np.stack([alone[q] for q in first.tolist()]).tobytes()


def test_density_integral_evaluates_one_row_pair_per_class(monkeypatch):
    pk = density_packing_build(1.0, 4.0, 10**9, 3.0)
    assert pk.b == 9  # 1024 half-cells of 64 nodes
    nodes = []
    bump = DensityPacking._bump

    def counting(self, t, k):
        nodes.append(np.broadcast(t, k).size)
        return bump(self, t, k)

    monkeypatch.setattr(DensityPacking, "_bump", counting)
    assert pk.density_integral(np.ones(pk.N)) == pytest.approx(1.0, abs=1e-8)
    assert sum(nodes) <= 2 * (pk.b + 2) * 64


def _sine_norm(q):
    """``(int_0^1 |sin 2 pi x|^q dx)^(1/q)``, from ``Gamma((q+1)/2) / (sqrt(pi) Gamma(q/2+1))``."""
    log_int = math.lgamma((q + 1) / 2) - 0.5 * math.log(math.pi) - math.lgamma(q / 2 + 1)
    return math.exp(log_int / q)


@pytest.mark.parametrize("L", [1.0, 100.0])  # amplitude 0.26: |g|^q underflows; 2.6: overflows
def test_g_norm_at_large_q_neither_underflows_nor_overflows(L):
    pk = density_packing_build(0.7, L, 100, 1.0)
    qs = [4.0, 600.0, 1e4, 1e8]
    norms = [pk.g_norm(q) for q in qs]
    for q, norm in zip(qs, norms):
        assert norm == pytest.approx(pk.g_sup * _sine_norm(q), rel=1e-14)
    assert norms == sorted(norms) and norms[-1] <= pk.g_sup  # ||g||_q rises with q to sup |g|


@pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
def test_g_norm_rejects_non_finite_order(q):
    pk = density_packing_build(0.7, 1.0, 100, 1.0)
    with pytest.raises(BoundError, match="finite"):
        pk.g_norm(q)


def test_gauss_legendre_rule_built_once_per_order_and_read_only(monkeypatch):
    orders = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(order):
        orders.append(order)
        return leggauss(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    _leggauss.cache_clear()
    try:
        pk = density_packing_build(0.5, 1.0, 10**4, 1.0)
        for _ in range(30):
            for order in (16, 33):
                _leggauss(order)
            pk.density_integral(np.ones(pk.N))
        nodes, weights = _leggauss(64)
        assert sorted(orders) == [16, 33, 64]
    finally:
        _leggauss.cache_clear()
    for arr in (nodes, weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_gauss_legendre_rule_not_built_at_import():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import ldpcontract.cli, ldpcontract.minimax as m; "
            "assert m._leggauss.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=str(src)))


def test_density_integral_memory_stays_bounded_at_b9():
    pk = density_packing_build(1.0, 4.0, 10**9, 3.0)
    assert pk.b == 9  # 1024 cells, 65536 nodes
    theta = np.ones(pk.N)
    pk.density_integral(theta)  # the rule is built outside the measurement
    tracemalloc.start()
    try:
        pk.density_integral(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_packing_neighbor_tv_at_b256_is_finite():
    """At b = 256 the bump's height ``gamma 2^{b/2} amplitude`` is about 1e-78, below an
    ulp of 1, so ``(1 + gamma g_k) - 1`` would round to 0; the closed form, and the rule in
    the cell's own coordinate, keep the difference, with no length-(2^256 - 1) vector."""
    pk = density_packing_build(1, 1, 1, 709.78)
    assert pk.b == 256
    assert packing_neighbor_tv(pk, 1) == pytest.approx(_cell_tv_oracle(pk), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("args, b", [((0.25, 1.0, 10**18, 30.0), 41),
                                     ((0.25, 1.0, 10**4, 700.0), 409)])
def test_packing_neighbor_tv_keeps_fine_cells(args, b):
    # integrated in x, a cell of width 2^-b near x = 1 spans few doubles: at b = 41 the
    # last cell read 1.8e-4 low, and at b = 409 every cell read 0; the oracle integrates
    # in the cell's own coordinate
    pk = density_packing_build(*args)
    assert pk.b == b
    for k in (1, -(-pk.N // 2), pk.N):
        assert packing_neighbor_tv(pk, k) == pytest.approx(_cell_tv_oracle(pk), rel=1e-13, abs=0.0)


# -------------------------------------------------------- mutual information


def test_log_unit_ball_volume():
    assert log_unit_ball_volume_l2(1) == pytest.approx(math.log(2.0), abs=1e-14)
    assert log_unit_ball_volume_l2(2) == pytest.approx(math.log(math.pi), abs=1e-14)
    assert log_unit_ball_volume_l2(3) == pytest.approx(
        math.log(4.0 * math.pi / 3.0), abs=1e-14)


def test_mim_hand_value():
    d, r, entropy, info, eps = 2, 2.0, 0.3, 1.5, 1.0
    log_vd = log_unit_ball_volume_l2(d)
    ref = (d / (r * math.e * (math.exp(log_vd) * math.gamma(1.0 + d / r)) ** (r / d))
           ) * math.exp(entropy - upsilon(eps) * info)
    assert mim_lb(d, r, log_vd, entropy, info, eps) == pytest.approx(ref, rel=1e-12)


def test_gaussian_location_hand_value():
    n, d, r, sigma, eps = 100, 2, 2.0, 1.0, 1.0
    log_vd = log_unit_ball_volume_l2(d)
    pref = (d ** (1.0 - 0.5 * r)
            / (r * math.e**2 * (math.exp(log_vd) * math.gamma(1.0 + d / r)) ** (r / d)))
    ref = pref * min(1.0, (sigma**2 * d / (n * upsilon(eps))) ** (0.5 * r))
    got = gaussian_location_lb(n, d, r, sigma, eps, log_vd, 1.0, 1.0)
    assert got == pytest.approx(ref, rel=1e-12)


def test_gaussian_table1_hand_value():
    n, d, sigma, eps = 100, 3, 1.0, 1.0
    log_vd = log_unit_ball_volume_l2(d)
    pref = math.sqrt(d) / (math.e**2 * (math.exp(log_vd) * math.gamma(1.0 + d)) ** (1.0 / d))
    noise = math.sqrt(sigma**2 * d / n) * (math.e + 1.0) / (math.e - 1.0)
    assert gaussian_location_table1(n, d, sigma, eps) == pytest.approx(
        pref * min(1.0, noise), rel=1e-12)


@pytest.mark.parametrize("n, d, r, sigma, eps", [
    (10**12, 3, 1.0, 1e-300, 1e-170),  # upsilon(eps) underflows to 0
    (2, 5, 1.0, 1e-300, 1e-300),  # so do sigma^2 and upsilon(eps), whose ratio is 4
    (10, 3, 0.5, 1e-200, 1.0),  # sigma^2 underflows to 0
    (1, 1, 2.0, 1e-160, 1e-160),  # both are subnormal
])
def test_gaussian_location_noise_term_survives_subnormal_squares(n, d, r, sigma, eps):
    log_vd = log_unit_ball_volume_l2(d)
    pref = (d ** (1.0 - 0.5 * r)
            / (r * math.e**2 * (math.exp(log_vd) * math.gamma(1.0 + d / r)) ** (r / d)))
    t = math.expm1(eps) / (math.exp(eps) + 1.0)  # sqrt(upsilon(eps)), never squared
    ref = pref * min(1.0, (sigma / t * math.sqrt(d / n)) ** r)
    assert math.isclose(gaussian_location_lb(n, d, r, sigma, eps, log_vd, 1.0, 1.0), ref,
                        rel_tol=1e-12)
    if r == 1.0:
        assert math.isclose(gaussian_location_table1(n, d, sigma, eps), ref, rel_tol=1e-12)



@pytest.mark.parametrize("sigma, eps", [(1.0, 1e-100), (1e100, 0.5)])
def test_gaussian_location_noise_term_overflow_leaves_the_radius_term(sigma, eps):
    # (sigma^2 d / (n upsilon))^(r/2) is past the largest double; the bound is min(rad^r, .)
    pref = 1.0 / (4.0 * math.e**2 * (math.exp(0.6931) * math.gamma(1.25)) ** 4)
    assert math.isclose(gaussian_location_lb(1, 1, 4.0, sigma, eps, 0.6931, 1.0, 1.0), pref,
                        rel_tol=1e-12)

# ------------------------------------------------------------------- testing


def test_bht_hand_values():
    eps, tv, h2 = 1.0, 0.8, 0.8
    u, p = upsilon(eps), psi(eps)
    ref_lower = max(math.log(2.5) / (4.0 * u * h2), 2.0 / (25.0 * p * tv * tv))
    ref_upper = 2.0 * math.log(5.0) / (u * tv * tv)
    lower, upper = bht_sample_complexity(eps, tv, h2)
    assert lower == pytest.approx(ref_lower, rel=1e-14)
    assert upper == pytest.approx(ref_upper, rel=1e-14)


def test_bht_sandwich_and_degenerate_cases():
    rng = np.random.default_rng(41)
    for _ in range(200):
        eps = float(rng.uniform(0.01, 5.0))
        tv = float(rng.uniform(0.01, 0.99))
        h2 = float(rng.uniform(max(tv * tv / 2.0, 1e-3), 2.0))
        lower, upper = bht_sample_complexity(eps, tv, h2)
        assert lower <= upper
    assert bht_sample_complexity(0.0, 0.5, 0.5) == (math.inf, math.inf)
    with pytest.raises(BoundError):
        bht_sample_complexity(1.0, 0.0, 0.5)


# -------------------------------------------------------------- bound report


def test_bound_report_validation():
    report = BoundReport()
    report.add("lo", 0.5, "lower", group="g")
    report.add("hi", 1.0, "upper", group="g")
    report.validate()
    bad = BoundReport()
    bad.add("lo", 2.0, "lower", group="g")
    bad.add("hi", 1.0, "upper", group="g")
    with pytest.raises(BoundError):
        bad.validate()


def test_bound_entry_direction_validation():
    with pytest.raises(BoundError):
        BoundEntry(name="x", value=1.0, direction="sideways")
