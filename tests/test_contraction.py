"""Contraction coefficients, privacy constants, and output-divergence bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcontract.contraction import (
    ContractionError,
    ContractionEstimate,
    binary_input_kl_bound,
    chi2_tv_bound,
    eta_bruteforce,
    eta_chi2_at,
    eta_tv_exact,
    extremal_tv_under_ldp,
    prior_art_bounds,
    psi,
    upsilon,
)
from ldpcontract.mechanisms import randomized_response
from ldpcontract.probability import (
    CHI2,
    H2,
    KL,
    TV,
    Channel,
    ProbVector,
    divergence,
    push_forward,
)
from tests.conftest import rand_channel, rand_prob, random_ldp_channel


# ---------------------------------------------------------------- constants


def test_upsilon_values():
    assert upsilon(0.0) == 0.0
    assert upsilon(math.log(3.0)) == pytest.approx(0.25, abs=1e-15)
    assert upsilon(1.0) == pytest.approx(((math.e - 1) / (math.e + 1)) ** 2, abs=1e-15)


def test_psi_values():
    assert psi(0.0) == 0.0
    assert psi(math.log(2.0)) == pytest.approx(0.5, abs=1e-15)
    assert psi(1.0) == pytest.approx(math.exp(-1.0) * (math.e - 1.0) ** 2, abs=1e-15)


def test_constants_reject_negative_eps():
    for fn in (upsilon, psi, extremal_tv_under_ldp):
        with pytest.raises(ContractionError):
            fn(-0.1)


def test_extremal_tv_value():
    e = math.exp(1.0)
    assert extremal_tv_under_ldp(1.0) == pytest.approx((e - 1.0) / (e + 1.0), abs=1e-16)


def test_constants_monotone_in_eps():
    grid = np.linspace(0.0, 6.0, 50)
    for fn in (upsilon, psi, extremal_tv_under_ldp):
        vals = [fn(e) for e in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------- eta_tv_exact


def test_eta_tv_identity_channel():
    est = eta_tv_exact(Channel(np.eye(3)))
    assert est.value == 1.0
    assert est.method == "exact_tv"


def test_eta_tv_constant_channel():
    rows = np.tile(np.array([0.2, 0.3, 0.5]), (4, 1))
    assert eta_tv_exact(Channel(rows)).value == 0.0


def test_eta_tv_rr_closed_form():
    for eps in (0.3, 1.0, 2.5):
        est = eta_tv_exact(randomized_response(2, eps))
        ref = math.expm1(eps) / (math.exp(eps) + 1.0)
        assert est.value == pytest.approx(ref, abs=1e-15)
        # witnesses are the two most distant rows' preimages
        assert divergence(TV, est.witness_p, est.witness_q) > 0.0


def test_eta_tv_is_achieved_by_witnesses(rng):
    k = rand_channel(rng, 5, 4)
    est = eta_tv_exact(k)
    achieved = divergence(TV, push_forward(est.witness_p, k),
                          push_forward(est.witness_q, k))
    assert achieved == pytest.approx(est.value, abs=1e-12)


# ------------------------------------------------------------- eta_chi2_at


def test_eta_chi2_at_rr_binary_equals_upsilon():
    for eps in (0.25, 0.5, 1.0, 2.0):
        k = randomized_response(2, eps)
        val = eta_chi2_at(ProbVector.uniform(2), k)
        assert val == pytest.approx(upsilon(eps), abs=1e-12)


def test_eta_chi2_at_identity_is_one(rng):
    p = rand_prob(rng, 3)
    assert eta_chi2_at(p, Channel(np.eye(3))) == pytest.approx(1.0, abs=1e-12)


def test_eta_chi2_tensorization(rng):
    for _ in range(5):
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        k1 = rand_channel(rng, d1, int(rng.integers(2, 4)))
        k2 = rand_channel(rng, d2, int(rng.integers(2, 4)))
        p1, p2 = rand_prob(rng, d1), rand_prob(rng, d2)
        joint = Channel(np.kron(k1.rows, k2.rows))
        p_joint = ProbVector(np.kron(p1.mass, p2.mass))
        lhs = eta_chi2_at(p_joint, joint)
        rhs = max(eta_chi2_at(p1, k1), eta_chi2_at(p2, k2))
        assert lhs == pytest.approx(rhs, abs=1e-8)


# ----------------------------------------------------------- eta_bruteforce


def test_eta_bruteforce_rr_tightness():
    for eps in (0.5, 1.0, 2.0):
        k = randomized_response(2, eps)
        est = eta_bruteforce(k, CHI2, grid_n=201)
        assert est.value == pytest.approx(upsilon(eps), abs=1e-9)
        assert est.method == "grid"


def test_eta_bruteforce_identity_channel():
    k = Channel(np.eye(3))
    for kind in (KL, CHI2, H2):
        assert eta_bruteforce(k, kind, grid_n=101).value == pytest.approx(1.0, abs=1e-9)


def test_eta_bruteforce_witness_achieves_value(rng):
    k = rand_channel(rng, 4, 4)
    for kind in (KL, CHI2, H2):
        est = eta_bruteforce(k, kind, grid_n=201)
        num = divergence(kind, push_forward(est.witness_p, k),
                         push_forward(est.witness_q, k))
        den = divergence(kind, est.witness_p, est.witness_q)
        assert den > 0.0
        assert num / den == pytest.approx(est.value, rel=1e-9, abs=1e-12)


def test_eta_bruteforce_grid_refinement_monotone(rng):
    # the grid {i/404} contains the grid {i/202}, so the sup can only grow
    for _ in range(5):
        k = rand_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        for kind in (KL, CHI2, H2):
            coarse = eta_bruteforce(k, kind, grid_n=201).value
            fine = eta_bruteforce(k, kind, grid_n=403).value
            assert fine >= coarse - 1e-12


def test_eta_bruteforce_bounded_by_dobrushin(rng):
    for _ in range(10):
        k = rand_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        ceiling = eta_tv_exact(k).value
        for kind in (KL, CHI2, H2):
            assert eta_bruteforce(k, kind, grid_n=101).value <= ceiling + 1e-9


def test_eta_bruteforce_matches_cellwise_reference(rng):
    grid_n = 9
    g = np.arange(1, grid_n + 1) / (grid_n + 1)
    for _ in range(4):
        k = rand_channel(rng, 3, 4)
        for kind in (KL, H2, KL):  # the repeat reuses the cached grid
            best = 0.0
            for x1 in range(3):
                for x2 in range(x1 + 1, 3):
                    u, v = k.rows[x1] - k.rows[x2], k.rows[x2]
                    best = max(best, *(b * (1 - b) * np.sum(u * u / (v + b * u)) for b in g))

                    def mixture(a):
                        m = np.zeros(3)
                        m[x1], m[x2] = a, 1.0 - a
                        return ProbVector(m)

                    for a in g:
                        for b in g[g != a]:
                            p, q = mixture(a), mixture(b)
                            ratio = divergence(kind, push_forward(p, k), push_forward(q, k)) / (
                                divergence(kind, p, q))
                            best = max(best, ratio)
            assert eta_bruteforce(k, kind, grid_n=grid_n).value == pytest.approx(best, rel=1e-9)


def test_eta_bruteforce_rejects_bad_grid():
    k = Channel(np.eye(2))
    with pytest.raises(ContractionError):
        eta_bruteforce(k, KL, grid_n=2)


def test_contraction_estimate_value_range():
    p = ProbVector.uniform(2)
    with pytest.raises(ContractionError):
        ContractionEstimate(value=1.5, kind=KL, witness_p=p, witness_q=p, method="grid")


# ----------------------------------------------------- output chi^2 bounds


def test_chi2_tv_bound_value():
    # psi(ln 3) = 4/3; min(4*0.25, 0.5) = 0.5
    assert chi2_tv_bound(math.log(3.0), 0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_prior_art_bounds_values():
    eps, tv = 1.0, 0.2
    ref_kl = min(4.0, math.exp(2 * eps)) * math.expm1(eps) ** 2 * tv * tv
    ref_tv = 4.0 * math.expm1(eps * eps) * tv * tv
    got = prior_art_bounds(eps, tv)
    assert got["kl_quadratic"] == pytest.approx(ref_kl, abs=1e-12)
    assert got["tv_quadratic"] == pytest.approx(ref_tv, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_output_chi2_bound_property(seed):
    r = np.random.default_rng(seed)
    eps = float(r.uniform(0.1, 3.0))
    dim = int(r.integers(2, 6))
    out = int(r.integers(2, 6))
    k = random_ldp_channel(r, eps, dim, out)
    p, q = rand_prob(r, dim), rand_prob(r, dim)
    tv = divergence(TV, p, q)
    chi2_out = divergence(CHI2, push_forward(p, k), push_forward(q, k))
    assert chi2_out <= chi2_tv_bound(eps, tv) + 1e-10


def test_binary_input_kl_bound_dominates_bruteforce(rng):
    for _ in range(10):
        k = rand_channel(rng, 2, int(rng.integers(2, 6)))
        bound = binary_input_kl_bound(k)
        assert eta_bruteforce(k, KL, grid_n=201).value <= bound + 1e-9


def test_binary_input_kl_bound_formula():
    for eps in (0.5, 1.5):
        k = randomized_response(2, eps)
        h = divergence(H2, k.row(0), k.row(1))
        assert binary_input_kl_bound(k) == pytest.approx(h * (1.0 - h / 4.0), abs=1e-12)
