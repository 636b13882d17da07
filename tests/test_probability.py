"""Divergences, hockey-stick curves, and the integral representations."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcontract.probability import (
    CHI2,
    H2,
    KL,
    TV,
    Channel,
    DimensionMismatch,
    DivergenceKind,
    ProbabilityError,
    ProbVector,
    chi2_via_eg_quadrature,
    divergence,
    hellinger_via_eg_quadrature,
    hockey_stick,
    hockey_stick_kind,
    push_forward,
)
from tests.conftest import rand_channel, rand_prob


# ------------------------------------------------------------- construction


def test_prob_vector_basic():
    p = ProbVector(np.array([0.25, 0.75]))
    assert p.dim == 2
    assert not p.mass.flags.writeable
    np.testing.assert_array_equal(p.support(), np.array([0, 1]))


def test_prob_vector_renormalizes_small_drift():
    drift = 1e-10
    p = ProbVector(np.array([0.5, 0.5 + drift]))
    assert p.mass.sum() == 1.0


def test_prob_vector_rejects_large_drift():
    with pytest.raises(ProbabilityError):
        ProbVector(np.array([0.5, 0.6]))


def test_prob_vector_rejects_negative_and_nan():
    with pytest.raises(ProbabilityError):
        ProbVector(np.array([1.1, -0.1]))
    with pytest.raises(ProbabilityError):
        ProbVector(np.array([math.nan, 1.0]))


def test_point_mass_and_uniform():
    e1 = ProbVector.point_mass(1, 3)
    np.testing.assert_array_equal(e1.mass, np.array([0.0, 1.0, 0.0]))
    u = ProbVector.uniform(4)
    np.testing.assert_array_equal(u.mass, np.full(4, 0.25))
    with pytest.raises(ProbabilityError):
        ProbVector.point_mass(3, 3)


def test_channel_rows_validated():
    with pytest.raises(ProbabilityError):
        Channel(np.array([[0.5, 0.6], [0.5, 0.5]]))
    k = Channel(np.array([[0.75, 0.25], [0.25, 0.75]]))
    assert (k.n_in, k.n_out) == (2, 2)
    np.testing.assert_array_equal(k.row(0).mass, np.array([0.75, 0.25]))


def test_channel_names_first_bad_row():
    good = [0.5, 0.5]
    cases = [
        ([good, [np.nan, 1.0], [-0.5, 1.5]], "channel row 1 contains NaN"),
        ([good, good, [-0.1, 1.1], [np.nan, 1.0]], "channel row 2 contains negative mass"),
        ([good, [0.6, 0.5]], "channel row 1 has total mass 1.1"),
        ([[np.inf, 0.5], good], "channel row 0 has total mass inf"),
        ([good, [np.nan, -1.0]], "channel row 1 contains NaN"),
    ]
    for rows, message in cases:
        with pytest.raises(ProbabilityError, match=re.escape(message)):
            Channel(np.array(rows))


@pytest.mark.parametrize("make, values, message", [
    (ProbVector, [np.nan, 1.0], "probability vector contains NaN"),
    (ProbVector, [-np.inf, 1.0], "probability vector contains negative mass"),
    (ProbVector, [np.inf, 0.5], "probability vector has total mass inf, beyond drift limit 1e-09"),
    (ProbVector, [0.5, 0.4], "probability vector has total mass 0.9, beyond drift limit 1e-09"),
    (Channel, [[np.nan, -1.0], [0.5, 0.5]], "channel row 0 contains NaN"),
    (Channel, [[0.5, 0.5], [-np.inf, 2.0]], "channel row 1 contains negative mass"),
    (Channel, [[0.5, 0.5], [0.6, 0.5], [np.nan, 1.0]],
     "channel row 1 has total mass 1.1, beyond drift limit 1e-09"),
    (Channel, [[0.5, 0.5], [0.5, 0.5], [0.2, 0.2]],
     "channel row 2 has total mass 0.4, beyond drift limit 1e-09"),
])
def test_mass_validation_messages(make, values, message):
    # NaN before negative mass before a bad total, on the first bad row
    with pytest.raises(ProbabilityError) as info:
        make(np.array(values))
    assert str(info.value) == message


def test_channel_normalisation_matches_per_row_form():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n_in, n_out = int(rng.integers(1, 12)), int(rng.choice([1, 2, 5, 9, 130, 1000]))
        rows = rng.random((n_in, n_out)) ** 4
        rows /= rows.sum(axis=1, keepdims=True)
        rows *= 1.0 + rng.uniform(-5e-10, 5e-10, size=(n_in, 1))
        if rng.random() < 0.5:
            rows = np.asfortranarray(rows)
        expected = np.vstack([row / float(row.sum()) for row in rows])
        assert Channel(rows).rows.tobytes() == expected.tobytes()


def test_divergence_kind_validation():
    with pytest.raises(ProbabilityError):
        DivergenceKind("nope")
    with pytest.raises(ProbabilityError):
        hockey_stick_kind(0.5)
    with pytest.raises(ProbabilityError):
        DivergenceKind("kl", gamma=2.0)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        divergence(TV, ProbVector.uniform(2), ProbVector.uniform(3))
    with pytest.raises(DimensionMismatch):
        push_forward(ProbVector.uniform(3), Channel(np.eye(2)))


# ---------------------------------------------------------- oracle examples


P_09 = ProbVector(np.array([0.9, 0.1]))
Q_01 = ProbVector(np.array([0.1, 0.9]))


def test_tv_oracle():
    assert divergence(TV, P_09, Q_01) == pytest.approx(0.8, abs=1e-15)


def test_kl_oracle():
    # 0.9 log(9) + 0.1 log(1/9) = 0.8 log 9
    assert divergence(KL, P_09, Q_01) == pytest.approx(0.8 * math.log(9.0), abs=1e-14)


def test_chi2_oracle():
    # (0.8)^2/0.1 + (0.8)^2/0.9
    assert divergence(CHI2, P_09, Q_01) == pytest.approx(0.64 * (10.0 + 10.0 / 9.0), abs=1e-13)


def test_h2_oracle():
    # 2 - 2*(sqrt(0.09) + sqrt(0.09)) = 2 - 4*0.3
    assert divergence(H2, P_09, Q_01) == pytest.approx(0.8, abs=1e-14)


def test_identical_distributions_are_at_zero():
    u = ProbVector.uniform(5)
    for kind in (KL, TV, CHI2, H2, hockey_stick_kind(1.0), hockey_stick_kind(2.0)):
        assert divergence(kind, u, u) == pytest.approx(0.0, abs=1e-15)


def test_support_violation_conventions():
    point = ProbVector(np.array([1.0, 0.0]))
    half = ProbVector.uniform(2)
    # Absolutely continuous direction stays finite; 0/0 contributes nothing.
    assert divergence(KL, point, half) == pytest.approx(math.log(2.0), abs=1e-15)
    assert divergence(CHI2, point, half) == pytest.approx(1.0, abs=1e-15)
    # Mass escaping the support of q blows up KL and chi-square.
    assert divergence(KL, half, point) == math.inf
    assert divergence(CHI2, half, point) == math.inf
    # TV and H2 stay bounded.
    assert divergence(TV, half, point) == pytest.approx(0.5, abs=1e-15)
    assert divergence(H2, half, point) == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-15)


def test_hockey_stick_examples():
    assert hockey_stick(P_09, Q_01, 1.0) == pytest.approx(0.8, abs=1e-15)
    # E_gamma(p||q) = sum max(p - gamma q, 0): at gamma=2, 0.9 - 0.2 = 0.7
    assert hockey_stick(P_09, Q_01, 2.0) == pytest.approx(0.7, abs=1e-15)
    assert hockey_stick(P_09, Q_01, 9.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ProbabilityError):
        hockey_stick(P_09, Q_01, 0.9)


def test_push_forward_matches_matrix_product(rng):
    p = rand_prob(rng, 4)
    k = rand_channel(rng, 4, 3)
    np.testing.assert_allclose(push_forward(p, k).mass, p.mass @ k.rows, atol=1e-15)


# ------------------------------------------------------------- properties


def _pair_strategy(max_dim=8):
    def build(seed):
        r = np.random.default_rng(seed)
        dim = int(r.integers(2, max_dim + 1))
        return rand_prob(r, dim), rand_prob(r, dim)

    return st.integers(min_value=0, max_value=2**32 - 1).map(build)


ALL_KINDS = [KL, TV, CHI2, H2, hockey_stick_kind(1.5), hockey_stick_kind(3.0)]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_data_processing_inequality(seed):
    r = np.random.default_rng(seed)
    dim = int(r.integers(2, 9))
    out = int(r.integers(2, 9))
    p, q = rand_prob(r, dim), rand_prob(r, dim)
    k = rand_channel(r, dim, out)
    pk, qk = push_forward(p, k), push_forward(q, k)
    for kind in ALL_KINDS:
        before = divergence(kind, p, q)
        after = divergence(kind, pk, qk)
        assert after <= before + 1e-10


@settings(max_examples=200, deadline=None)
@given(pair=_pair_strategy())
def test_divergence_orderings(pair):
    p, q = pair
    tv = divergence(TV, p, q)
    kl = divergence(KL, p, q)
    chi2 = divergence(CHI2, p, q)
    assert 2.0 * tv * tv <= kl + 1e-10
    assert 4.0 * tv * tv <= chi2 + 1e-10
    assert kl <= chi2 + 1e-10


@settings(max_examples=100, deadline=None)
@given(pair=_pair_strategy())
def test_hockey_stick_curve_shape(pair):
    p, q = pair
    gammas = np.linspace(1.0, 10.0, 41)
    values = [hockey_stick(p, q, g) for g in gammas]
    assert values[0] == pytest.approx(divergence(TV, p, q), abs=1e-12)
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12  # nonincreasing
    # convexity on the uniform grid
    for a, b, c in zip(values, values[1:], values[2:]):
        assert a + c >= 2.0 * b - 1e-12


@settings(max_examples=60, deadline=None)
@given(pair=_pair_strategy(max_dim=6))
def test_quadrature_identities_property(pair):
    p, q = pair
    assert hellinger_via_eg_quadrature(p, q) == pytest.approx(
        divergence(H2, p, q), abs=1e-6)
    assert chi2_via_eg_quadrature(p, q) == pytest.approx(
        divergence(CHI2, p, q), abs=1e-6)


def test_quadrature_handles_shared_zero_coordinates():
    p = ProbVector(np.array([0.7, 0.3, 0.0]))
    q = ProbVector(np.array([0.2, 0.8, 0.0]))
    assert hellinger_via_eg_quadrature(p, q) == pytest.approx(
        divergence(H2, p, q), abs=1e-6)
    assert chi2_via_eg_quadrature(p, q) == pytest.approx(
        divergence(CHI2, p, q), abs=1e-6)


@pytest.mark.parametrize("p_mass, q_mass", [
    ([0.7, 0.3, 0.0], [0.2, 0.5, 0.3]),  # q puts mass outside the support of p
    ([0.2, 0.5, 0.3], [0.7, 0.3, 0.0]),  # p puts mass outside the support of q
])
def test_quadrature_handles_one_sided_supports(p_mass, q_mass):
    p, q = ProbVector(np.array(p_mass)), ProbVector(np.array(q_mass))
    assert hellinger_via_eg_quadrature(p, q) == pytest.approx(
        divergence(H2, p, q), abs=1e-6)
    chi2 = divergence(CHI2, p, q)
    if math.isinf(chi2):
        assert chi2_via_eg_quadrature(p, q) == math.inf
    else:
        assert chi2_via_eg_quadrature(p, q) == pytest.approx(chi2, abs=1e-6)


def test_quadrature_handles_extreme_likelihood_ratios():
    # ratios up to ~1e26: a curve must vanish exactly at each coordinate's own kink,
    # or rounding residuals get multiplied by the width of the next piece
    p = ProbVector(np.array([1e-27, 0.998, 1.5e-3, 1.0 - 0.998 - 1.5e-3 - 1e-27]))
    q = ProbVector(np.array([0.36, 1.6e-4, 0.639, 1.0 - 0.36 - 1.6e-4 - 0.639]))
    for a, b in ((p, q), (q, p)):
        assert hellinger_via_eg_quadrature(a, b) == pytest.approx(divergence(H2, a, b), rel=1e-9)
        assert chi2_via_eg_quadrature(a, b) == pytest.approx(divergence(CHI2, a, b), rel=1e-9)
