"""Mechanism constructors, privacy audits, and the Hadamard-response estimator."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcontract.contraction import psi, upsilon
from ldpcontract.mechanisms import (
    HadamardConfig,
    MechanismError,
    PrivacyLevel,
    _plus_pattern,
    audit_ldp,
    binary_mechanism,
    hadamard_estimate,
    hadamard_output_mass,
    hadamard_response,
    mix_toward_uniform,
    project_to_simplex,
    randomized_response,
    sample,
)
from ldpcontract.probability import (
    CHI2,
    TV,
    Channel,
    ProbabilityError,
    ProbVector,
    divergence,
    push_forward,
)
from ldpcontract.rng import stream
from tests.conftest import rand_channel, rand_prob

LN3 = math.log(3.0)


# ------------------------------------------------------------ privacy level


def test_privacy_level_constants():
    lvl = PrivacyLevel(LN3)
    assert lvl.upsilon == pytest.approx(upsilon(LN3), abs=1e-16)
    assert lvl.psi == pytest.approx(psi(LN3), abs=1e-16)
    with pytest.raises(MechanismError):
        PrivacyLevel(-0.5)


# ------------------------------------------------------- randomized response


def test_rr_rows_at_ln3():
    k = randomized_response(2, LN3)
    np.testing.assert_allclose(k.rows, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)


def test_rr_audit_exact():
    for k_size in (2, 3, 5):
        for eps in (0.2, 1.0, 3.0):
            assert audit_ldp(randomized_response(k_size, eps)) == pytest.approx(
                eps, abs=1e-12)


def test_rr_eps_zero_is_uniform():
    k = randomized_response(4, 0.0)
    np.testing.assert_allclose(k.rows, np.full((4, 4), 0.25), atol=1e-15)


def test_rr_validation():
    with pytest.raises(MechanismError):
        randomized_response(1, 1.0)
    with pytest.raises(MechanismError):
        randomized_response(2, -1.0)


# --------------------------------------------------------- binary mechanism


def test_binary_mechanism_rows():
    p = ProbVector(np.array([0.9, 0.1]))
    q = ProbVector(np.array([0.1, 0.9]))
    k = binary_mechanism(p, q, LN3)
    # inputs where p >= q map to output 0 with probability e/(1+e) = 3/4
    np.testing.assert_allclose(k.rows, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)
    assert audit_ldp(k) <= LN3 + 1e-12


def test_binary_mechanism_tv_contracts_exactly():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        p, q = rand_prob(rng, dim), rand_prob(rng, dim)
        eps = float(rng.uniform(0.1, 3.0))
        k = binary_mechanism(p, q, eps)
        ratio = math.expm1(eps) / (math.exp(eps) + 1.0)
        lhs = divergence(TV, push_forward(p, k), push_forward(q, k))
        assert lhs == pytest.approx(ratio * divergence(TV, p, q), abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_binary_mechanism_chi2_bound(seed):
    r = np.random.default_rng(seed)
    dim = int(r.integers(2, 7))
    p, q = rand_prob(r, dim), rand_prob(r, dim)
    eps = float(r.uniform(0.05, 3.0))
    k = binary_mechanism(p, q, eps)
    chi2_out = divergence(CHI2, push_forward(p, k), push_forward(q, k))
    tv = divergence(TV, p, q)
    assert chi2_out <= psi(eps) * tv * tv + 1e-10


# -------------------------------------------------------- hadamard response


def test_hadamard_config_validation():
    with pytest.raises(MechanismError):
        HadamardConfig(d=4, eps=1.0, B=6, b=1)  # not a power of two
    with pytest.raises(MechanismError):
        HadamardConfig(d=4, eps=1.0, B=4, b=1)  # capacity b*B/2 < d
    with pytest.raises(MechanismError):
        HadamardConfig(d=4, eps=-1.0, B=8, b=1)
    cfg = HadamardConfig(d=4, eps=1.0, B=4, b=2)
    assert cfg.n_out == 8


def test_hadamard_for_alphabet_capacity():
    for d in (2, 3, 4, 7, 16, 33):
        for eps in (0.3, 1.0, LN3, 3.0):
            cfg = HadamardConfig.for_alphabet(d, eps)
            assert cfg.b * cfg.B // 2 >= d
            assert cfg.B >= 2 and cfg.B & (cfg.B - 1) == 0


def test_hadamard_audit():
    for d in (2, 4, 7):
        for eps in (0.5, LN3, 2.0):
            cfg = HadamardConfig.for_alphabet(d, eps)
            assert audit_ldp(hadamard_response(cfg)) <= eps + 1e-12


def test_hadamard_estimator_unbiased_in_expectation():
    rng = np.random.default_rng(3)
    for d in (3, 4, 7):
        cfg = HadamardConfig.for_alphabet(d, LN3)
        channel = hadamard_response(cfg)
        p = rand_prob(rng, d)
        expected_hist = p.mass @ channel.rows  # histogram frequencies per user
        est = hadamard_estimate(expected_hist, cfg)
        np.testing.assert_allclose(est, p.mass, atol=1e-12)


def test_hadamard_estimator_bias_within_monte_carlo_error():
    d, eps, trials, n = 4, LN3, 10_000, 1
    cfg = HadamardConfig.for_alphabet(d, eps)
    channel = hadamard_response(cfg)
    p = ProbVector(np.array([0.4, 0.3, 0.2, 0.1]))
    rng = stream(99, 0)
    ests = np.empty((trials, d))
    for t in range(trials):
        x = int(rng.choice(d, p=p.mass))
        z = int(rng.choice(cfg.n_out, p=channel.rows[x]))
        hist = np.zeros(cfg.n_out)
        hist[z] = n
        ests[t] = hadamard_estimate(hist, cfg)
    bias = ests.mean(axis=0) - p.mass
    stderr = ests.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.all(np.abs(bias) <= 4.0 * stderr)


def test_hadamard_estimate_errors():
    cfg = HadamardConfig.for_alphabet(4, LN3)
    with pytest.raises(MechanismError):
        hadamard_estimate(np.zeros(cfg.n_out), cfg)
    with pytest.raises(MechanismError):
        hadamard_estimate(np.ones(cfg.n_out + 1), cfg)


def test_hadamard_estimate_stack_errors():
    cfg = HadamardConfig.for_alphabet(4, LN3)
    with pytest.raises(MechanismError, match="histogram shape"):
        hadamard_estimate(np.ones((2, 3, cfg.n_out)), cfg)
    with pytest.raises(MechanismError, match="histogram shape"):
        hadamard_estimate(np.ones((3, cfg.n_out + 1)), cfg)
    stack = np.ones((3, cfg.n_out))
    stack[1] = 0.0
    with pytest.raises(MechanismError, match="empty"):
        hadamard_estimate(stack, cfg)


@pytest.mark.parametrize("d", [0, -3])
def test_for_alphabet_rejects_an_empty_alphabet(d):
    with pytest.raises(MechanismError, match="alphabet size must be positive"):
        HadamardConfig.for_alphabet(d, LN3)


def _sylvester_kron(B: int) -> np.ndarray:
    """Reference Sylvester Hadamard matrix by Kronecker recursion."""
    h = np.ones((1, 1))
    while h.shape[0] < B:
        h = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]), h)
    return h


def _hadamard_sets_reference(cfg: HadamardConfig) -> list[np.ndarray]:
    """Output-column set ``C_x`` of each input symbol, one symbol at a time."""
    h = _sylvester_kron(cfg.B)
    half = cfg.B // 2
    sets = []
    for x in range(cfg.d):
        block, j = divmod(x, half)
        sets.append(np.flatnonzero(h[j + 1] > 0) + block * cfg.B)
    return sets


def _hadamard_rows_reference(cfg: HadamardConfig) -> np.ndarray:
    """Channel rows filled per set, then normalised row by row."""
    e = math.exp(cfg.eps)
    half = cfg.B // 2
    denom = half * e + (cfg.n_out - half)
    rows = np.full((cfg.d, cfg.n_out), 1.0 / denom)
    for x, cols in enumerate(_hadamard_sets_reference(cfg)):
        rows[x, cols] = e / denom
    return np.vstack([row / float(row.sum()) for row in rows])


def _hadamard_estimate_reference(hist: np.ndarray, cfg: HadamardConfig) -> np.ndarray:
    e = math.exp(cfg.eps)
    half = cfg.B // 2
    denom = half * e + (cfg.n_out - half)
    freq = hist / hist.sum()
    block_freq = freq.reshape(cfg.b, cfg.B).sum(axis=1)
    p_block = (block_freq - cfg.B / denom) * (2.0 * denom) / (cfg.B * (e - 1.0))
    scale = 4.0 * denom / (cfg.B * (e - 1.0))
    est = np.empty(cfg.d)
    for x, cols in enumerate(_hadamard_sets_reference(cfg)):
        est[x] = scale * (freq[cols].sum() - half / denom) - p_block[x // half]
    return est


HADAMARD_DS = (1, 3, 5, 64, 100, 256)
HADAMARD_EPS = (0.1, LN3, 2.0, 4.0)


def test_plus_pattern_matches_kronecker_sylvester():
    for m in range(1, 11):
        B = 2**m
        expected = (_sylvester_kron(B)[1 : B // 2 + 1] > 0).astype(float)
        np.testing.assert_array_equal(_plus_pattern(B), expected)


@pytest.mark.parametrize("d", HADAMARD_DS)
@pytest.mark.parametrize("eps", HADAMARD_EPS)
def test_hadamard_rows_bit_identical_to_per_set_reference(d, eps):
    padded = HadamardConfig(d=d, eps=eps, B=8, b=-(-d // 4) + 1)  # one block past the alphabet
    for cfg in (HadamardConfig.for_alphabet(d, eps), padded):
        assert hadamard_response(cfg).rows.tobytes() == _hadamard_rows_reference(cfg).tobytes()


@pytest.mark.parametrize("d", HADAMARD_DS)
@pytest.mark.parametrize("eps", HADAMARD_EPS)
def test_hadamard_estimate_matches_per_set_reference(d, eps):
    cfg = HadamardConfig.for_alphabet(d, eps)
    rng = np.random.default_rng(d)
    hist = rng.integers(0, 40, size=cfg.n_out).astype(float)
    hist[0] += 1.0
    np.testing.assert_allclose(hadamard_estimate(hist, cfg),
                               _hadamard_estimate_reference(hist, cfg), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", HADAMARD_DS)
@pytest.mark.parametrize("eps", HADAMARD_EPS)
def test_hadamard_estimate_stack_matches_row_calls_bit_for_bit(d, eps):
    cfg = HadamardConfig.for_alphabet(d, eps)
    rng = np.random.default_rng(d)
    counts = rng.multinomial(500, np.full(cfg.n_out, 1.0 / cfg.n_out), size=6)
    for stack in (counts, rng.random((5, cfg.n_out))):
        rows = np.stack([hadamard_estimate(row, cfg) for row in stack])
        batched = hadamard_estimate(stack, cfg)
        assert batched.shape == (len(stack), d)
        assert batched.tobytes() == rows.tobytes()


@pytest.mark.parametrize("d", HADAMARD_DS)
@pytest.mark.parametrize("eps", HADAMARD_EPS)
def test_hadamard_output_mass_is_push_forward(d, eps):
    cfg = HadamardConfig.for_alphabet(d, eps)
    p = rand_prob(np.random.default_rng(d + 1), d)
    np.testing.assert_allclose(hadamard_output_mass(p, cfg),
                               p.mass @ hadamard_response(cfg).rows, rtol=0, atol=1e-15)


def test_hadamard_output_mass_dimension_mismatch():
    with pytest.raises(ProbabilityError):
        hadamard_output_mass(ProbVector.uniform(3), HadamardConfig.for_alphabet(4, LN3))


# -------------------------------------------------------- audit and helpers


def test_audit_detects_violations():
    k = randomized_response(2, 2.0)
    assert audit_ldp(k) > 1.0  # tighter claim would be false
    ident = rand_channel(np.random.default_rng(0), 3, 3)
    assert math.isfinite(audit_ldp(ident))


def test_audit_infinite_for_disjoint_rows():
    from ldpcontract.probability import Channel

    k = Channel(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert audit_ldp(k) == math.inf


def test_mix_toward_uniform_meets_target(rng):
    for _ in range(10):
        k = rand_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        eps = float(rng.uniform(0.1, 2.0))
        mixed = mix_toward_uniform(k, eps)
        assert audit_ldp(mixed) <= eps + 1e-9


def _audit_pairwise(k: Channel) -> float:
    """Reference audit: ``log K(z|x) - log K(z|x')`` over every input pair."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lm = np.log(k.rows)
        gap = lm[:, None, :] - lm[None, :, :]
    gap = np.where(np.isnan(gap), -np.inf, gap)
    return max(float(gap.max()), 0.0)


def test_audit_matches_pairwise_reference_on_random_channels():
    rng = np.random.default_rng(41)
    for _ in range(300):
        n_in, n_out = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        rows = rng.dirichlet(np.full(n_out, float(rng.choice([0.2, 1.0, 5.0]))), size=n_in)
        rows[rng.random(rows.shape) < 0.25] = 0.0
        rows[rows.sum(axis=1) == 0.0, 0] = 1.0
        k = Channel(rows / rows.sum(axis=1, keepdims=True))
        assert audit_ldp(k) == _audit_pairwise(k)


@pytest.mark.parametrize("d", [4, 64, 128])
def test_audit_matches_pairwise_reference_on_hadamard(d):
    k = hadamard_response(HadamardConfig.for_alphabet(d, LN3))
    assert audit_ldp(k) == _audit_pairwise(k)


def test_audit_memory_is_linear_in_channel_size():
    k = hadamard_response(HadamardConfig.for_alphabet(128, LN3))
    tracemalloc.start()
    try:
        audit_ldp(k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_mix_toward_uniform_is_tight():
    rng = np.random.default_rng(42)
    for _ in range(300):
        k = rand_channel(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)),
                         alpha=float(rng.choice([0.1, 1.0, 10.0])))
        eps = float(rng.uniform(0.0, 3.0))
        if audit_ldp(k) <= eps:
            continue
        assert eps - 1e-9 <= audit_ldp(mix_toward_uniform(k, eps)) <= eps


def test_sample_matches_row_distribution():
    k = randomized_response(3, 1.0)
    rng = stream(5, 0)
    draws = sample(k, 1, rng, size=100_000)
    freq = np.bincount(draws, minlength=3) / 100_000
    sigma = np.sqrt(k.rows[1] * (1 - k.rows[1]) / 100_000)
    assert np.all(np.abs(freq - k.rows[1]) <= 4.0 * sigma)


def test_project_to_simplex():
    out = project_to_simplex(np.array([0.6, 0.8, -0.4]))
    assert isinstance(out, ProbVector)
    assert out.mass.sum() == pytest.approx(1.0, abs=1e-12)
    # already on the simplex: identity
    p = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(project_to_simplex(p).mass, p, atol=1e-12)
