"""Contraction coefficients, privacy constants, and output-divergence bounds."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcontract.contraction import (
    EPS_MAX,
    RATIO_FLOOR,
    ContractionError,
    ContractionEstimate,
    binary_input_kl_bound,
    check_eps,
    chi2_tv_bound,
    eta_bruteforce,
    eta_chi2_at,
    eta_tv_exact,
    extremal_tv_under_ldp,
    prior_art_bounds,
    psi,
    upsilon,
)
from ldpcontract.contraction import _binary_input_divergences, _chi2_ceiling, _input_grid
from ldpcontract.mechanisms import (
    MechanismError,
    PrivacyLevel,
    mix_toward_uniform,
    randomized_response,
)
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


def test_one_eps_domain_with_each_module_error_type():
    assert check_eps(0.0) == 0.0 and check_eps(EPS_MAX) == EPS_MAX
    assert math.isfinite(math.exp(EPS_MAX))
    for bad in (-1e-300, math.nextafter(EPS_MAX, math.inf), math.inf, math.nan):
        with pytest.raises(ContractionError):
            check_eps(bad)
        with pytest.raises(ContractionError):
            psi(bad)
        with pytest.raises(MechanismError):
            PrivacyLevel(bad)
    PrivacyLevel(EPS_MAX)


def test_large_eps_constants_do_not_overflow():
    # (e^eps - 1)^2 overflows a double past EPS_MAX / 2, psi ~ e^eps does not
    for eps in (354.89, math.nextafter(EPS_MAX / 2.0, math.inf), 400.0, 700.0, EPS_MAX):
        assert psi(eps) == pytest.approx(math.exp(eps), rel=1e-12)
    bounds = prior_art_bounds(30.0, 0.5)
    assert bounds["tv_quadratic"] == math.inf
    assert bounds["kl_quadratic"] == 4.0 * math.expm1(30.0) ** 2 * 0.25
    assert prior_art_bounds(EPS_MAX, 0.5) == {"kl_quadratic": math.inf, "tv_quadratic": math.inf}
    assert prior_art_bounds(EPS_MAX, 0.0) == {"kl_quadratic": 0.0, "tv_quadratic": 0.0}
    assert chi2_tv_bound(400.0, 0.0) == 0.0


def test_constants_bit_identical_below_overflow():
    """The saturating forms reproduce the plain formulas wherever those stay finite."""
    eps_grid = np.concatenate((np.linspace(0.0, 26.6, 301), np.linspace(26.6, 354.89, 301),
                               [math.log(2.0), EPS_MAX / 2.0]))
    for eps in eps_grid.tolist():
        assert psi(eps) == math.exp(-eps) * math.expm1(eps) ** 2
        if eps * eps > EPS_MAX:
            continue
        em1 = math.expm1(eps)
        for tv in (0.0, 0.3, 1.0):
            assert prior_art_bounds(eps, tv) == {
                "kl_quadratic": min(4.0, math.exp(2.0 * eps)) * em1 * em1 * tv * tv,
                "tv_quadratic": 4.0 * math.expm1(eps * eps) * tv * tv,
            }


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


def _tv_loop(rows):
    """The row-by-row scan eta_tv_exact replaced: (value, i, j)."""
    n = rows.shape[0]
    best = 0.0
    bi, bj = 0, min(1, n - 1)
    for i in range(n):
        diffs = 0.5 * np.abs(rows[i + 1 :] - rows[i]).sum(axis=1)
        if diffs.size:
            j = int(np.argmax(diffs))
            if diffs[j] > best:
                best = float(diffs[j])
                bi, bj = i, i + 1 + j
    return min(best, 1.0), bi, bj


def test_eta_tv_matches_row_loop(rng):
    for trial in range(600):
        n_in = int(rng.integers(1, 8))
        raw = rng.dirichlet(np.ones(int(rng.integers(1, 6))), size=n_in)
        if trial % 3 == 0 and n_in > 1:
            raw[rng.integers(n_in)] = raw[rng.integers(n_in)]
        if trial % 7 == 0:
            raw[:] = raw[0]
        k = Channel(raw)
        value, i, j = _tv_loop(k.rows)
        est = eta_tv_exact(k)
        assert est.value == value
        assert np.array_equal(est.witness_p.mass, ProbVector.point_mass(i, n_in).mass)
        assert np.array_equal(est.witness_q.mass, ProbVector.point_mass(j, n_in).mass)


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


def _per_pair_bruteforce(rows, tag, grid_n):
    """The per-pair loop that built every KL/H^2 surface: (value, pair, (a, b))."""
    g = np.arange(1, grid_n + 1, dtype=float) / (grid_n + 1)
    if tag != "chi2":
        in_div = _binary_input_divergences(g, tag)
        skip = in_div < RATIO_FLOOR
    lin_outer = np.empty((grid_n, grid_n))
    best, best_pair, best_ab = -1.0, (0, 1), (0, min(1, grid_n - 1))
    for x1 in range(rows.shape[0]):
        for x2 in range(x1 + 1, rows.shape[0]):
            u = rows[x1] - rows[x2]
            v = rows[x2]
            mix = v[None, :] + g[:, None] * u[None, :]
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(mix > 0, u[None, :] ** 2 / mix, 0.0)
            local = g * (1.0 - g) * terms.sum(axis=1)
            bloc = int(np.argmax(local))
            if local[bloc] > best:
                best, best_pair, best_ab = float(local[bloc]), (x1, x2), (bloc, bloc)
            if tag == "chi2":
                continue
            if tag == "kl":
                logm = np.where(mix > 0, np.log(np.maximum(mix, 1e-300)), 0.0)
                self_term = (mix * logm).sum(axis=1)
                const_term = logm @ v
                lin_term = logm @ u
                out_div = np.subtract.outer(self_term, const_term)
                out_div -= np.multiply.outer(g, lin_term, out=lin_outer)
            else:
                root = np.sqrt(mix)
                out_div = root @ root.T
                out_div *= -2.0
                out_div += 2.0
            np.clip(out_div, 0.0, None, out=out_div)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(out_div, in_div, out=out_div)
            np.copyto(out_div, -1.0, where=skip)
            flat = int(np.argmax(out_div))
            a, b = divmod(flat, grid_n)
            if out_div[a, b] > best:
                best, best_pair, best_ab = float(out_div[a, b]), (x1, x2), (a, b)
    return float(np.clip(best, 0.0, 1.0)), best_pair, best_ab


def _assert_matches_per_pair_loop(k, kind, grid_n):
    value, pair, (a, b) = _per_pair_bruteforce(k.rows, kind.tag, grid_n)
    est = eta_bruteforce(k, kind, grid_n=grid_n)
    g = np.arange(1, grid_n + 1, dtype=float) / (grid_n + 1)
    alpha = g[a] if a != b else (g[a + 1] if a + 1 < grid_n else g[a - 1])
    wp, wq = np.zeros(k.n_in), np.zeros(k.n_in)
    wp[list(pair)] = alpha, 1.0 - alpha
    wq[list(pair)] = g[b], 1.0 - g[b]
    assert est.value == value
    assert est.extra["pair"] == pair
    assert np.array_equal(est.witness_p.mass, wp)
    assert np.array_equal(est.witness_q.mass, wq)


def test_eta_bruteforce_matches_per_pair_loop(rng):
    # LDP and unconstrained channels, rows with zeros, a duplicated row
    for trial in range(60):
        n_in, n_out = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        raw = rng.dirichlet(np.full(n_out, float(rng.choice([0.3, 1.0, 3.0]))), size=n_in)
        family = trial % 4
        if family == 0:
            k = mix_toward_uniform(Channel(raw), float(rng.choice([0.1, 0.5, 1.0, 2.0, 4.0])))
        elif family == 1:
            k = Channel(raw)
        elif family == 2:
            raw[rng.random(raw.shape) < 0.3] = 0.0
            raw[:, 0] += 1e-3
            k = Channel(raw / raw.sum(axis=1, keepdims=True))
        else:
            n_in = max(n_in, 3)
            raw = rng.dirichlet(np.ones(n_out), size=n_in)
            raw[1] = raw[0]
            k = mix_toward_uniform(Channel(raw), float(rng.choice([0.5, 2.0])))
        grid_n = int(rng.choice([3, 4, 9, 51, 201]))
        for kind in (KL, CHI2, H2):
            _assert_matches_per_pair_loop(k, kind, grid_n)


def test_eta_bruteforce_batches_wide_channels_like_per_pair_loop(rng):
    # 201 x 1400 floats per pair exceeds the batch budget: one pair per batch
    k = random_ldp_channel(rng, 1.0, 4, 1400)
    for kind in (KL, CHI2, H2):
        _assert_matches_per_pair_loop(k, kind, 201)


def test_eta_bruteforce_identical_rows_report_zero(rng):
    # every ratio is 0; the per-pair loop reported cancellation residue
    for grid_n in (3, 9, 51, 201):
        row = rng.dirichlet(np.ones(4))
        k = Channel(np.tile(row, (3, 1)))
        for kind in (KL, CHI2, H2):
            assert eta_bruteforce(k, kind, grid_n=grid_n).value == 0.0
            assert _per_pair_bruteforce(k.rows, kind.tag, grid_n)[0] <= 1e-10


def test_eta_bruteforce_zero_entries_match_per_pair_loop():
    # an exact zero opposite positive mass, and a column of zeros that contributes nothing
    k = Channel(np.array([[0.0, 0.5, 0.5, 0.0], [0.3, 0.3, 0.4, 0.0], [0.2, 0.5, 0.3, 0.0]]))
    w, v = k.rows[0], k.rows[1]
    assert _chi2_ceiling(w, v) >= _dense_curve_sup(w - v, v)
    for kind in (KL, CHI2, H2):
        for grid_n in (9, 201):
            _assert_matches_per_pair_loop(k, kind, grid_n)


def _dense_curve_sup(u: np.ndarray, v: np.ndarray) -> float:
    """The local curve's largest value on 2 * 10^5 interior points."""
    beta = np.linspace(0.0, 1.0, 200_001)[1:-1, None]
    mix = v + beta * u
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mix > 0, u**2 / mix, 0.0)
    return float((beta[:, 0] * (1.0 - beta[:, 0]) * terms.sum(axis=1)).max())


def test_chi2_ceiling_covers_dense_sweep(rng):
    """``h (1 - h/4)`` caps the local curve, which equals ``1 - sum_z w_z v_z / m_z``."""
    pairs = []
    for trial in range(24):
        n_out = int(rng.integers(2, 7))
        eps = (0.1, 1.0, 4.0)[trial % 3]
        rows = random_ldp_channel(rng, eps, 2, n_out).rows.copy()
        if trial % 2:
            rows[0, 0] = 1e-12 * rows[0, 0]  # mass near zero
            rows[0] /= rows[0].sum()
        pairs.append(rows)
    # exact zeros, on one side, on both, or in a whole column; the two fixed
    # pairs peak at beta -> 0 and beta -> 1
    peaks_at_ends = [np.array([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5]]),
                     np.array([[0.0, 0.5, 0.5], [0.5, 0.25, 0.25]])]
    for trial in range(50):
        n_out = int(rng.integers(2, 7))
        rows = rng.dirichlet(np.ones(n_out), size=2)
        rows[rng.random(rows.shape) < 0.4] = 0.0
        rows[trial % 2, 0] = 0.0
        rows[:, -1] += 0.2  # neither row is all zero
        rows /= rows.sum(axis=1, keepdims=True)
        pairs.append(peaks_at_ends[trial] if trial < len(peaks_at_ends) else rows)
    beta = np.linspace(0.0, 1.0, 200_001)[1:-1, None]
    for w, v in pairs:
        m = beta * w + (1.0 - beta) * v
        with np.errstate(divide="ignore", invalid="ignore"):
            f = beta[:, 0] * (1.0 - beta[:, 0]) * np.where(m > 0, (w - v) ** 2 / m, 0.0).sum(axis=1)
            identity = 1.0 - np.where(m > 0, w * v / m, 0.0).sum(axis=1)
        assert np.abs(f - identity).max() <= 1e-12, (w, v)
        assert _dense_curve_sup(w - v, v) <= _chi2_ceiling(w, v), (w, v)


def test_eta_bruteforce_chi2_builds_no_grid_matrix():
    # the chi-squared search reads only the grid, never a grid_n x grid_n matrix
    _input_grid.cache_clear()
    tracemalloc.start()
    try:
        eta_bruteforce(randomized_response(3, 1.0), CHI2, grid_n=4001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_eta_bruteforce_prunes_surfaces(rng):
    k = random_ldp_channel(rng, 1.0, 6, 5)
    for kind in (KL, H2):
        assert eta_bruteforce(k, kind, grid_n=201).extra["surfaces"] < 15
    assert eta_bruteforce(k, CHI2, grid_n=201).extra["surfaces"] == 0


def test_eta_bruteforce_prunes_sparse_channels():
    # zeros opposite positive mass: before the end cells had their own bound,
    # every one of these pairs had an infinite bound, and 12 of the 15 pairs
    # built a surface at grid_n = 201 for each of KL and H^2
    k = Channel(np.array([[0.7, 0.3, 0.0, 0.0], [0.6, 0.0, 0.4, 0.0], [0.1, 0.1, 0.4, 0.4],
                          [0.0, 0.5, 0.2, 0.3], [0.25, 0.25, 0.25, 0.25], [0.3, 0.3, 0.2, 0.2]]))
    for kind in (KL, H2):
        assert eta_bruteforce(k, kind, grid_n=201).extra["surfaces"] < 12
        _assert_matches_per_pair_loop(k, kind, 201)


@pytest.mark.parametrize("eps", [1e-7, 1e-5, 1e-4])
def test_eta_bruteforce_stays_below_upsilon_at_small_eps(rng, eps):
    ceiling = upsilon(eps) * (1.0 + 1e-9)
    for _ in range(40):
        k = random_ldp_channel(rng, eps, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        for kind in (KL, H2):
            assert eta_bruteforce(k, kind, grid_n=201).value <= ceiling


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
