"""Contraction coefficients, privacy constants, and output-divergence bounds."""

from __future__ import annotations

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcontract import contraction
from ldpcontract.contraction import (
    EPS_MAX,
    ContractionError,
    ContractionEstimate,
    DegenerateChannelError,
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
from ldpcontract.contraction import _chi2_ceiling
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


@pytest.mark.parametrize("rows", [[[1.0], [1.0]], [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]])
def test_eta_chi2_at_constant_channel_is_zero(rows):
    # one output column carries all the mass, so the SVD has one singular value
    assert eta_chi2_at(ProbVector.uniform(2), Channel(np.array(rows))) == 0.0


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
        est = eta_bruteforce(k, CHI2)
        assert est.value == pytest.approx(upsilon(eps), abs=1e-9)
        assert est.method == "pair_sup"


def test_eta_bruteforce_identity_channel():
    k = Channel(np.eye(3))
    for kind in (KL, CHI2, H2):
        assert eta_bruteforce(k, kind).value == pytest.approx(1.0, abs=1e-9)


def _witness_ratio(kind, est, k):
    num = divergence(kind, push_forward(est.witness_p, k), push_forward(est.witness_q, k))
    den = divergence(kind, est.witness_p, est.witness_q)
    assert den > 0.0
    return num / den


def test_eta_bruteforce_witness_achieves_value(rng):
    # the chi-squared ratio at witness_q is the curve itself; the KL and H^2 ratios
    # never exceed the pair's chi-squared coefficient and, one step of 1e-3 from an
    # interior peak, fall short of it only at second order
    k = rand_channel(rng, 4, 4)
    est = eta_bruteforce(k, CHI2)
    assert abs(est.witness_p.mass - est.witness_q.mass).max() == pytest.approx(1e-3)
    assert _witness_ratio(CHI2, est, k) == pytest.approx(est.value, rel=1e-9, abs=1e-12)
    for kind in (KL, H2):
        est = eta_bruteforce(k, kind)
        ratio = _witness_ratio(kind, est, k)
        assert ratio <= est.value * (1.0 + 1e-9)
        assert ratio == pytest.approx(est.value, rel=1e-4)


def test_eta_bruteforce_bounded_by_dobrushin(rng):
    for _ in range(10):
        k = rand_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        ceiling = eta_tv_exact(k).value
        for kind in (KL, CHI2, H2):
            assert eta_bruteforce(k, kind).value <= ceiling + 1e-9


def test_eta_bruteforce_matches_cellwise_reference(rng):
    # every KL / H^2 ratio of two grid mixtures, and every local chi-squared value,
    # stays below the certified supremum
    grid_n = 9
    g = np.arange(1, grid_n + 1) / (grid_n + 1)
    for _ in range(4):
        k = rand_channel(rng, 3, 4)
        for kind in (KL, H2):
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
            est = eta_bruteforce(k, kind)
            assert est.value >= best - 1e-12
            assert est.value <= est.extra["upper"] <= est.value * (1.0 + 1e-9)


#: The per-pair loop below skipped input cells whose divergence fell below this.
RATIO_FLOOR = 1e-12


def _binary_input_divergences(g, tag):
    """Matrix ``D(Ber(g_a) || Ber(g_b))`` over a grid ``g`` in (0, 1), for KL or H^2."""
    if tag == "kl":
        a = g[:, None]
        lg, l1g = np.log(g), np.log1p(-g)
        return a * (lg[:, None] - lg[None, :]) + (1.0 - a) * (l1g[:, None] - l1g[None, :])
    sg, s1g = np.sqrt(g), np.sqrt(1.0 - g)
    return 2.0 - 2.0 * (sg[:, None] * sg[None, :] + s1g[:, None] * s1g[None, :])


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


def _bisection_sup(rows):
    """Largest pair supremum: 100 bisection steps on the sign of
    ``f'(beta) = sum_z w_z v_z u_z / m_z^2`` for every pair at once, end limits included."""
    first, second = np.triu_indices(rows.shape[0], 1)
    w, v = rows[first], rows[second]
    u, wv = w - v, w * v
    lo, hi = np.zeros(first.size), np.ones(first.size)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        m = v + mid[:, None] * u
        rise = np.sum(np.where(wv > 0, wv * u / np.where(wv > 0, m * m, 1.0), 0.0), axis=1) > 0
        lo, hi = np.where(rise, mid, lo), np.where(rise, hi, mid)
    beta = 0.5 * (lo + hi)
    m = v + beta[:, None] * u
    f = beta * (1.0 - beta) * np.sum(np.where(m > 0, u * u / np.where(m > 0, m, 1.0), 0.0), axis=1)
    ends = np.maximum(np.where(v == 0, w, 0.0).sum(axis=1), np.where(w == 0, v, 0.0).sum(axis=1))
    return float(np.maximum(f, ends).max())


def _assert_matches_per_pair_loop(k, grid_n, dense=True):
    """One value for KL, chi^2 and H^2, at or above the per-pair loop, equal to the
    bisection supremum, certified by ``extra["upper"]`` and below the TV and
    closed-form ceilings."""
    est = {kind.tag: eta_bruteforce(k, kind) for kind in (KL, CHI2, H2)}
    value = est["chi2"].value
    upper = est["chi2"].extra["upper"]
    for tag, e in est.items():
        assert (e.value, e.extra) == (value, est["chi2"].extra)
        assert value >= _per_pair_bruteforce(k.rows, tag, grid_n)[0] - 1e-12
    assert value == pytest.approx(_bisection_sup(k.rows), rel=1e-9, abs=1e-12)
    assert value <= upper <= value * (1.0 + 1e-9)
    x1, x2 = est["chi2"].extra["pair"]
    w, v = k.rows[x1], k.rows[x2]
    if dense:
        assert upper >= _dense_curve_sup(w - v, v)
    first, second = np.triu_indices(k.n_in, 1)
    ceiling = _chi2_ceiling(k.rows[first], k.rows[second]).max()
    assert value <= min(eta_tv_exact(k).value, ceiling) + 1e-12


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
        _assert_matches_per_pair_loop(k, int(rng.choice([3, 4, 9, 51, 201])))


def test_eta_bruteforce_batches_wide_channels_like_per_pair_loop(rng):
    # 1400 output symbols, against the per-pair loop on its 201-point grid
    k = random_ldp_channel(rng, 1.0, 4, 1400)
    _assert_matches_per_pair_loop(k, 201, dense=False)


def test_eta_bruteforce_refines_a_pair_behind_on_the_grid():
    # on the grid {1/4, 1/2, 3/4} pair (0, 1) leads with 0.454, yet pair (1, 2) peaks
    # at 0.483 between nodes: pruning must keep every pair whose ceiling can still win
    k = Channel(np.array([[0.327, 0.499, 0.174], [0.95, 0.048, 0.002], [0.478, 0.001, 0.521]]))
    assert _per_pair_bruteforce(k.rows, "chi2", 3)[1] == (0, 1)
    assert eta_bruteforce(k, CHI2).extra["pair"] == (1, 2)
    _assert_matches_per_pair_loop(k, 3)


def test_eta_bruteforce_identical_rows_report_zero(rng):
    # every ratio is 0; the per-pair loop reported cancellation residue
    for grid_n in (3, 9, 51, 201):
        row = rng.dirichlet(np.ones(4))
        k = Channel(np.tile(row, (3, 1)))
        for kind in (KL, CHI2, H2):
            assert eta_bruteforce(k, kind).value == 0.0
            assert _per_pair_bruteforce(k.rows, kind.tag, grid_n)[0] <= 1e-10


def test_eta_bruteforce_zero_entries_match_per_pair_loop():
    # an exact zero opposite positive mass, and a column of zeros that contributes nothing
    k = Channel(np.array([[0.0, 0.5, 0.5, 0.0], [0.3, 0.3, 0.4, 0.0], [0.2, 0.5, 0.3, 0.0]]))
    w, v = k.rows[0], k.rows[1]
    assert _chi2_ceiling(w, v) >= _dense_curve_sup(w - v, v)
    for grid_n in (9, 201):
        _assert_matches_per_pair_loop(k, grid_n)


def test_eta_bruteforce_reports_end_limits():
    # f(0+) = sum_{v_z = 0} w_z = 1/2 and f'(0+) = 1/4 - 1/2 < 0: the supremum is the limit
    for rows in ([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5]], [[0.0, 0.5, 0.5], [0.5, 0.25, 0.25]]):
        k = Channel(np.array(rows))
        est = eta_bruteforce(k, CHI2)
        assert est.value == 0.5
        assert est.value <= est.extra["upper"] <= est.value * (1.0 + 1e-9)
        assert _witness_ratio(CHI2, est, k) == pytest.approx(0.5, rel=1e-5)


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


def test_eta_bruteforce_prunes_pairs(rng):
    k = random_ldp_channel(rng, 1.0, 6, 5)
    for kind in (KL, CHI2, H2):
        assert eta_bruteforce(k, kind).extra["refined"] < 15


def test_eta_bruteforce_prunes_sparse_channels():
    # zeros opposite positive mass: an end limit does not stop a pair being pruned
    k = Channel(np.array([[0.7, 0.3, 0.0, 0.0], [0.6, 0.0, 0.4, 0.0], [0.1, 0.1, 0.4, 0.4],
                          [0.0, 0.5, 0.2, 0.3], [0.25, 0.25, 0.25, 0.25], [0.3, 0.3, 0.2, 0.2]]))
    for kind in (KL, H2):
        assert eta_bruteforce(k, kind).extra["refined"] < 12
    _assert_matches_per_pair_loop(k, 201)


def _estimate_bytes(est):
    """Everything in an estimate but its kind."""
    return (est.value.hex(), est.method, est.witness_p.mass.tobytes(),
            est.witness_q.mass.tobytes(), est.extra)


def _no_search(*_):
    raise AssertionError("the pair search ran again")


def test_eta_bruteforce_searches_once_per_channel_and_grid(rng, monkeypatch):
    for trial in range(12):
        raw = rand_channel(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7))).rows
        k = Channel(raw)
        kinds = [KL, CHI2, H2][trial % 3:] + [KL, CHI2, H2][:trial % 3]
        with monkeypatch.context() as m:
            first = eta_bruteforce(k, kinds[0])
            m.setattr(contraction, "_pair_search", _no_search)
            later = [eta_bruteforce(k, kind) for kind in kinds[1:]]
        for kind, est in zip(kinds, [first] + later):
            # a fresh search on an equal-content channel gives the same estimate
            fresh = eta_bruteforce(Channel(raw), kind)
            assert est.kind == kind
            assert _estimate_bytes(est) == _estimate_bytes(fresh)
            assert est.extra is not fresh.extra


def test_eta_bruteforce_estimates_own_their_extra():
    k = randomized_response(3, 1.0)
    kl = eta_bruteforce(k, KL)
    kl.extra["upper"] = -1.0
    kl.extra["pair"] = None
    for kind in (KL, CHI2, H2):
        est = eta_bruteforce(k, kind)
        assert est.extra is not kl.extra
        assert est.extra == eta_bruteforce(randomized_response(3, 1.0), kind).extra


def test_eta_bruteforce_memo_holds_one_entry_per_channel(rng, monkeypatch):
    k = random_ldp_channel(rng, 1.0, 5, 4)
    chi2 = eta_bruteforce(k, CHI2)
    search = contraction._SEARCHES[k]
    assert isinstance(search, tuple) and search[0] == chi2.value
    size = len(contraction._SEARCHES)
    monkeypatch.setattr(contraction, "_pair_search", _no_search)
    assert _estimate_bytes(eta_bruteforce(k, KL, grid_n=51)) == _estimate_bytes(chi2)
    assert _estimate_bytes(eta_bruteforce(k, H2)) == _estimate_bytes(chi2)
    assert len(contraction._SEARCHES) == size
    assert contraction._SEARCHES[k] is search
    with pytest.raises(AssertionError, match="ran again"):
        eta_bruteforce(Channel(k.rows), KL)


def test_eta_bruteforce_memo_holds_no_channel_alive(rng):
    k = random_ldp_channel(rng, 1.0, 4, 4)
    for kind in (KL, CHI2, H2):
        eta_bruteforce(k, kind)
    gc.collect()
    alive, size = weakref.ref(k), len(contraction._SEARCHES)
    del k
    gc.collect()
    assert alive() is None
    assert len(contraction._SEARCHES) == size - 1


def test_eta_bruteforce_checks_inputs_on_a_memoised_channel():
    k = randomized_response(3, 1.0)
    eta_bruteforce(k, KL)
    with pytest.raises(ContractionError, match="does not support"):
        eta_bruteforce(k, TV)
    single = Channel(np.array([[0.5, 0.5]]))
    with pytest.raises(DegenerateChannelError):
        eta_bruteforce(single, KL)
    assert single not in contraction._SEARCHES


def test_eta_bruteforce_ignores_grid_n(rng):
    # grid_n sized a seeding grid that the search no longer has: accepted, never used
    for _ in range(6):
        raw = rand_channel(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7))).rows
        for kind in (KL, CHI2, H2):
            plain = eta_bruteforce(Channel(raw), kind)
            assert "grid_n" not in plain.extra
            for grid_n in (3, 201, 201.0, None):
                est = eta_bruteforce(Channel(raw), kind, grid_n=grid_n)
                assert _estimate_bytes(est) == _estimate_bytes(plain)


def test_eta_bruteforce_batch_size_leaves_estimates_unchanged(rng, monkeypatch):
    # 64 floats per temporary: a few pairs per batch, one pair on the 100-output channel
    raws = []
    for trial in range(24):
        raw = rng.dirichlet(np.ones(int(rng.integers(2, 9))), size=int(rng.integers(2, 9)))
        if trial % 2:
            raw[rng.random(raw.shape) < 0.3] = 0.0
            raw[:, 0] += 1e-3
            raw /= raw.sum(axis=1, keepdims=True)
        raws.append(raw)
    raws += [random_ldp_channel(rng, 1.0, 30, 30).rows, random_ldp_channel(rng, 1.0, 6, 100).rows]
    default = [eta_bruteforce(Channel(raw), CHI2) for raw in raws]
    monkeypatch.setattr(contraction, "_BATCH_FLOATS", 64)
    for raw, est in zip(raws, default):
        assert _estimate_bytes(eta_bruteforce(Channel(raw), CHI2)) == _estimate_bytes(est)


def test_eta_bruteforce_returns_an_end_limit_exactly():
    # The supremum is the end limit f(1-) = K(3, 1) of pair (0, 3), where K(0, 1) = 0.
    # Forming m = v + beta u cancelled as beta -> 1 and overshot it by 1.4e-8.
    rows = np.array([
        [0.6440520332677047, 0.0, 0.35594796673229534],
        [0.326956554833641, 0.3373662113856863, 0.3356772337806726],
        [0.8105256707948176, 0.0, 0.18947432920518234],
        [0.11193108066894787, 0.7005200716915291, 0.18754884763952315],
        [0.17022256270622238, 0.47080859044164974, 0.3589688468521279],
        [0.5305129056426564, 0.41767720946895454, 0.05180988488838906],
    ])
    est = eta_bruteforce(Channel(rows), CHI2)
    assert est.value == rows[3, 1] and est.extra["pair"] == (0, 3)
    assert est.value <= est.extra["upper"] <= est.value * (1.0 + 1e-9)


def test_eta_bruteforce_memory_stays_bounded_when_every_pair_ties():
    # Randomized response refines all 7140 pairs; refined at once they peaked at 47 MiB.
    k = randomized_response(120, 1.0)
    tracemalloc.start()
    try:
        est = eta_bruteforce(k, CHI2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.extra["refined"] == 7140
    assert peak < 8 * 2**20


@pytest.mark.parametrize("shape", [(30, 30), (100, 10)])
def test_eta_bruteforce_certifies_larger_channels(rng, shape):
    for k in (rand_channel(rng, *shape), random_ldp_channel(rng, 1.0, *shape)):
        est = eta_bruteforce(k, CHI2)
        assert est.value == pytest.approx(_bisection_sup(k.rows), rel=1e-9, abs=0.0)
        assert est.value <= est.extra["upper"] <= est.value * (1.0 + 1e-9)


@pytest.mark.parametrize("eps", [1e-7, 1e-5, 1e-4])
def test_eta_bruteforce_stays_below_upsilon_at_small_eps(rng, eps):
    ceiling = upsilon(eps) * (1.0 + 1e-9)
    for _ in range(40):
        k = random_ldp_channel(rng, eps, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        for kind in (KL, H2):
            assert eta_bruteforce(k, kind).value <= ceiling


def test_eta_bruteforce_pairs_cover_full_support_inputs(rng):
    """No full-support input beats the pair supremum: random inputs, then a short
    multiplicative local search from the best of them.  The restriction to inputs on
    two symbols is not cited in the module, so it is guarded here."""
    for trial in range(50):
        n_in = 2 + trial % 4
        k = random_ldp_channel(rng, float(rng.choice([0.5, 1.0, 3.0])), n_in,
                               int(rng.integers(2, 6)))
        upper = eta_bruteforce(k, CHI2).extra["upper"]
        starts = rng.dirichlet(np.full(n_in, 0.5), size=8)
        values = [eta_chi2_at(ProbVector(p), k) for p in starts]
        assert max(values) <= upper + 1e-12
        p, best = starts[int(np.argmax(values))], max(values)
        for _ in range(15):
            q = p * np.exp(0.3 * rng.standard_normal(n_in))
            q /= q.sum()
            value = eta_chi2_at(ProbVector(q), k)
            assert value <= upper + 1e-12
            if value > best:
                p, best = q, value


def test_contraction_estimate_value_range():
    p = ProbVector.uniform(2)
    with pytest.raises(ContractionError):
        ContractionEstimate(value=1.5, kind=KL, witness_p=p, witness_q=p, method="pair_sup")


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
        assert eta_bruteforce(k, KL).value <= bound + 1e-9


@pytest.mark.parametrize("eps", [1e-9, 1e-8, 1e-7, 1e-6])
def test_binary_input_kl_bound_covers_pair_search_at_tiny_eps(rng, eps):
    # sqrt(w) - sqrt(v) taken by subtraction read up to 6.5e-7 low here.  At these eps
    # the ceiling and the pair supremum differ by order eps^2 relative (not at all for
    # two outputs), so only a relative allowance of rounding size is left.
    for _ in range(50):
        k = random_ldp_channel(rng, eps, 2, int(rng.integers(2, 7)))
        value = eta_bruteforce(k, CHI2).value
        assert binary_input_kl_bound(k) >= value * (1.0 - 1e-12)


def test_binary_input_kl_bound_formula():
    for eps in (0.5, 1.5):
        k = randomized_response(2, eps)
        h = divergence(H2, k.row(0), k.row(1))
        assert binary_input_kl_bound(k) == pytest.approx(h * (1.0 - h / 4.0), abs=1e-12)
