"""Fisher information matrices and information-contraction lower bounds."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from ldpcontract.contraction import upsilon
from ldpcontract.fisher import (
    FisherError,
    bernoulli_family,
    cramer_rao_private_lb,
    fisher_multinomial,
    fisher_multinomial_inverse,
    fisher_numeric,
    gaussian_location_family,
    multinomial_entropy_gradient,
    multinomial_family,
    private_fisher_bound,
    van_trees_lb,
)
from ldpcontract.mechanisms import randomized_response
from ldpcontract.rng import stream


def _interior_theta(rng: np.random.Generator, k: int) -> np.ndarray:
    """Free coordinates of an interior multinomial parameter (k outcomes)."""
    full = rng.dirichlet(np.full(k, 5.0))  # concentrated away from the boundary
    return full[:-1]


# ---------------------------------------------------------------- identities


def test_multinomial_inverse_identity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = int(rng.integers(2, 11))
        theta = _interior_theta(rng, k)
        prod = fisher_multinomial(theta) @ fisher_multinomial_inverse(theta)
        assert np.max(np.abs(prod - np.eye(k - 1))) <= 1e-8


def test_multinomial_numeric_matches_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = int(rng.integers(2, 8))
        theta = _interior_theta(rng, k)
        closed = fisher_multinomial(theta)
        numeric = fisher_numeric(multinomial_family(k), theta)
        rel = np.linalg.norm(numeric - closed) / np.linalg.norm(closed)
        assert rel <= 1e-6


def test_fisher_matrix_shape_invariants():
    rng = np.random.default_rng(13)
    theta = _interior_theta(rng, 5)
    info = fisher_numeric(multinomial_family(5), theta)
    assert np.max(np.abs(info - info.T)) <= 1e-10
    assert np.min(np.linalg.eigvalsh(info)) >= -1e-10


def test_bernoulli_family_info():
    theta = np.array([0.3])
    info = fisher_numeric(bernoulli_family(), theta)
    assert info[0, 0] == pytest.approx(1.0 / (0.3 * 0.7), rel=1e-8)


def test_gaussian_location_info():
    for sigma in (0.5, 1.0, 2.0):
        for d in (1, 2):
            fam = gaussian_location_family(sigma, d=d)
            info = fisher_numeric(fam, np.zeros(d))
            np.testing.assert_allclose(info, np.eye(d) / sigma**2, atol=1e-8)


def test_gaussian_location_info_by_finite_differences():
    for sigma in (0.5, 1.0, 2.0):
        for d in (1, 2):
            fam = dataclasses.replace(gaussian_location_family(sigma, d=d), score=None)
            info = fisher_numeric(fam, np.full(d, 0.3))
            np.testing.assert_allclose(info, np.eye(d) / sigma**2, atol=1e-6)


# --------------------------------------------------- entropy quadratic form


def _entropy_quadratic_form(theta: np.ndarray) -> float:
    grad = multinomial_entropy_gradient(theta)
    return float(grad @ fisher_multinomial_inverse(theta) @ grad)


def test_entropy_variance_identity():
    rng = np.random.default_rng(14)
    for _ in range(200):
        k = int(rng.integers(2, 11))
        theta = _interior_theta(rng, k)
        full = np.append(theta, 1.0 - theta.sum())
        var_log = float(np.sum(full * np.log(full) ** 2) - np.sum(full * np.log(full)) ** 2)
        assert _entropy_quadratic_form(theta) == pytest.approx(var_log, abs=1e-8)


def test_entropy_quadratic_form_special_point():
    for k in range(3, 9):
        theta = np.full(k - 1, 1.0 / (3.0 * (k - 1)))
        ref = (2.0 / 9.0) * math.log(2.0 * k - 2.0) ** 2
        assert _entropy_quadratic_form(theta) == pytest.approx(ref, abs=1e-12)


# ------------------------------------------------------------- chain bounds


def test_private_fisher_chain_bound_monte_carlo():
    # X ~ Ber(theta) privatized by binary randomized response; the output
    # score variance estimated by sampling must sit under upsilon * I_X.
    fam = bernoulli_family()
    n_samples = 200_000
    for i, (theta0, eps) in enumerate([(0.2, 0.5), (0.5, 1.0), (0.8, 2.0)]):
        k = randomized_response(2, eps)
        a = k.rows[1, 1]  # P(Z=1 | X=1)
        m = theta0 * a + (1.0 - theta0) * (1.0 - a)
        dm = 2.0 * a - 1.0
        rng = stream(42, i)
        z = rng.random(n_samples) < m
        score = np.where(z, dm / m, -dm / (1.0 - m))
        vals = score**2
        est = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(n_samples)
        i_x = fisher_numeric(fam, np.array([theta0]))[0, 0]
        # theta = 1/2 attains the bound with equality, so allow float noise
        assert est <= upsilon(eps) * i_x + 3.0 * se + 1e-9


def test_private_fisher_bound_scaling():
    info = np.array([[2.0]])
    out = private_fisher_bound(10, 1.0, info)
    assert out[0, 0] == pytest.approx(10 * upsilon(1.0) * 2.0, abs=1e-14)


# ---------------------------------------------------------- bound operations


def test_van_trees_value_and_monotonicity():
    val = van_trees_lb(n=100, eps=1.0, d=2, prior_box=1.0, sup_trace=2.0)
    ref = 4.0 / (100 * upsilon(1.0) * 2.0 + 2.0 * math.pi**2)
    assert val == pytest.approx(ref, abs=1e-14)
    grid_n = [10, 100, 1000]
    vals = [van_trees_lb(n, 1.0, 2, 1.0, 2.0) for n in grid_n]
    assert vals[0] >= vals[1] >= vals[2]
    vals_eps = [van_trees_lb(100, e, 2, 1.0, 2.0) for e in (0.5, 1.0, 2.0)]
    assert vals_eps[0] >= vals_eps[1] >= vals_eps[2]


def test_van_trees_refuses_infinite_inputs_and_saturates_at_finite_extremes():
    # an infinite sup_trace or prior_box left 0 * inf (nan) or 0 / 0 (ZeroDivisionError)
    for args in [(10, 0.0, 2, 1.0, math.inf), (0, 1.0, 2, 1.0, math.inf),
                 (10, 1.0, 2, math.inf, 0.0), (10, 1.0, 2, 1.0, math.nan)]:
        with pytest.raises(FisherError, match="finite"):
            van_trees_lb(*args)
    # the prior term pi^2 / prior_box^2 past a double: the bound is 0, inf or the info term
    assert van_trees_lb(10, 1.0, 2, 1e-200, 0.0) == 0.0
    assert van_trees_lb(10, 1.0, 2, 1e200, 0.0) == math.inf
    assert van_trees_lb(10, 1.0, 2, 1e200, 1.0) == pytest.approx(0.4 / upsilon(1.0), rel=1e-15)


def test_cramer_rao_private_value():
    grad = np.array([1.0, -1.0])
    finv = np.eye(2)
    val = cramer_rao_private_lb(50, 1.0, grad, finv)
    assert val == pytest.approx(2.0 / (50 * upsilon(1.0)), abs=1e-12)
    assert cramer_rao_private_lb(50, 0.0, grad, finv) == math.inf


def test_family_validation():
    with pytest.raises(FisherError):
        multinomial_family(1)
    fam = multinomial_family(3)
    with pytest.raises(FisherError):
        fisher_numeric(fam, np.array([0.6, 0.6]))  # leaves the simplex
