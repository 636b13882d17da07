"""Fisher information and private estimation lower bounds.

The central fact used throughout: observations released through an
eps-LDP channel carry at most ``upsilon(eps)`` times the Fisher
information of the raw data, so ``n`` privatized samples satisfy
``I_Z^n <= n upsilon(eps) I_X`` in the positive-semidefinite order.
Plugging this into the classical van Trees / Cramer-Rao machinery gives
the private lower bounds at the bottom of this module.

``ParametricFamily`` is a small numeric-integration contract: a family
provides log-probabilities, integration nodes/weights whose weighted
sums approximate expectations under the current parameter, and
optionally a closed-form score.  When no score is given it is obtained
by Richardson-extrapolated central differences of the log-density.

The multinomial family (parameterised by the first ``k - 1`` cell
probabilities) gets dedicated closed forms, including the inverse
information matrix ``diag(theta) - theta theta^T`` and the gradient of
the entropy functional, both of which feed the worked entropy example
in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .formulas import upsilon

__all__ = [
    "FisherError",
    "ParametricFamily",
    "multinomial_family",
    "bernoulli_family",
    "gaussian_location_family",
    "fisher_numeric",
    "fisher_multinomial",
    "fisher_multinomial_inverse",
    "multinomial_entropy_gradient",
    "private_fisher_bound",
    "van_trees_lb",
    "cramer_rao_private_lb",
]

WEIGHT_TOL = 1e-8

#: Most Gauss-Hermite nodes :func:`gaussian_location_family` builds (``order ** d``);
#: d <= 4 fits at the default order of 40 (40**4 = 2 560 000 nodes), d = 5 does not.
MAX_HERMITE_NODES = 2**22


class FisherError(ValueError):
    """Invalid input to a Fisher-information computation."""


@dataclass(frozen=True)
class ParametricFamily:
    """Numeric description of a smooth parametric family.

    ``nodes(theta)`` returns points ``xs`` (shape ``(m, ...)``) and
    weights ``ws`` with ``sum(ws) = 1`` such that
    ``E_theta[g(X)] ~= sum_i ws_i g(xs_i)``.  ``log_prob(theta, xs)``
    evaluates log-densities at the points; ``score``, when provided,
    returns the ``(m, dim_theta)`` matrix of log-density gradients.
    """

    dim_theta: int
    log_prob: Callable[[np.ndarray, np.ndarray], np.ndarray]
    nodes: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    score: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


def _check_theta(theta, dim: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.shape != (dim,) or np.any(np.isnan(arr)):
        raise FisherError(f"parameter must be a length-{dim} vector, got shape {arr.shape}")
    return arr


def _check_multinomial_theta(theta) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.ndim != 1 or arr.size == 0 or np.any(np.isnan(arr)):
        raise FisherError("multinomial parameter must be a non-empty 1-d vector")
    if np.any(arr <= 0) or arr.sum() >= 1.0:
        raise FisherError("multinomial parameter must be interior: theta_i > 0, sum < 1")
    return arr


def multinomial_family(k: int) -> ParametricFamily:
    """Multinomial on ``k`` cells, parameterised by the first ``k-1`` masses."""
    if k < 2:
        raise FisherError(f"multinomial needs at least 2 cells, got {k}")
    dim = k - 1

    def pmf(theta: np.ndarray) -> np.ndarray:
        theta = _check_multinomial_theta(theta)
        if theta.size != dim:
            raise FisherError(f"parameter must have length {dim}")
        return np.append(theta, 1.0 - theta.sum())

    def log_prob(theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return np.log(pmf(theta)[np.asarray(xs, dtype=int)])

    def nodes(theta: np.ndarray):
        return np.arange(k), pmf(theta)

    def score(theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        theta = _check_multinomial_theta(theta)
        xs = np.asarray(xs, dtype=int)
        last = 1.0 - theta.sum()
        s = np.zeros((xs.size, dim))
        rows = np.flatnonzero((xs >= 0) & (xs < dim))
        s[rows, xs[rows]] = 1.0 / theta[xs[rows]]
        s[xs == k - 1, :] = -1.0 / last
        return s

    return ParametricFamily(dim_theta=dim, log_prob=log_prob, nodes=nodes, score=score)


def bernoulli_family() -> ParametricFamily:
    """Bernoulli with success probability ``theta`` (multinomial with k=2)."""
    fam = multinomial_family(2)

    # Cell 0 of the 2-cell multinomial carries mass theta; relabel so that
    # x = 1 is the success outcome.
    def log_prob(theta, xs):
        return fam.log_prob(theta, 1 - np.asarray(xs, dtype=int))

    def nodes(theta):
        xs, ws = fam.nodes(theta)
        return xs, ws[::-1].copy()

    def score(theta, xs):
        return fam.score(theta, 1 - np.asarray(xs, dtype=int))

    return ParametricFamily(dim_theta=1, log_prob=log_prob, nodes=nodes, score=score)


def gaussian_location_family(sigma: float, d: int = 1, order: int = 40) -> ParametricFamily:
    """Gaussian location family ``N(theta, sigma^2 I_d)``.

    Expectations are taken with a tensorised Gauss-Hermite rule, which
    is exact for the polynomial integrands appearing in the Fisher
    matrix.  The node grid has ``order ** d`` points; past
    :data:`MAX_HERMITE_NODES` this raises :class:`FisherError` before
    allocating anything.
    """
    sigma = float(sigma)
    if not (sigma > 0 and math.isfinite(sigma)):
        raise FisherError(f"scale must be positive and finite, got {sigma!r}")
    if d < 1 or order < 2:
        raise FisherError("dimension must be >= 1 and quadrature order >= 2")
    if order**d > MAX_HERMITE_NODES:
        raise FisherError(f"a Gauss-Hermite grid of {order}**{d} nodes exceeds the "
                          f"{MAX_HERMITE_NODES}-node limit; lower the dimension or the order")
    pts, wts = np.polynomial.hermite.hermgauss(order)
    wts = wts / math.sqrt(math.pi)

    def nodes(theta: np.ndarray):
        theta = _check_theta(theta, d)
        grids = np.meshgrid(*([pts] * d), indexing="ij")
        xs = np.stack([g.ravel() for g in grids], axis=-1) * (sigma * math.sqrt(2.0)) + theta
        wgrids = np.meshgrid(*([wts] * d), indexing="ij")
        ws = np.ones(xs.shape[0])
        for wg in wgrids:
            ws = ws * wg.ravel()
        return xs, ws

    def log_prob(theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        theta = _check_theta(theta, d)
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        z = (xs - theta) / sigma
        return -0.5 * np.sum(z * z, axis=1) - d * math.log(sigma * math.sqrt(2.0 * math.pi))

    def score(theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        theta = _check_theta(theta, d)
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return (xs - theta) / (sigma * sigma)

    return ParametricFamily(dim_theta=d, log_prob=log_prob, nodes=nodes, score=score)


def _finite_difference_score(fam: ParametricFamily, theta: np.ndarray, xs, step: float = 1e-5):
    """Richardson-extrapolated central differences of the log-density."""

    def central(h: float) -> np.ndarray:
        cols = []
        for i in range(fam.dim_theta):
            e = np.zeros(fam.dim_theta)
            e[i] = h
            cols.append((fam.log_prob(theta + e, xs) - fam.log_prob(theta - e, xs)) / (2.0 * h))
        return np.stack(cols, axis=-1)

    return (4.0 * central(step / 2.0) - central(step)) / 3.0


def fisher_numeric(fam: ParametricFamily, theta) -> np.ndarray:
    """Fisher information matrix ``E[score score^T]`` by numeric integration."""
    theta = _check_theta(theta, fam.dim_theta)
    xs, ws = fam.nodes(theta)
    ws = np.asarray(ws, dtype=float)
    if abs(float(ws.sum()) - 1.0) > WEIGHT_TOL:
        raise FisherError(f"integration weights sum to {float(ws.sum())!r}, expected 1")
    if fam.score is not None:
        s = np.atleast_2d(fam.score(theta, xs))
    else:
        s = np.atleast_2d(_finite_difference_score(fam, theta, xs))
    if s.shape != (ws.size, fam.dim_theta):
        raise FisherError(f"score matrix has shape {s.shape}, expected {(ws.size, fam.dim_theta)}")
    return (s * ws[:, None]).T @ s


def fisher_multinomial(theta) -> np.ndarray:
    """Closed-form information ``diag(1/theta) + (1/theta_k) 11^T``."""
    theta = _check_multinomial_theta(theta)
    last = 1.0 - theta.sum()
    return np.diag(1.0 / theta) + 1.0 / last


def fisher_multinomial_inverse(theta) -> np.ndarray:
    """Closed-form inverse information ``diag(theta) - theta theta^T``."""
    theta = _check_multinomial_theta(theta)
    return np.diag(theta) - np.outer(theta, theta)


def multinomial_entropy_gradient(theta) -> np.ndarray:
    """Gradient of the Shannon entropy of the ``k``-cell multinomial.

    Component ``i`` is ``log(theta_k / theta_i)`` with
    ``theta_k = 1 - sum(theta)``.  Together with the inverse information
    matrix, the induced quadratic form equals ``Var[log P(X)]``.
    """
    theta = _check_multinomial_theta(theta)
    return np.log((1.0 - theta.sum()) / theta)


def private_fisher_bound(n: int, eps: float, fisher_x: np.ndarray) -> np.ndarray:
    """PSD upper bound ``n upsilon(eps) I_X`` on the privatized information."""
    if n < 0:
        raise FisherError(f"sample count must be non-negative, got {n}")
    fx = np.atleast_2d(np.asarray(fisher_x, dtype=float))
    return n * upsilon(eps) * fx


def van_trees_lb(n: int, eps: float, d: int, prior_box: float, sup_trace: float) -> float:
    """Bayesian quadratic-risk lower bound for eps-LDP observations.

    ``d^2 / (n upsilon(eps) sup_trace + d pi^2 / prior_box^2)`` where
    ``sup_trace`` bounds the trace of the per-sample information over
    the prior's support and ``prior_box`` is the side length of the
    prior's box.  Both must be finite: an infinite one leaves the bound
    ``0 * inf`` or ``0 / 0``.  A finite one may still take the bound past a
    double: it is then 0 or ``inf``.
    """
    if n < 0 or d < 1:
        raise FisherError("need n >= 0 and d >= 1")
    if not (0 < prior_box < math.inf and 0 <= sup_trace < math.inf):
        raise FisherError(
            f"need finite prior_box > 0 and sup_trace >= 0, got {prior_box!r} and {sup_trace!r}")
    t = math.pi / prior_box  # t * t saturates where prior_box**2 would raise
    total = n * upsilon(eps) * sup_trace + d * t * t
    return d * d / total if total > 0 else math.inf


def cramer_rao_private_lb(n: int, eps: float, grad: np.ndarray, fisher_inv: np.ndarray) -> float:
    """Cramer-Rao floor for unbiased private estimates of a smooth functional.

    ``grad^T I_X^{-1} grad / (n upsilon(eps))``; infinite when the
    privacy parameter is 0 (the released data carry no information).
    """
    if n < 1:
        raise FisherError(f"sample count must be positive, got {n}")
    g = np.atleast_1d(np.asarray(grad, dtype=float))
    fi = np.atleast_2d(np.asarray(fisher_inv, dtype=float))
    quad = float(g @ fi @ g)
    if quad < 0:
        raise FisherError("inverse information produced a negative quadratic form")
    u = upsilon(eps)
    if u == 0.0:
        return math.inf
    return quad / (n * u)
