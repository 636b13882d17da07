"""Private minimax risk bounds and the supporting constructions.

Every bound here is a pointwise-evaluable formula in the problem
parameters and the two privacy constants ``upsilon(eps)`` and
``psi(eps)``.  Lower bounds come from private versions of the classical
reduction machinery (two-point / Le Cam, Assouad, mutual-information,
van Trees).  :func:`hadamard_ub` is the paper's Table 1 rate for the
Hadamard response, up to a universal constant; it is not an upper bound
on the risk of :func:`~ldpcontract.mechanisms.hadamard_estimate`.
Functions return plain floats; the
:class:`BoundReport` container groups several named values for
serialization and checks that lower bounds never exceed their matching
upper bounds.  These scalar formulas live in the math-only
:mod:`~ldpcontract.formulas` and are re-exported here.

The density-estimation lower bound needs an explicit packing of Holder
densities; :func:`density_packing_build` materialises the standard
perturbed-uniform family ``f_theta = 1 + gamma * sum_k theta_k g_k``
with dyadically rescaled copies of a single sine bump, sized so every
member stays a valid density in the Holder ball.  The bump's Holder
constant and ``ell_1`` norm are closed forms; the densities' integrals,
the bump's ``ell_q`` norms and the neighbour total variation are
computed by Gauss-Legendre quadrature so the closed forms used in the
bound can be cross-checked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .formulas import (  # re-exported: the scalar bounds live in the math-only module
    BoundEntry, BoundError, BoundReport, _check_frac, _n_psi_power, _pos_int, assouad_lb,
    bht_sample_complexity, density_estimation_lb, distribution_estimation_lb,
    entropy_estimation_lb, gaussian_location_lb, gaussian_location_table1, hadamard_ub,
    le_cam_lb, le_cam_prior_lb, log_unit_ball_volume_l2, mim_lb, psi)

__all__ = [
    "BoundError",
    "BoundEntry",
    "BoundReport",
    "le_cam_lb",
    "le_cam_prior_lb",
    "entropy_estimation_lb",
    "assouad_lb",
    "distribution_estimation_lb",
    "hadamard_ub",
    "density_estimation_lb",
    "DensityPacking",
    "density_packing_build",
    "packing_neighbor_tv",
    "mim_lb",
    "gaussian_location_lb",
    "gaussian_location_table1",
    "log_unit_ball_volume_l2",
    "bht_sample_complexity",
]


class InfeasiblePackingError(BoundError):
    """No valid packing exists for the requested parameters."""


def _unit_bump_holder_constant(beta: float) -> float:
    """Holder-beta constant of ``sin(2 pi x)`` on [0, 1].

    ``|sin 2 pi (x + d) - sin 2 pi x| = 2 sin(pi d) |cos(2 pi x + pi d)|``
    peaks at ``x = (1 - d) / 2``, so the constant is
    ``sup_{d in (0, 1]} 2 sin(pi d) / d^beta``.  At ``beta = 1`` that is
    the limit ``2 pi`` as ``d -> 0``; below 1 the supremum sits at the
    root of ``beta sin(t) = t cos(t)``, ``t = pi d`` in ``(0, pi/2)``.
    """
    if beta >= 1.0:
        return 2.0 * math.pi
    # h(t) = beta sin t - t cos t is convex on (0, pi/2) with h(pi/2) = beta > 0,
    # so Newton steps from pi/2 decrease monotonically to the root.
    t = 0.5 * math.pi
    while (h := beta * math.sin(t) - t * math.cos(t)) > 0.0:
        t_next = t - h / ((beta - 1.0) * math.cos(t) + t * math.sin(t))
        if not t_next < t:
            break
        t = t_next
    return 2.0 * math.sin(t) * (t / math.pi) ** -beta


@functools.lru_cache(maxsize=8)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1] for one order."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


#: Most quadrature nodes ``f`` sees in one call; bounds the temporaries of ``f``.
_BLOCK_NODES = 4096


def _gauss_legendre(f, edges, order: int = 64) -> float:
    """Gauss-Legendre over the cells between consecutive ``edges``.

    Each cell is split at its midpoint (handling one kink per cell).
    The rule for ``order`` is built once and cached.  ``f`` is called on
    blocks of at most ``_BLOCK_NODES // order`` whole cells, so its
    temporaries stay bounded however many cells there are; each block's
    weighted values fill its rows of one ``(cells, order)`` array, summed
    once at the end, so the result does not depend on the block size.
    """
    nodes, weights = _leggauss(order)
    edges = np.asarray(edges, dtype=float)
    knots = np.empty(2 * edges.size - 1)
    knots[::2] = edges
    knots[1::2] = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(knots)[:, None]
    mid = knots[:-1, None] + half
    terms = np.empty((half.shape[0], order))
    step = max(1, _BLOCK_NODES // order)
    for lo in range(0, half.shape[0], step):
        h = half[lo : lo + step]
        terms[lo : lo + step] = h * weights * f(h * nodes + mid[lo : lo + step])
    return float(np.sum(terms))


@dataclass(frozen=True)
class DensityPacking:
    """Perturbed-uniform packing of Holder densities on [0, 1].

    Members are ``f_theta(x) = 1 + gamma sum_k theta_k g_k(x)`` for
    ``theta`` in the ``N``-cube, where ``g_k(x) = 2^{b/2} g(2^b x - k)``
    and ``g(x) = amplitude * sin(2 pi x)`` on [0, 1].  The amplitude is
    the largest keeping every member non-negative and inside the
    ``(beta, L)`` Holder ball.
    """

    beta: float
    L: float
    gamma: float
    b: int
    N: int
    amplitude: float
    g_l1: float
    g_sup: float
    g_holder: float

    def g(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = self.amplitude * np.sin(2.0 * math.pi * x)
        return np.where((x >= 0.0) & (x <= 1.0), out, 0.0)

    def g_norm(self, q: float) -> float:
        """``ell_q`` norm of the bump, by quadrature."""
        if q < 1.0:
            raise BoundError(f"norm order must satisfy q >= 1, got {q!r}")
        val = _gauss_legendre(lambda xs: np.abs(self.g(xs)) ** q, [0.0, 1.0])
        return val ** (1.0 / q)

    def _check_theta(self, theta) -> np.ndarray:
        arr = np.asarray(theta, dtype=float)
        if arr.shape != (self.N,) or np.any(np.isnan(arr)):
            raise BoundError(f"theta must be a length-{self.N} vector in [0, 1]^N")
        if np.any(arr < 0) or np.any(arr > 1):
            raise BoundError("theta entries must lie in [0, 1]")
        return arr

    def _bump(self, t, k) -> np.ndarray:
        """``g_k`` at ``t = 2^b x``, without the mask to cell ``k``."""
        return 2.0 ** (self.b / 2.0) * self.amplitude * np.sin(2.0 * math.pi * (t - k))

    def _density(self, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``f_theta(x)`` for a checked ``theta`` and ``x`` in [-1, 2]."""
        t = np.ldexp(x, self.b)  # 2^b x
        k = np.floor(t).astype(int)
        inside = (k >= 1) & (k <= self.N)
        k_safe = np.clip(k, 1, self.N)
        return 1.0 + np.where(inside, self.gamma * theta[k_safe - 1] * self._bump(t, k_safe), 0.0)

    def density(self, theta, x) -> np.ndarray:
        """Evaluate ``f_theta`` pointwise; it is exactly 1 at a finite ``x`` off [0, 1]."""
        theta = self._check_theta(theta)
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise BoundError("density points must be finite")
        # f is 1 off [0, 1]; clipping far points keeps 2^b x and its cast in range
        return self._density(theta, np.clip(x, -1.0, 2.0))

    def density_integral(self, theta) -> float:
        """Quadrature of ``f_theta`` over [0, 1] (should be 1)."""
        theta = self._check_theta(theta)
        edges = np.ldexp(np.arange(2**self.b + 1, dtype=float), -self.b)
        return _gauss_legendre(lambda xs: self._density(theta, xs), edges)

    def neighbor_tv_closed_form(self) -> float:
        """TV between members differing in one coordinate:
        ``(gamma / 2) 2^{-b/2} ||g||_1``."""
        return 0.5 * self.gamma * 2.0 ** (-self.b / 2.0) * self.g_l1


def density_packing_build(beta: float, L: float, n: int, eps: float) -> DensityPacking:
    """Construct the packing used by the density-estimation lower bound.

    The resolution ``b`` and perturbation size ``gamma`` follow the
    effective sample size ``n psi(eps)``; the bump amplitude is chosen
    maximal subject to non-negativity of every member and membership in
    the ``(beta, L)`` Holder ball.
    """
    n = _pos_int(n, "sample count")
    beta = float(beta)
    L = float(L)
    if not 0.0 < beta <= 1.0:
        raise BoundError(f"smoothness must lie in (0, 1], got {beta!r}")
    if not L > 0.0:
        raise BoundError(f"Holder radius must be positive, got {L!r}")
    p = psi(eps)
    np_eff = n * p
    if np_eff < 1.0:
        raise InfeasiblePackingError(
            f"effective sample size n psi(eps) = {np_eff!r} below 1; no packing scale exists"
        )
    b = max(1, round(math.log2(_n_psi_power(n, p, 1.0 / (2.0 * beta + 2.0)) + 1.0)))
    N = 2**b - 1
    gamma = _n_psi_power(n, p, -(2.0 * beta + 1.0) / (2.0 * (2.0 * beta + 2.0)))

    unit_holder = _unit_bump_holder_constant(beta)
    amp_nonneg = 1.0 / (gamma * 2.0 ** (b / 2.0))
    amp_holder = L / (gamma * 2.0 ** (b * (beta + 0.5)) * unit_holder)
    amplitude = min(amp_nonneg, amp_holder)
    if not amplitude > 0.0:
        raise InfeasiblePackingError("constraints admit no positive bump amplitude")

    g_l1 = amplitude * 2.0 / math.pi  # ||sin 2 pi x||_1 on [0, 1]
    return DensityPacking(
        beta=beta,
        L=L,
        gamma=gamma,
        b=b,
        N=N,
        amplitude=amplitude,
        g_l1=g_l1,
        g_sup=amplitude,
        g_holder=amplitude * unit_holder,
    )


def packing_neighbor_tv(pk: DensityPacking, k: int = 1) -> float:
    """Quadrature TV between packing members differing in coordinate ``k``.

    The members ``theta = e_k`` and ``theta = 0`` differ by ``gamma g_k`` on
    cell ``k`` alone, so only that cell is evaluated: in its own coordinate
    ``t = 2^b x - k`` over [0, 1], scaled by the cell width ``2^-b``.  Every
    cell keeps its nodes however fine the packing, and memory does not grow
    with ``N``.
    """
    if not 1 <= k <= pk.N:
        raise BoundError(f"coordinate must lie in 1..{pk.N}, got {k}")
    cell = _gauss_legendre(lambda t: np.abs(pk.gamma * pk._bump(t, 0)), [0.0, 1.0])
    return math.ldexp(0.5 * cell, -pk.b)
