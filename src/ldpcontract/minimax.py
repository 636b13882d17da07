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
bound can be cross-checked.  The integral of a member takes one row of
sines per (binade, parity) class of half-cells, ``2(b + 1)`` rows for
``2^(b+1)`` half-cells, and equals the plain rule bit for bit.
"""

from __future__ import annotations

import functools
import math
import sys
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


def _gauss_legendre(f, edges, order: int = 64) -> float:
    """Gauss-Legendre over the cells between consecutive ``edges``.

    Each cell is split at its midpoint (handling one kink per cell), and
    ``f`` is called once on every node.  The rule for ``order`` is built
    once and cached.
    """
    nodes, weights = _leggauss(order)
    edges = np.asarray(edges, dtype=float)
    knots = np.empty(2 * edges.size - 1)
    knots[::2] = edges
    knots[1::2] = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(knots)[:, None]
    return float(np.sum(half * weights * f(half * nodes + (knots[:-1, None] + half))))


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
        """``ell_q`` norm of the bump, by quadrature.

        Where ``|g|^q`` under- or overflows, so its integral is not a normal
        double, the quadrature is redone as ``m (int (|g| / m)^q)^(1/q)``,
        ``m`` the largest ``|g|`` at a node, whose term is then exactly 1.
        """
        if not math.isfinite(q):
            raise BoundError(f"norm order must be finite, got {q!r}")
        if q < 1.0:
            raise BoundError(f"norm order must satisfy q >= 1, got {q!r}")
        with np.errstate(over="ignore"):
            val = _gauss_legendre(lambda xs: np.abs(self.g(xs)) ** q, [0.0, 1.0])
        if sys.float_info.min <= val < math.inf:
            return val ** (1.0 / q)
        top = []  # the largest |g| at a node, whose scaled term is 1: no underflow

        def scaled(xs):
            top.append(np.max(mag := np.abs(self.g(xs))))
            return (mag / top[0]) ** q

        val = _gauss_legendre(scaled, [0.0, 1.0])
        return float(top[0]) * val ** (1.0 / q)

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

    def density(self, theta, x) -> np.ndarray:
        """Evaluate ``f_theta`` pointwise; it is exactly 1 at a finite ``x`` off [0, 1]."""
        theta = self._check_theta(theta)
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise BoundError("density points must be finite")
        # f is 1 off [0, 1]; clipping far points keeps 2^b x and its cast in range
        t = np.ldexp(np.clip(x, -1.0, 2.0), self.b)  # 2^b x
        k = np.floor(t)
        coef = np.concatenate(([0.0], self.gamma * theta, [0.0]))  # 0 on cells 0 and N + 1
        coef = np.take(coef, k.astype(np.intp), mode="clip")
        return 1.0 + coef * self._bump(t, k)

    def density_integral(self, theta) -> float:
        """Quadrature of ``f_theta`` over [0, 1] (should be 1).

        Bit for bit ``_gauss_legendre`` of ``density`` over the ``2^b``
        cells, with one row of sines per class of half-cells, not one per
        half-cell.  Half-cell ``r`` has nodes ``x = h node + (2r + 1) h``,
        ``h = 2^-(b+2)``, so ``t = 2^b x = fl(2r + 1 + node) / 4``.  As
        ``2r + 1`` is whole, that sum rounds ``node`` to the spacing of the
        binade of ``2r + 1`` alone (ties to even too), and ``t - r // 2``
        is exact: the bump depends only on that binade and the parity of
        ``r``.  Cells ``[2^i, 2^(i+1))`` share the two rows of cell
        ``2^i``, cell 0 has its own: ``2(b + 1)`` rows while ``2r + 1 <
        2^52``.  They are repeated, scaled by ``gamma theta_k`` (0 on cell
        0), shifted by 1 and weighted in place, and summed once.
        """
        theta = self._check_theta(theta)
        nodes, weights = _leggauss(64)
        h = math.ldexp(1.0, -(self.b + 2))
        first = np.array([0] + [2**i for i in range(self.b)])[:, None, None]  # a class's first cell
        mid = (4 * first + np.array([[1], [3]])) * h  # (2r + 1) h on both halves of the cell
        rows = self._bump(np.ldexp(h * nodes + mid, self.b), first)
        terms = np.repeat(rows, np.diff(first[:, 0, 0], append=2**self.b), axis=0)
        terms *= np.concatenate(([0.0], self.gamma * theta))[:, None, None]
        terms += 1.0
        terms *= h * weights
        return float(np.sum(terms))

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
