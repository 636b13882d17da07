"""Contraction coefficients of channels under privacy constraints.

For a channel ``K`` and an f-divergence ``D_f``, the contraction
coefficient is the worst-case ratio ``D_f(pK || qK) / D_f(p || q)``
over input pairs with ``D_f(p || q) > 0``.  Under an epsilon-LDP
constraint the KL, chi-squared and squared-Hellinger coefficients share
the closed-form ceiling

    upsilon(eps) = ((e^eps - 1) / (e^eps + 1))^2,

strictly below the total-variation ceiling ``(e^eps-1)/(e^eps+1)``.
The companion constant ``psi(eps) = e^{-eps}(e^eps-1)^2`` governs the
chi-squared versus total-variation comparison implemented in
:func:`chi2_tv_bound`.

Three estimators are provided:

* :func:`eta_tv_exact` - the TV coefficient, which on a finite alphabet
  is exactly the maximum TV between two rows;
* :func:`eta_chi2_at` - the input-distribution-dependent chi-squared
  coefficient, a second-singular-value computation;
* :func:`eta_bruteforce` - the largest chi-squared coefficient over input
  pairs supported on two input symbols, reported for KL, chi-squared and
  squared Hellinger alike.  Every pair that can still win, by its
  closed-form ceiling, is refined by Newton steps from ``beta = 1/2`` until
  a concavity bound brackets its supremum to rounding.  The search runs
  once per channel, and later calls for any of the three kinds reuse it
  (the memo is keyed weakly by the channel, whose rows are read-only).

For an operator-convex ``f``, KL and squared Hellinger among them, the
input-free f-contraction coefficient of any channel equals its
chi-squared coefficient: M. Raginsky, "Strong Data Processing
Inequalities and Phi-Sobolev Inequalities for Discrete Channels", IEEE
Trans. Inf. Theory 2016, Thm. 3.3; M.-D. Choi, M. B. Ruskai and
E. Seneta, "Equivalence of certain entropy contraction coefficients",
Linear Algebra Appl. 1994.  Applied to the two-row channel of an input
pair, the pair's KL, chi-squared and H^2 coefficients coincide; each is the
supremum of the pair's local chi-squared curve, at most ``h (1 - h/4)``,
``h`` the rows' squared Hellinger distance (proof in :func:`_chi2_ceiling`).
That the worst input pair can be taken on two input symbols is a separate
claim, and no proof of it is cited here yet; the tests compare the pair
supremum with full-support inputs.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .probability import (
    CHI2,
    H2,
    KL,
    Channel,
    DimensionMismatch,
    DivergenceKind,
    ProbabilityError,
    ProbVector,
)

__all__ = [
    "ContractionError",
    "DegenerateChannelError",
    "ContractionEstimate",
    "EPS_MAX",
    "check_eps",
    "upsilon",
    "psi",
    "eta_tv_exact",
    "eta_chi2_at",
    "eta_bruteforce",
    "chi2_tv_bound",
    "prior_art_bounds",
    "binary_input_kl_bound",
    "extremal_tv_under_ldp",
]

class ContractionError(ValueError):
    """Invalid input to a contraction computation."""


class DegenerateChannelError(ContractionError):
    """Channel with a single input row has no contraction ratio."""


@dataclass(frozen=True)
class ContractionEstimate:
    """Result of a contraction-coefficient computation.

    ``value`` lies in [0, 1].  ``witness_p`` / ``witness_q`` are input
    distributions (approximately) achieving the reported ratio;
    ``method`` records how the value was obtained.
    """

    value: float
    kind: DivergenceKind
    witness_p: ProbVector
    witness_q: ProbVector
    method: str
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise ContractionError(f"contraction value {self.value!r} outside [0, 1]")
        if self.method not in {"exact_tv", "pair_sup"}:
            raise ContractionError(f"unknown estimation method {self.method!r}")


#: Largest privacy parameter accepted: above ``log(DBL_MAX) = 709.78...``
#: the factor ``e^eps`` of every mechanism and constant overflows a double.
EPS_MAX = math.log(np.finfo(float).max)


def check_eps(eps: float, error: type[ValueError] = ContractionError) -> float:
    """``eps`` as a float if ``0 <= eps <= EPS_MAX``, else raise ``error``.

    The one rule for a privacy parameter; each module passes its own error type.
    """
    eps = float(eps)
    if not 0.0 <= eps <= EPS_MAX:
        raise error(f"privacy parameter must lie in [0, {EPS_MAX!r}], got {eps!r}")
    return eps


def upsilon(eps: float) -> float:
    """Shared ceiling for the KL / chi-squared / Hellinger coefficients."""
    eps = check_eps(eps)
    t = math.expm1(eps) / (math.exp(eps) + 1.0)
    return t * t


def psi(eps: float) -> float:
    """Constant ``e^{-eps} (e^eps - 1)^2`` in the chi-squared/TV bound."""
    eps = check_eps(eps)
    em1 = math.expm1(eps)
    if 2.0 * eps > EPS_MAX:  # em1**2 overflows here, psi itself does not
        return em1 * math.exp(-eps) * em1
    return math.exp(-eps) * em1**2


@functools.lru_cache(maxsize=32)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(n, 1)``: the input pairs ``x1 < x2`` in scan order."""
    first, second = np.triu_indices(n, 1)
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


def eta_tv_exact(k: Channel) -> ContractionEstimate:
    """Total-variation contraction coefficient (Dobrushin coefficient).

    Equals the maximum total variation between two rows of the channel;
    the witnesses are point masses on the arg-max pair.
    """
    n = k.n_in
    first, second = _pairs(n)
    tv = 0.5 * np.abs(k.rows[second] - k.rows[first]).sum(axis=1)
    best = 0.0
    bi, bj = 0, min(1, n - 1)
    if tv.size:
        top = int(np.argmax(tv))
        if tv[top] > 0.0:
            best = float(tv[top])
            bi, bj = int(first[top]), int(second[top])
    return ContractionEstimate(
        value=min(best, 1.0),
        kind=DivergenceKind("tv"),
        witness_p=ProbVector.point_mass(bi, n),
        witness_q=ProbVector.point_mass(bj, n),
        method="exact_tv",
    )


def eta_chi2_at(p: ProbVector, k: Channel) -> float:
    """Chi-squared contraction coefficient at input distribution ``p``.

    Computed as the squared second-largest singular value of the matrix
    ``sqrt(p(x)) K(z|x) / sqrt((pK)(z))`` (output symbols of zero mass
    dropped).  ``p`` must have full support.  Tensorizes over product
    channels as the maximum of the per-factor coefficients.
    """
    if p.dim != k.n_in:
        raise DimensionMismatch(
            f"distribution dimension {p.dim} does not match channel input size {k.n_in}"
        )
    if np.any(p.mass <= 0):
        raise ContractionError("input distribution must have full support")
    if k.n_in < 2:
        return 0.0
    out = p.mass @ k.rows
    cols = out > 0
    m = np.sqrt(p.mass)[:, None] * k.rows[:, cols] / np.sqrt(out[cols])
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size < 2:  # one output column carries all the mass: a constant channel
        return 0.0
    return float(np.clip(sv[1] ** 2, 0.0, 1.0))


def _chi2_ceiling(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``h (1 - h/4)`` over the last axis, with ``h = sum_z (sqrt(w_z) - sqrt(v_z))^2``.

    It caps the local chi-squared curve ``f(beta) = beta (1-beta) sum_z u_z^2 / m_z``
    of the rows ``w`` and ``v`` (``u = w - v``, ``m = beta w + (1-beta) v``, terms
    with ``m_z = 0`` dropped), whose supremum is their chi-squared coefficient.
    The identity ``beta (1-beta) u_z^2 = m_z (w_z + v_z) - w_z v_z - m_z^2``,
    divided by ``m_z`` and summed over ``z``, gives ``f(beta) = 1 - sum_z w_z v_z / m_z``.
    Cauchy-Schwarz, ``(sum_z sqrt(w_z v_z))^2 <= sum_z (w_z v_z / m_z) sum_z m_z``,
    then gives ``f <= 1 - (1 - h/2)^2 = h (1 - h/4)``, with equality for binary
    symmetric rows at ``beta = 1/2``.  Each ``sqrt(w_z) - sqrt(v_z)`` is taken as
    ``u_z / (sqrt(w_z) + sqrt(v_z))``: the subtraction cancels on nearly equal rows.
    """
    d = (w - v) / (np.sqrt(w) + np.sqrt(v) + (w + v == 0))  # 0 where both are 0
    h = np.sum(d * d, axis=-1)
    return h * (1.0 - 0.25 * h)


#: Pairs per batch of the first pass in :func:`eta_bruteforce` are capped so
#: that each ``(pairs, n_out)`` temporary holds about this many floats.
_BATCH_FLOATS = 1 << 16

#: A pair is refined until its tangent bound exceeds its value by at most this
#: share of the value, a few thousand roundings; at most ``_NEWTON_STEPS`` steps.
_TANGENT_TOL = 4096 * float(np.finfo(float).eps)
_NEWTON_STEPS = 100
_TINY = float(np.finfo(float).tiny)

#: Distance between the two witness inputs on the winning pair.
_WITNESS_STEP = 1e-3


def _local_curve(w, v, u, pad, beta) -> tuple:
    """``(f, f', f'')`` of each row pair's local chi-squared curve at its ``beta``.

    ``f = beta (1-beta) S1`` and ``f' = (1 - 2 beta) S1 - beta (1-beta) S2`` with
    ``S_j = sum_z u_z^{j+1} / m_z^j``.  ``f'`` is summed term by term as
    ``sum_z (u_z / m_z)^2 ((1-beta)^2 v_z - beta^2 w_z)``, so a zero ``v_z``
    (or ``w_z``) adds ``-w_z`` (or ``v_z``) instead of two terms of order
    ``1/beta`` that cancel.  ``f'' = -2 sum_z w_z v_z u_z^2 / m_z^3 <= 0``, so
    ``f`` is concave.  ``pad`` is 1 where ``w_z = v_z = 0`` (there ``u_z = 0``),
    which keeps ``m_z`` off zero.
    """
    b = beta[:, None]
    m = v + b * u + pad
    q2 = u / m
    q2 *= q2
    f = beta * (1.0 - beta) * np.sum(q2 * m, axis=1)
    slope = np.sum(q2 * ((1.0 - b) ** 2 * v - b * b * w), axis=1)
    bend = -2.0 * np.sum(q2 * (w * v / m), axis=1)
    return f, slope, bend


#: ``{channel: _pair_search(channel)}``.  A ``Channel`` hashes by identity and
#: its rows are read-only, so an entry stays valid while the channel lives; the
#: keys are weak, so no entry keeps a channel alive.  Two threads racing on one
#: channel both search and store equal results.
_SEARCHES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def eta_bruteforce(k: Channel, kind: DivergenceKind, grid_n: object = None) -> ContractionEstimate:
    """Largest chi-squared coefficient over input pairs supported on two symbols.

    For each input pair ``x1 < x2`` with rows ``w = K(x1)``, ``v = K(x2)``
    and binary inputs ``P = (alpha, 1-alpha)``, ``Q = (beta, 1-beta)``, the
    ratio ``chi2(PK || QK) / chi2(P || Q)`` does not depend on ``alpha`` and
    equals the concave curve ``f(beta) = beta (1-beta) sum_z u_z^2 / m_z``
    (``u = w - v``, ``m = beta w + (1-beta) v``; see :func:`_chi2_ceiling`).
    The value is the largest supremum of ``f`` over ``[0, 1]``, the end
    limits ``f(0+) = sum_{v_z = 0} w_z`` and ``f(1-) = sum_{w_z = 0} v_z``
    included.  It is returned for KL, chi-squared and squared Hellinger
    alike: for these the input-free coefficient of a two-row channel equals
    its chi-squared one (module docstring).

    A first pass over every pair, in batches, takes the ceiling
    ``h (1 - h/4)``, ``f(1/2)`` and the end limits.  A pair whose ceiling
    falls below the largest ``f(1/2)`` or end limit over all pairs cannot
    win; the others are refined from ``beta = 1/2`` in the bracket
    ``[0, 1]`` by safeguarded Newton steps on ``f'`` (bisection when a step
    leaves the bracket or slows down).  Concavity gives the tangent bound
    ``f(beta) + |f'(beta)| (hi - lo)`` on the pair's supremum, and refining
    stops once it is within rounding of the value; the largest such bound
    is ``extra["upper"]``.  ``extra["refined"]`` counts the refined pairs.

    ``witness_q`` sits at the best ``beta`` met on the winning pair and
    ``witness_p`` :data:`_WITNESS_STEP` away, so their chi-squared ratio is
    ``f`` there, a little below an end limit that is never attained; at an
    interior peak the first-order terms of the KL and H^2 ratios cancel.

    The search runs once per channel: later calls on the same channel, for
    any of KL, chi-squared and H^2, reuse it and differ only in ``kind``,
    each with its own ``extra`` dict.  The memo relies on ``Channel``'s
    read-only rows and holds no strong reference to ``k``.

    ``grid_n`` is accepted and ignored.  It sized a seeding grid that the
    search no longer has, and callers written for that grid still pass it.
    """
    if kind.tag not in {"kl", "chi2", "h2"}:
        raise ContractionError(f"brute-force search does not support divergence {kind.tag!r}")
    if k.n_in < 2:
        raise DegenerateChannelError("channel with a single input row has no contraction ratio")
    search = _SEARCHES.get(k)
    if search is None:
        search = _SEARCHES[k] = _pair_search(k)
    value, witness_p, witness_q, pair, refined, upper = search
    return ContractionEstimate(
        value=value,
        kind=kind,
        witness_p=witness_p,
        witness_q=witness_q,
        method="pair_sup",
        extra={"pair": pair, "refined": refined, "upper": upper},
    )


def _pair_search(k: Channel) -> tuple:
    """The certified pair search of :func:`eta_bruteforce`, for any of its kinds.

    Returns ``(value, witness_p, witness_q, pair, refined, upper)``.
    """
    rows = k.rows
    first, second = _pairs(k.n_in)
    n_pairs = first.size
    ceiling, half, ends = np.empty((3, n_pairs))
    step = max(1, _BATCH_FLOATS // k.n_out)
    for s in range(0, n_pairs, step):
        w = rows[first[s : s + step]]
        v = rows[second[s : s + step]]
        ceiling[s : s + step] = _chi2_ceiling(w, v)
        # f(1/2) = sum_z u_z^2 / (2 (w_z + v_z)) over w_z + v_z > 0;
        # f(0+) = sum_{v_z = 0} w_z and f(1-) = sum_{w_z = 0} v_z
        total = w + v
        half[s : s + step] = 0.5 * np.sum((w - v) ** 2 / (total + (total == 0)), axis=1)
        ends[s : s + step] = np.maximum((w * (v == 0)).sum(axis=1), (v * (w == 0)).sum(axis=1))

    # A pair whose ceiling is below a value some pair attains cannot win.
    live = np.flatnonzero(~(ceiling * (1.0 + 1e-9) < max(half.max(), ends.max())))
    w, v = rows[first[live]], rows[second[live]]
    u, pad = w - v, (w + v == 0)
    ends = ends[live]
    beta = np.full(live.size, 0.5)
    lo, hi = np.zeros(live.size), np.ones(live.size)
    width = hi - lo
    seen = half[live]  # the largest f met so far, at best_beta
    best_beta = beta
    upper = np.full(live.size, np.inf)
    for _ in range(_NEWTON_STEPS):
        f, slope, bend = _local_curve(w, v, u, pad, beta)
        best_beta = np.where(f > seen, beta, best_beta)
        seen = np.maximum(seen, f)
        rise = slope > 0.0
        lo = np.where(rise, beta, lo)
        hi = np.where(rise, hi, beta)
        # f lies below its tangent at beta, and the supremum lies in [lo, hi]
        upper = np.minimum(upper, f + np.abs(slope) * (hi - lo))
        value = np.maximum(seen, ends)
        if np.all(upper - value <= _TANGENT_TOL * value):
            break
        newton = beta - slope / np.minimum(bend, -_TINY)  # a flat curve bisects
        ok = (newton > lo) & (newton < hi) & (np.abs(newton - beta) <= 0.5 * width)
        nxt = np.where(ok, newton, 0.5 * (lo + hi))
        width = np.abs(nxt - beta)
        beta = nxt

    best = int(np.argmax(value))  # the first pair in scan order attaining it
    x1, x2 = int(first[live[best]]), int(second[live[best]])
    beta_w = float(best_beta[best])
    alpha_w = beta_w + _WITNESS_STEP if beta_w + _WITNESS_STEP <= 1.0 else beta_w - _WITNESS_STEP

    def embed(alpha: float) -> ProbVector:
        m = np.zeros(k.n_in)
        m[x1] = alpha
        m[x2] = 1.0 - alpha
        return ProbVector(m)

    top = float(np.clip(value[best], 0.0, 1.0))
    return (top, embed(alpha_w), embed(beta_w), (x1, x2), int(live.size),
            min(max(float(np.max(upper)), top), 1.0))


def chi2_tv_bound(eps: float, tv: float) -> float:
    """Upper bound ``psi(eps) * min(4 tv^2, tv)`` on output chi-squared.

    ``tv`` is the total variation between the two input distributions;
    the bound applies to the chi-squared divergence between their
    privatized versions under any eps-LDP channel.
    """
    eps = check_eps(eps)
    tv = float(tv)
    if not 0.0 <= tv <= 1.0:
        raise ContractionError(f"total variation must lie in [0, 1], got {tv!r}")
    return psi(eps) * min(4.0 * tv * tv, tv)


def prior_art_bounds(eps: float, tv: float) -> dict[str, float]:
    """Earlier comparison bounds for the same privatized-divergence question.

    Returns the KL-type bound ``min(4, e^{2 eps}) (e^eps - 1)^2 tv^2``
    and the TV-type bound ``4 (e^{eps^2} - 1) tv^2``.  A value beyond the
    range of a double is ``inf``; both are 0 at ``tv = 0``.
    """
    eps = check_eps(eps)
    tv = float(tv)
    if not 0.0 <= tv <= 1.0:
        raise ContractionError(f"total variation must lie in [0, 1], got {tv!r}")
    if tv == 0.0:
        return {"kl_quadratic": 0.0, "tv_quadratic": 0.0}
    em1 = math.expm1(eps)
    # saturate rather than overflow; e^{2 eps} > 4 once eps > 1, so capping it there
    # leaves the min unchanged
    em1_sq = math.expm1(eps * eps) if eps * eps <= EPS_MAX else math.inf
    return {
        "kl_quadratic": min(4.0, math.exp(2.0 * min(eps, 1.0))) * em1 * em1 * tv * tv,
        "tv_quadratic": 4.0 * em1_sq * tv * tv,
    }


def binary_input_kl_bound(k: Channel) -> float:
    """KL contraction ceiling for a binary-input channel.

    Equals ``h (1 - h / 4)`` where ``h`` is the squared Hellinger
    distance between the two rows.  It caps the channel's chi-squared
    coefficient (proof in :func:`_chi2_ceiling`), and hence its KL one.
    """
    if k.n_in != 2:
        raise ContractionError(f"bound requires a binary-input channel, got {k.n_in} rows")
    return float(_chi2_ceiling(k.rows[0], k.rows[1]))


def extremal_tv_under_ldp(eps: float) -> float:
    """Largest total variation achievable between two rows of an eps-LDP channel.

    Evaluates ``e^{-eps}(e^eps - 1)^2 / (e^eps - e^{-eps})``, which
    simplifies to ``(e^eps - 1)/(e^eps + 1)``.
    """
    eps = check_eps(eps)
    return math.expm1(eps) / (math.exp(eps) + 1.0)
