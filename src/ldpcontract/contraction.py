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
* :func:`eta_bruteforce` - a grid search over binary input mixtures
  supported on every pair of input symbols, valid for any of the three
  nonlinear divergences.  Restricting to binary inputs is lossless for
  these coefficients because the worst-case pair can always be taken to
  be mixtures of two rows.  That restriction is a separate claim from the
  one below, and no proof of it is cited here yet.

For an operator-convex ``f``, KL and squared Hellinger among them, the
input-free f-contraction coefficient of any channel equals its
chi-squared coefficient: M. Raginsky, "Strong Data Processing
Inequalities and Phi-Sobolev Inequalities for Discrete Channels", IEEE
Trans. Inf. Theory 2016, Thm. 3.3; M.-D. Choi, M. B. Ruskai and
E. Seneta, "Equivalence of certain entropy contraction coefficients",
Linear Algebra Appl. 1994.  Applied to the two-row channel of an input
pair, the pair's KL and H^2 ratios never exceed its chi-squared
coefficient, the supremum of its local chi-squared curve; that is at most
``h (1 - h/4)``, ``h`` the rows' squared Hellinger distance (proof in
:func:`_chi2_ceiling`).  :func:`eta_bruteforce` prunes on this ceiling.
"""

from __future__ import annotations

import functools
import math
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

#: Input pairs whose divergence falls below this are skipped by the
#: brute-force ratio search (the ratio is ill-conditioned there; the
#: coincidence limit is covered separately by the local chi-squared
#: probe).
RATIO_FLOOR = 1e-12


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
        if self.method not in {"exact_tv", "grid"}:
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
    return float(np.clip(sv[1] ** 2, 0.0, 1.0))


def _binary_input_divergences(g: np.ndarray, kind_tag: str) -> np.ndarray:
    """Matrix ``D(Ber(g_a) || Ber(g_b))`` over a grid ``g`` in (0, 1), for KL or H^2."""
    if kind_tag == "kl":
        a = g[:, None]
        lg = np.log(g)
        l1g = np.log1p(-g)
        return a * (lg[:, None] - lg[None, :]) + (1.0 - a) * (l1g[:, None] - l1g[None, :])
    if kind_tag == "h2":
        sg = np.sqrt(g)
        s1g = np.sqrt(1.0 - g)
        return 2.0 - 2.0 * (sg[:, None] * sg[None, :] + s1g[:, None] * s1g[None, :])
    raise ContractionError(f"no binary input divergence matrix for {kind_tag!r}")


@functools.lru_cache(maxsize=16)
def _input_grid(grid_n: int, kind_tag: str) -> tuple:
    """Read-only grid data for one grid size and divergence.

    Returns ``(g, in_div, skip, min_in)``: the grid, the binary input
    divergences, the ``in_div < RATIO_FLOOR`` mask and the smallest input
    divergence outside the mask.  The chi-squared search reads only the
    grid, so for it the other three are ``None``.
    """
    g = np.arange(1, grid_n + 1, dtype=float) / (grid_n + 1)
    g.setflags(write=False)
    if kind_tag == "chi2":
        return g, None, None, None
    in_div = _binary_input_divergences(g, kind_tag)
    skip = in_div < RATIO_FLOOR
    in_div.setflags(write=False)
    skip.setflags(write=False)
    return g, in_div, skip, float(in_div[~skip].min(initial=math.inf))


def _chi2_ceiling(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``h (1 - h/4)`` over the last axis, with ``h = sum_z (sqrt(w_z) - sqrt(v_z))^2``.

    It caps the local chi-squared curve ``f(beta) = beta (1-beta) sum_z u_z^2 / m_z``
    of the rows ``w`` and ``v`` (``u = w - v``, ``m = beta w + (1-beta) v``, terms
    with ``m_z = 0`` dropped), whose supremum is their chi-squared coefficient.
    The identity ``beta (1-beta) u_z^2 = m_z (w_z + v_z) - w_z v_z - m_z^2``,
    divided by ``m_z`` and summed over ``z``, gives ``f(beta) = 1 - sum_z w_z v_z / m_z``.
    Cauchy-Schwarz, ``(sum_z sqrt(w_z v_z))^2 <= sum_z (w_z v_z / m_z) sum_z m_z``,
    then gives ``f <= 1 - (1 - h/2)^2 = h (1 - h/4)``, with equality for binary
    symmetric rows at ``beta = 1/2``.
    """
    d = np.sqrt(w) - np.sqrt(v)
    h = np.sum(d * d, axis=-1)
    return h * (1.0 - 0.25 * h)


#: Pairs per batch in :func:`eta_bruteforce` are capped so that each
#: ``(pairs, grid, n_out)`` temporary holds about this many floats.
_BATCH_FLOATS = 1 << 18

_EPS_MACH = float(np.finfo(float).eps)


def eta_bruteforce(k: Channel, kind: DivergenceKind, grid_n: int = 201) -> ContractionEstimate:
    """Grid lower estimate of a nonlinear contraction coefficient.

    Sweeps binary input mixtures supported on each pair of input
    symbols: ``P = (alpha, 1-alpha)`` and ``Q = (beta, 1-beta)`` over a
    uniform open grid ``i / (grid_n + 1)``.  Pairs whose input
    divergence falls below :data:`RATIO_FLOOR` are skipped; the
    coincident limit ``Q -> P`` is covered by the local chi-squared
    ratio, which is evaluated on the same grid and included as a
    candidate for every divergence kind.  The estimate is monotone
    nondecreasing under nested grid refinement, up to the rounding-noise
    cells skipped below.

    The local curve ``f(beta) = beta (1-beta) sum_z u_z^2 / (v_z + beta u_z)``
    (``u = K(x1) - K(x2)``, ``v = K(x2)``) is evaluated for all pairs at
    once.  Its supremum, the pair's chi-squared coefficient, caps the pair's
    KL and H^2 ratios and is at most ``U_p = h (1 - h/4)``, ``h`` the rows'
    squared Hellinger distance (:func:`_chi2_ceiling`).  A KL or H^2 ratio
    surface (``grid_n x grid_n``) is built only for a pair with
    ``U_p + tau_p / min_in`` at or above the best local value ``L`` seen
    so far, where ``tau_p`` bounds the rounding of one output-divergence
    cell and ``min_in`` is the smallest input divergence on the grid.
    A pruned surface could only have reported less than ``L``, so the
    result is the one a search over every surface would return.  Surface
    cells whose output divergence is below ``1024 tau_p`` are skipped like
    the coincident cells: there cancellation, not the channel, sets the
    computed ratio.
    ``extra["surfaces"]`` counts the surfaces built.
    """
    if kind.tag not in {"kl", "chi2", "h2"}:
        raise ContractionError(f"brute-force search does not support divergence {kind.tag!r}")
    if grid_n < 3:
        raise ContractionError("grid_n must be at least 3")
    if k.n_in < 2:
        raise DegenerateChannelError("channel with a single input row has no contraction ratio")

    g, in_div, skip, min_in = _input_grid(grid_n, kind.tag)
    rows = k.rows
    n_out = k.n_out
    first, second = _pairs(k.n_in)
    n_pairs = first.size
    # Candidates in search order: pair p's local value at 2p, its surface at 2p + 1.
    cand = np.full(2 * n_pairs, -1.0)
    cand_ab = np.zeros((2 * n_pairs, 2), dtype=np.intp)
    lin_outer = np.empty((grid_n, grid_n)) if kind.tag == "kl" else None
    level = -1.0
    surfaces = 0
    step = max(1, _BATCH_FLOATS // (grid_n * n_out))
    for s in range(0, n_pairs, step):
        w = rows[first[s : s + step]]
        v = rows[second[s : s + step]]
        u = w - v
        mix = v[:, None, :] + g[:, None] * u[:, None, :]  # mix[p, a] is PK for alpha = g_a

        # Local (coincident-pair) chi-squared ratio: for binary mixtures the
        # chi-squared output/input ratio is independent of alpha and equals
        # beta (1 - beta) * sum_z u_z^2 / mix_{beta, z}.
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(mix > 0, u[:, None, :] ** 2 / mix, 0.0)
        local = g * (1.0 - g) * terms.sum(axis=2)
        at = slice(2 * s, 2 * (s + u.shape[0]), 2)
        cand[at] = local.max(axis=1)
        cand_ab[at] = np.argmax(local, axis=1)[:, None]
        if kind.tag == "chi2":
            # The local curve *is* the full (alpha, beta) ratio surface.
            continue
        level = max(level, float(cand[at].max()))

        # Rounding bound of one output-divergence cell.  A KL cell sums
        # m log m and log m (v + |u|) over z; m_z <= v_z + |u_z|, and since m_z
        # is linear in beta, |log m_z| peaks at an end of the grid.  An H^2 cell
        # is 2 - 2 sum_z sqrt(m_a m_b), of magnitude at most 2.
        if kind.tag == "kl":
            end_logs = np.abs(np.log(np.maximum(mix[:, [0, -1]], 1e-300))).max(axis=1)
            scale = 2.0 * (end_logs * (v + np.abs(u))).sum(axis=1)
        else:
            scale = np.full(u.shape[0], 2.0)
        tau = 16.0 * (n_out + 4) * _EPS_MACH * scale

        # A surface ratio exceeds its pair's bound only by rounding, tau / min_in at
        # most, so a pruned surface would have stayed below a local value already seen.
        bound = _chi2_ceiling(w, v) * (1.0 + 1e-9)
        for j in np.flatnonzero(~(bound + tau / min_in < level)):
            if kind.tag == "kl":
                m = mix[j]
                logm = np.where(m > 0, np.log(np.maximum(m, 1e-300)), 0.0)
                self_term = (m * logm).sum(axis=1)
                const_term = logm @ v[j]
                lin_term = logm @ u[j]
                out_div = np.subtract.outer(self_term, const_term)
                out_div -= np.multiply.outer(g, lin_term, out=lin_outer)
            else:
                root = np.sqrt(mix[j])
                out_div = root @ root.T
                out_div *= -2.0
                out_div += 2.0
            noise = out_div < 1024.0 * tau[j]
            noise |= skip

            # out_div becomes the ratio surface, with skipped cells at -1
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(out_div, in_div, out=out_div)
            np.copyto(out_div, -1.0, where=noise)
            flat = int(np.argmax(out_div))
            cand[2 * (s + j) + 1] = out_div.flat[flat]
            cand_ab[2 * (s + j) + 1] = divmod(flat, grid_n)
            surfaces += 1

    # the first candidate attaining the maximum, as a sequential scan would pick
    best = int(np.argmax(cand))
    x1, x2 = int(first[best // 2]), int(second[best // 2])
    a, b = (int(i) for i in cand_ab[best])

    def embed(alpha: float) -> ProbVector:
        m = np.zeros(k.n_in)
        m[x1] = alpha
        m[x2] = 1.0 - alpha
        return ProbVector(m)

    beta_w = g[b]
    alpha_w = g[a] if a != b else (g[a + 1] if a + 1 < grid_n else g[a - 1])
    return ContractionEstimate(
        value=float(np.clip(cand[best], 0.0, 1.0)),
        kind=kind,
        witness_p=embed(float(alpha_w)),
        witness_q=embed(float(beta_w)),
        method="grid",
        extra={"grid_n": grid_n, "pair": (x1, x2), "surfaces": surfaces},
    )


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
