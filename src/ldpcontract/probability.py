"""Finite-alphabet probability vectors, channels, and f-divergences.

Everything downstream builds on the two value types defined here:

``ProbVector``
    an immutable probability distribution on a finite alphabet, and
``Channel``
    a row-stochastic matrix mapping an input alphabet to an output
    alphabet, stored row-major (one conditional distribution per input
    symbol).

The divergence zoo covers the f-divergences used by the contraction and
minimax machinery: Kullback-Leibler, total variation, chi-squared,
squared Hellinger, and the hockey-stick family ``E_gamma``.  All follow
the usual conventions ``0 * f(0/0) = 0`` and, for KL / chi-squared,
``+inf`` whenever the first argument puts mass where the second has
none.

Two routines reconstruct the squared Hellinger and chi-squared
divergences from the hockey-stick curve.  They exist so the curve
representation can be cross-checked against the closed forms.  The
curves are piecewise linear in ``gamma`` with kinks at the likelihood
ratios, so each piece times ``gamma^{-3/2}`` or ``gamma^{-3}`` is
integrated exactly from the curve values at its two ends; beyond the
largest ratio the curves are constant and the unbounded tail, when
present, is added in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProbabilityError",
    "DimensionMismatch",
    "ProbVector",
    "Channel",
    "DivergenceKind",
    "KL",
    "TV",
    "CHI2",
    "H2",
    "hockey_stick_kind",
    "push_forward",
    "divergence",
    "hockey_stick",
    "hellinger_via_eg_quadrature",
    "chi2_via_eg_quadrature",
]

#: Largest tolerated drift of a mass vector away from total mass 1.
#: Anything within this is silently renormalised; anything beyond is an
#: input error, not numerical noise.
MASS_DRIFT_LIMIT = 1e-9

#: Rows per batch of a ``(rows, n)`` temporary are capped so that it holds about this
#: many floats: the kinks of :func:`_eg_at_kinks`, the row pairs of ``contraction``.
_BATCH_FLOATS = 1 << 16


class ProbabilityError(ValueError):
    """Invalid probability data (negative mass, bad total, NaN, ...)."""


class DimensionMismatch(ProbabilityError):
    """Operands with incompatible alphabet sizes."""


def _normalised_rows(arr: np.ndarray, name) -> np.ndarray:
    """Check every row of a 2-d array as a mass vector, in one array pass.

    ``name(i)`` labels row ``i`` in the error raised for the first bad
    row.  Returns the rows renormalised to total mass 1.
    """
    totals = arr.sum(axis=1)
    # NaN fails ``>= 0``, so this one test flags NaN, negative mass and bad totals
    bad = ~((arr >= 0).all(axis=1) & (np.abs(totals - 1.0) <= MASS_DRIFT_LIMIT))
    if bad.any():
        i = int(np.argmax(bad))
        if np.isnan(arr[i]).any():
            raise ProbabilityError(f"{name(i)} contains NaN")
        if (arr[i] < 0).any():
            raise ProbabilityError(f"{name(i)} contains negative mass")
        raise ProbabilityError(
            f"{name(i)} has total mass {float(totals[i])!r}, beyond drift limit {MASS_DRIFT_LIMIT}"
        )
    return arr / totals[:, None]


def _as_mass(values, *, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ProbabilityError(f"{what} must be a non-empty 1-d array")
    arr = _normalised_rows(arr[None, :], lambda _: what)[0]
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ProbVector:
    """Probability distribution on ``{0, ..., dim-1}``.

    The mass vector is validated on construction: entries must be
    non-negative and sum to 1 up to :data:`MASS_DRIFT_LIMIT`; the stored
    array is renormalised and read-only.
    """

    mass: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mass", _as_mass(self.mass, what="probability vector"))

    @property
    def dim(self) -> int:
        return int(self.mass.size)

    def support(self) -> np.ndarray:
        """Indices carrying strictly positive mass."""
        return np.flatnonzero(self.mass > 0)

    @staticmethod
    def point_mass(index: int, dim: int) -> "ProbVector":
        if not 0 <= index < dim:
            raise ProbabilityError(f"point mass index {index} outside alphabet of size {dim}")
        m = np.zeros(dim)
        m[index] = 1.0
        return ProbVector(m)

    @staticmethod
    def uniform(dim: int) -> "ProbVector":
        if dim <= 0:
            raise ProbabilityError("alphabet size must be positive")
        return ProbVector(np.full(dim, 1.0 / dim))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProbVector({self.mass.tolist()!r})"


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic matrix ``K[z | x]`` with one row per input symbol."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.rows, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ProbabilityError("channel must be a non-empty 2-d array")
        validated = _normalised_rows(arr, lambda i: f"channel row {i}")
        validated.setflags(write=False)
        object.__setattr__(self, "rows", validated)

    @property
    def n_in(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_out(self) -> int:
        return int(self.rows.shape[1])

    def row(self, x: int) -> ProbVector:
        if not 0 <= x < self.n_in:
            raise ProbabilityError(f"input symbol {x} outside alphabet of size {self.n_in}")
        return ProbVector(self.rows[x])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Channel(n_in={self.n_in}, n_out={self.n_out})"


# --------------------------------------------------------------------------
# divergences
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DivergenceKind:
    """Tagged f-divergence selector.

    Use the module constants :data:`KL`, :data:`TV`, :data:`CHI2`,
    :data:`H2`, or :func:`hockey_stick_kind` for ``E_gamma`` with a
    threshold parameter ``gamma >= 1``.
    """

    tag: str
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in {"kl", "tv", "chi2", "h2", "hockey_stick"}:
            raise ProbabilityError(f"unknown divergence tag {self.tag!r}")
        if self.tag == "hockey_stick":
            if self.gamma is None or not (self.gamma >= 1.0):
                raise ProbabilityError("hockey-stick threshold must satisfy gamma >= 1")
        elif self.gamma is not None:
            raise ProbabilityError(f"divergence {self.tag!r} takes no threshold parameter")


KL = DivergenceKind("kl")
TV = DivergenceKind("tv")
CHI2 = DivergenceKind("chi2")
H2 = DivergenceKind("h2")


def hockey_stick_kind(gamma: float) -> DivergenceKind:
    return DivergenceKind("hockey_stick", float(gamma))


def _check_pair(p: ProbVector, q: ProbVector) -> tuple[np.ndarray, np.ndarray]:
    if p.dim != q.dim:
        raise DimensionMismatch(f"alphabet sizes differ: {p.dim} vs {q.dim}")
    return p.mass, q.mass


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    pos = p > 0
    if np.any(pos & (q == 0)):
        return math.inf
    pp = p[pos]
    return float(np.sum(pp * np.log(pp / q[pos])))


def _tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def _chi2(p: np.ndarray, q: np.ndarray) -> float:
    if np.any((p > 0) & (q == 0)):
        return math.inf
    pos = q > 0
    d = p[pos] - q[pos]
    return float(np.sum(d * d / q[pos]))


def _h2(p: np.ndarray, q: np.ndarray) -> float:
    d = np.sqrt(p) - np.sqrt(q)
    return float(np.sum(d * d))


def _eg(p: np.ndarray, q: np.ndarray, gamma: float) -> float:
    return float(np.maximum(p - gamma * q, 0.0).sum())


def divergence(kind: DivergenceKind, p: ProbVector, q: ProbVector) -> float:
    """f-divergence ``D_f(p || q)`` for the selected ``kind``.

    Returns ``+inf`` for KL and chi-squared when ``p`` puts mass outside
    the support of ``q``; TV, squared Hellinger and hockey-stick are
    always finite.
    """
    pm, qm = _check_pair(p, q)
    if kind.tag == "kl":
        return _kl(pm, qm)
    if kind.tag == "tv":
        return _tv(pm, qm)
    if kind.tag == "chi2":
        return _chi2(pm, qm)
    if kind.tag == "h2":
        return _h2(pm, qm)
    return _eg(pm, qm, float(kind.gamma))


def hockey_stick(p: ProbVector, q: ProbVector, gamma: float) -> float:
    """Hockey-stick divergence ``E_gamma(p || q)`` for ``gamma >= 1``."""
    if not gamma >= 1.0:
        raise ProbabilityError("hockey-stick threshold must satisfy gamma >= 1")
    pm, qm = _check_pair(p, q)
    return _eg(pm, qm, float(gamma))


def push_forward(p: ProbVector, k: Channel) -> ProbVector:
    """Output distribution ``pK`` of ``p`` pushed through channel ``k``."""
    if p.dim != k.n_in:
        raise DimensionMismatch(
            f"distribution dimension {p.dim} does not match channel input size {k.n_in}"
        )
    return ProbVector(p.mass @ k.rows)


# --------------------------------------------------------------------------
# hockey-stick integral representations
# --------------------------------------------------------------------------


def _eg_at_kinks(p: np.ndarray, q: np.ndarray):
    """Both hockey-stick curves at their kinks.

    The curves ``gamma -> E_gamma(p||q)`` and ``gamma -> E_gamma(q||p)``
    are linear between 1 and the finite likelihood ratios above 1, in
    either orientation.  Returns the sorted kinks (starting at 1) and
    the two curves evaluated there.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        r_pq, r_qp = p / q, q / p
    ratios = np.concatenate([r_pq, r_qp])
    g = np.unique(np.concatenate([[1.0], ratios[(ratios > 1.0) & np.isfinite(ratios)]]))
    e_pq, e_qp = np.empty((2, g.size))
    step = max(1, _BATCH_FLOATS // p.size)  # memory linear in the alphabet, rows summed alike
    for s in range(0, g.size, step):
        gs = g[s : s + step, None]
        # A coordinate stops contributing at its own kink; testing the ratio
        # (not the sign of p - gamma q) makes that value exactly 0.
        e_pq[s : s + step] = np.where(r_pq > gs, p - gs * q, 0.0).sum(axis=1)
        e_qp[s : s + step] = np.where(r_qp > gs, q - gs * p, 0.0).sum(axis=1)
    return g, e_pq, e_qp


def hellinger_via_eg_quadrature(p: ProbVector, q: ProbVector) -> float:
    """Squared Hellinger distance recovered from the hockey-stick curve.

    Integrates ``(E_gamma(p||q) + E_gamma(q||p)) * gamma^{-3/2} / 2``
    over ``gamma >= 1``.  Between kinks ``a < b`` the curve sum ``E`` is
    linear, and ``int_a^b E gamma^{-3/2}`` equals
    ``2 (b - a) (E(a) sqrt(b) + E(b) sqrt(a)) / ((sqrt(a) + sqrt(b))^2 sqrt(ab))``,
    a sum of non-negative terms.  Past the largest kink both curves are
    constant (the mass each distribution puts outside the other's
    support), so that tail is integrated in closed form.
    """
    pm, qm = _check_pair(p, q)
    g, e_pq, e_qp = _eg_at_kinks(pm, qm)
    e = 0.5 * (e_pq + e_qp)
    a, b, ra, rb = g[:-1], g[1:], np.sqrt(g[:-1]), np.sqrt(g[1:])
    pieces = 2.0 * (b - a) * (e[:-1] * rb + e[1:] * ra) / ((ra + rb) ** 2 * ra * rb)
    escaped = float(pm[qm == 0].sum() + qm[pm == 0].sum())
    # integral of gamma^{-3/2} past the last kink g is 2 / sqrt(g)
    return float(pieces.sum()) + escaped / math.sqrt(g[-1])


def chi2_via_eg_quadrature(p: ProbVector, q: ProbVector) -> float:
    """Chi-squared divergence recovered from the hockey-stick curve.

    Integrates ``2 * (E_gamma(p||q) + gamma^{-3} E_gamma(q||p))`` over
    ``gamma >= 1``.  Between kinks ``a < b`` both curves are linear, so
    the first term integrates by the trapezoid rule and
    ``int_a^b E gamma^{-3}`` equals ``(b - a) (E(a) b + E(b) a) / (2 a^2 b^2)``.
    Returns ``+inf`` when ``p`` escapes the support of ``q`` (matching
    the closed form); mass of ``q`` outside the support of ``p`` only
    contributes a convergent tail, handled in closed form.
    """
    pm, qm = _check_pair(p, q)
    if np.any((pm > 0) & (qm == 0)):
        return math.inf
    g, e_pq, e_qp = _eg_at_kinks(pm, qm)
    a, b = g[:-1], g[1:]
    pieces = (b - a) * (e_pq[:-1] + e_pq[1:] + (e_qp[:-1] * b + e_qp[1:] * a) / (a * b) ** 2)
    escaped_q = float(qm[pm == 0].sum())
    # integral of 2 gamma^{-3} past the last kink g is g^{-2}
    return float(pieces.sum()) + escaped_q / g[-1] ** 2
