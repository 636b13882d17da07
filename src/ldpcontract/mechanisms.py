"""Locally private mechanisms on finite alphabets.

A mechanism is just a :class:`~ldpcontract.probability.Channel` whose
rows are pairwise multiplicatively close: ``K(z|x) <= e^eps K(z|x')``
for every output ``z`` and input pair ``(x, x')``.  :func:`audit_ldp`
measures the tightest such ``eps`` directly from the matrix, so every
constructor here can be verified a posteriori.

Constructors
------------
* :func:`randomized_response` - the k-ary "respond truthfully with
  boosted probability" channel, written as the mixture
  ``t * identity + (1 - t) * uniform`` with ``t = (e^eps-1)/(e^eps+k-1)``
  (this mixture form keeps the binary row gap accurate to the last bit);
* :func:`binary_mechanism` - the two-output threshold channel adapted
  to a pair of distributions, which contracts total variation by
  exactly ``(e^eps-1)/(e^eps+1)``;
* :func:`hadamard_response` - a block-structured channel for frequency
  estimation whose unbiased linear estimator has binomial count
  marginals (see :class:`HadamardConfig`);
  :func:`hadamard_output_mass` gives its output distribution in closed
  form, without building the channel.

Hadamard layout
---------------
Inputs are split into ``b`` blocks of at most ``B/2`` symbols, ``B`` a
power of two.  Block ``i`` owns the output coset ``[i*B, (i+1)*B)``.
An input with within-block index ``j`` is associated with the set
``C_x`` of columns where row ``j + 1`` of the order-``B`` Sylvester
Hadamard matrix is ``+1`` (rows ``1..B/2`` are balanced, and two
distinct such rows overlap in exactly ``B/4`` columns).  The channel
puts weight ``e^eps`` on ``C_x`` and ``1`` elsewhere, normalised.  The
estimator inverts the two resulting linear statistics: the frequency of
``C_x`` and the frequency of the block coset.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .contraction import check_eps, upsilon as _upsilon, psi as _psi
from .probability import Channel, DimensionMismatch, ProbabilityError, ProbVector

__all__ = [
    "MechanismError",
    "PrivacyLevel",
    "HadamardConfig",
    "randomized_response",
    "binary_mechanism",
    "hadamard_response",
    "hadamard_estimate",
    "hadamard_output_mass",
    "audit_ldp",
    "sample",
    "mix_toward_uniform",
    "project_to_simplex",
]


class MechanismError(ValueError):
    """Invalid mechanism parameters."""


@dataclass(frozen=True)
class PrivacyLevel:
    """A privacy parameter ``eps >= 0`` with its two derived constants."""

    eps: float

    def __post_init__(self) -> None:
        check_eps(self.eps, MechanismError)

    @property
    def upsilon(self) -> float:
        return _upsilon(self.eps)

    @property
    def psi(self) -> float:
        return _psi(self.eps)


def randomized_response(k: int, eps: float) -> Channel:
    """k-ary randomized response: diagonal ``e^eps/(e^eps+k-1)``, flat elsewhere."""
    level = PrivacyLevel(float(eps))
    if k < 2:
        raise MechanismError(f"alphabet size must be at least 2, got {k}")
    e = math.exp(level.eps)
    t = (e - 1.0) / (e + k - 1.0)
    off = (1.0 - t) / k
    rows = np.full((k, k), off)
    np.fill_diagonal(rows, t + off)
    return Channel(rows)


def binary_mechanism(p: ProbVector, q: ProbVector, eps: float) -> Channel:
    """Two-output threshold mechanism adapted to the pair ``(p, q)``.

    Input symbols where ``p(x) >= q(x)`` map output 0 with probability
    ``e^eps/(1+e^eps)``; the remaining symbols with probability
    ``1/(1+e^eps)``.  The channel is exactly eps-LDP and contracts
    ``TV(p, q)`` by exactly ``(e^eps-1)/(e^eps+1)``.
    """
    level = PrivacyLevel(float(eps))
    if p.dim != q.dim:
        raise DimensionMismatch(f"alphabet sizes differ: {p.dim} vs {q.dim}")
    e = math.exp(level.eps)
    hi = e / (1.0 + e)
    lo = 1.0 / (1.0 + e)
    first = np.where(p.mass >= q.mass, hi, lo)
    return Channel(np.column_stack([first, 1.0 - first]))


@dataclass(frozen=True)
class HadamardConfig:
    """Layout parameters for the Hadamard response channel.

    ``d``: input alphabet size; ``B``: Hadamard order (power of two,
    at least 2); ``b``: number of blocks.  Blocks hold up to ``B/2``
    inputs, so ``b * B/2 >= d`` is required; the output alphabet has
    ``b * B`` symbols.
    """

    d: int
    eps: float
    B: int
    b: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise MechanismError(f"alphabet size must be positive, got {self.d}")
        PrivacyLevel(self.eps)
        if self.B < 2 or (self.B & (self.B - 1)) != 0:
            raise MechanismError(f"Hadamard order must be a power of two >= 2, got {self.B}")
        if self.b < 1:
            raise MechanismError(f"block count must be positive, got {self.b}")
        if self.b * (self.B // 2) < self.d:
            raise MechanismError(
                f"layout capacity {self.b * (self.B // 2)} below alphabet size {self.d}"
            )
        if math.isinf(_denominator(self)[1]):
            raise MechanismError(
                f"eps = {self.eps!r} is too large for the Hadamard layout B = {self.B}, "
                f"b = {self.b}: the row normaliser (B/2) e^eps + b B - B/2 overflows"
            )

    @property
    def n_out(self) -> int:
        return self.b * self.B

    @classmethod
    def for_alphabet(cls, d: int, eps: float) -> "HadamardConfig":
        """Default layout: ``B`` the smallest power of two at least
        ``min(ceil(e^eps) + 1, 2 d)``, blocks sized to cover ``d``."""
        PrivacyLevel(float(eps))
        target = min(math.ceil(math.exp(eps)) + 1, 2 * d)
        B = 2
        while B < target:
            B *= 2
        b = -(-d // (B // 2))
        return cls(d=d, eps=float(eps), B=B, b=b)


@functools.lru_cache(maxsize=8)
def _plus_pattern(B: int) -> np.ndarray:
    """Read-only ``(B/2, B)`` 0/1 matrix: where Sylvester rows ``1..B/2`` are ``+1``.

    Entry ``(i, j)`` of the order-``B`` Sylvester matrix is ``+1`` exactly
    when ``popcount(i & j)`` is even.
    """
    bits = np.arange(1, B // 2 + 1)[:, None] & np.arange(B)[None, :]
    parity = np.zeros_like(bits)
    for shift in range(B.bit_length() - 1):
        parity ^= bits >> shift
    pattern = ((parity & 1) == 0).astype(float)
    pattern.setflags(write=False)
    return pattern


def _denominator(cfg: HadamardConfig) -> tuple[float, float]:
    """``(e^eps, normaliser)``: a row has ``B/2`` cells at ``e^eps`` and the rest at 1."""
    e = math.exp(cfg.eps)
    half = cfg.B // 2
    return e, half * e + (cfg.n_out - half)


def hadamard_response(cfg: HadamardConfig) -> Channel:
    """Channel with weight ``e^eps`` on ``C_x`` and 1 elsewhere, normalised."""
    e, denom = _denominator(cfg)
    half = cfg.B // 2
    block_rows = np.where(_plus_pattern(cfg.B) > 0, e / denom, 1.0 / denom)
    rows = np.full((cfg.b, half, cfg.b, cfg.B), 1.0 / denom)
    diag = np.arange(cfg.b)
    rows[diag, :, diag, :] = block_rows
    return Channel(rows.reshape(cfg.b * half, cfg.n_out)[: cfg.d])


def hadamard_output_mass(p: ProbVector, cfg: HadamardConfig) -> np.ndarray:
    """Output distribution ``p K`` of the Hadamard response, in closed form.

    Column ``c`` of block ``i`` has mass ``(1 + (e^eps - 1) p(C^{-1}(c)))
    / denom``, where the middle term sums ``p`` over the block's inputs
    whose set ``C_x`` holds ``c``: one ``(b, B/2) @ (B/2, B)`` product,
    without the ``d x b B`` channel.
    """
    if p.dim != cfg.d:
        raise DimensionMismatch(
            f"distribution dimension {p.dim} does not match layout alphabet {cfg.d}"
        )
    e, denom = _denominator(cfg)
    p_blocks = np.zeros(cfg.b * (cfg.B // 2))
    p_blocks[: cfg.d] = p.mass
    inside = p_blocks.reshape(cfg.b, cfg.B // 2) @ _plus_pattern(cfg.B)
    return (1.0 + (e - 1.0) * inside).ravel() / denom


def hadamard_estimate(histogram, cfg: HadamardConfig) -> np.ndarray:
    """Unbiased linear frequency estimator for the Hadamard response.

    ``histogram`` holds output counts of length ``b * B``, or is a
    ``(rows, b * B)`` stack of them giving ``(rows, d)`` estimates, each
    row bit-identical to its own call.  Writing ``freq(S)`` for the
    empirical frequency of an output set, the block totals recover
    ``p(S_i)`` and the ``C_x`` frequencies then recover each ``p(x)``.
    Both statistics are counts of fixed output sets, so their sampling
    distributions are binomial.  The returned vector is unbiased but not
    constrained to the simplex; use :func:`project_to_simplex` if a
    proper distribution is needed.
    """
    hist = np.asarray(histogram, dtype=float)
    if hist.ndim not in (1, 2) or hist.shape[-1] != cfg.n_out:
        raise MechanismError(
            f"histogram shape {hist.shape} is not ({cfg.n_out},) or (rows, {cfg.n_out})"
        )
    if np.any(hist < 0) or np.any(np.isnan(hist)):
        raise MechanismError("histogram must be non-negative")
    n = hist.sum(axis=-1, keepdims=True)
    if np.any(n <= 0):
        raise MechanismError("histogram is empty")
    if cfg.eps == 0.0:
        raise MechanismError("estimator undefined at eps = 0 (channel carries no signal)")

    e, denom = _denominator(cfg)
    half = cfg.B // 2
    freq = (hist / n).reshape(*hist.shape[:-1], cfg.b, cfg.B)

    # denom / (e^eps - 1) stays near B/2 where 4 denom would overflow
    scale = 4.0 / cfg.B * (denom / (e - 1.0))
    p_block = 0.5 * scale * (freq.sum(axis=-1) - cfg.B / denom)

    set_freq = freq @ _plus_pattern(cfg.B).T  # (..., b, B/2): the frequency of every C_x
    est = scale * (set_freq - half / denom) - p_block[..., None]
    return est.reshape(*hist.shape[:-1], -1)[..., : cfg.d]


def project_to_simplex(v) -> ProbVector:
    """Euclidean projection of a vector onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0 or np.any(np.isnan(v)):
        raise MechanismError("projection requires a 1-d numeric vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.flatnonzero(u > css / np.arange(1, v.size + 1))[-1]
    theta = css[rho] / (rho + 1.0)
    return ProbVector(np.maximum(v - theta, 0.0))


def audit_ldp(k: Channel) -> float:
    """Tightest eps for which the channel is eps-LDP.

    The largest ``log K(z|x) - log K(z|x')`` over input pairs is, per
    output ``z``, the log of the column maximum minus the log of the
    column minimum; the audit is the largest of these.  All-zero
    columns carry no constraint, and a positive mass facing a zero
    yields ``+inf``.
    """
    col_max = k.rows.max(axis=0)
    live = col_max > 0
    with np.errstate(divide="ignore"):
        gap = np.log(col_max[live]) - np.log(k.rows.min(axis=0)[live])
    return float(gap.max())


def sample(k: Channel, x: int, rng: np.random.Generator, size: int | None = None):
    """Draw output symbol(s) for input ``x`` using the supplied generator."""
    if not 0 <= x < k.n_in:
        raise MechanismError(f"input symbol {x} outside alphabet of size {k.n_in}")
    return rng.choice(k.n_out, size=size, p=k.rows[x])


def mix_toward_uniform(k: Channel, eps: float) -> Channel:
    """Smallest uniform mixing that makes the channel eps-LDP.

    Replaces each row by ``(1 - lam) row + lam / n_out``.  With ``A_z``
    and ``a_z`` the maximum and minimum of column ``z``, the mixed column
    is eps-LDP exactly when ``(1 - lam) D_z <= lam (e^eps - 1) / n_out``,
    ``D_z = A_z - e^eps a_z``, so the smallest weight is
    ``max_z D_z / (D_z + (e^eps - 1) / n_out)`` over columns with
    ``D_z > 0``.  It is confirmed with :func:`audit_ldp` and, while
    rounding leaves the audit above ``eps``, raised by one ulp and then
    by doubling steps.  Used to generate random eps-LDP channels.
    """
    PrivacyLevel(float(eps))
    if audit_ldp(k) <= eps:
        return k
    u = 1.0 / k.n_out
    gap = k.rows.max(axis=0) - math.exp(eps) * k.rows.min(axis=0)
    gap = gap[gap > 0]
    lam = float(np.max(gap / (gap + math.expm1(eps) * u), initial=0.0))
    step = 0.0
    while True:
        mixed = Channel((1.0 - lam) * k.rows + lam * u)
        if audit_ldp(mixed) <= eps or lam >= 1.0:
            return mixed
        step = max(2.0 * step, math.ulp(lam))
        lam = min(lam + step, 1.0)
