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
upper bounds.

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
from dataclasses import dataclass, field

import numpy as np

from .contraction import check_eps, psi, upsilon

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


class BoundError(ValueError):
    """Invalid input to a bound computation."""


class InfeasiblePackingError(BoundError):
    """No valid packing exists for the requested parameters."""


@dataclass(frozen=True)
class BoundEntry:
    """One named bound value.

    ``direction`` is ``"lower"``, ``"upper"`` or ``"value"``;
    ``group`` ties matching lower/upper entries together;
    ``up_to_constant`` flags order-only statements.
    """

    name: str
    value: float
    direction: str
    group: str = ""
    up_to_constant: bool = False
    inputs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.direction not in {"lower", "upper", "value"}:
            raise BoundError(f"unknown bound direction {self.direction!r}")
        if math.isnan(self.value):
            raise BoundError(f"bound {self.name!r} evaluated to NaN")


@dataclass
class BoundReport:
    """Ordered collection of bound entries with consistency checking."""

    entries: list[BoundEntry] = field(default_factory=list)

    def add(self, name: str, value: float, direction: str, group: str = "",
            up_to_constant: bool = False, **inputs) -> None:
        self.entries.append(
            BoundEntry(name=name, value=float(value), direction=direction, group=group,
                       up_to_constant=up_to_constant, inputs=dict(inputs))
        )

    def validate(self) -> None:
        """Every finite lower bound must not exceed a matching finite upper bound."""
        for lo in self.entries:
            if lo.direction != "lower" or not lo.group:
                continue
            for hi in self.entries:
                if hi.direction == "upper" and hi.group == lo.group:
                    if math.isfinite(lo.value) and math.isfinite(hi.value) and lo.value > hi.value:
                        raise BoundError(
                            f"lower bound {lo.name!r} = {lo.value} exceeds "
                            f"upper bound {hi.name!r} = {hi.value}"
                        )

    def to_payload(self) -> list[dict]:
        return [
            {
                "name": e.name,
                "value": e.value,
                "direction": e.direction,
                "group": e.group,
                "up_to_constant": e.up_to_constant,
                "inputs": e.inputs,
            }
            for e in self.entries
        ]


def _pos_int(n, what: str) -> int:
    n = int(n)
    if n < 1:
        raise BoundError(f"{what} must be a positive integer, got {n}")
    return n


def _check_frac(x: float, what: str) -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise BoundError(f"{what} must lie in [0, 1], got {x!r}")
    return x


# ------------------------------------------------------------------ two-point


def le_cam_lb(n: int, eps: float, alpha: float, kl: float, tv: float) -> float:
    """Two-point lower bound with the privacy-contracted separation term.

    ``alpha`` is the loss separation of the two hypotheses, ``kl`` and
    ``tv`` the divergences between them.  The testing term is the best
    of three contractions: KL through ``upsilon``, and the two
    total-variation routes through ``psi``.
    """
    n = _pos_int(n, "sample count")
    if not alpha >= 0:
        raise BoundError(f"separation must be non-negative, got {alpha!r}")
    if not kl >= 0:
        raise BoundError(f"KL divergence must be non-negative, got {kl!r}")
    tv = _check_frac(tv, "total variation")
    u, p = upsilon(eps), psi(eps)
    term = min(math.sqrt(u * kl), 2.0 * math.sqrt(p) * tv, math.sqrt(p * tv))
    return (alpha / (2.0 * math.sqrt(2.0))) * max(math.sqrt(2.0) - math.sqrt(n) * term, 0.0)


def le_cam_prior_lb(n: int, eps: float, alpha: float, tv: float) -> float:
    """Earlier two-point bound with testing term ``sqrt(n) (e^eps - 1) tv``."""
    n = _pos_int(n, "sample count")
    if not alpha >= 0:
        raise BoundError(f"separation must be non-negative, got {alpha!r}")
    tv = _check_frac(tv, "total variation")
    term = math.sqrt(n) * math.expm1(check_eps(eps, BoundError)) * tv
    return (alpha / (2.0 * math.sqrt(2.0))) * max(math.sqrt(2.0) - term, 0.0)


def entropy_estimation_lb(n: int, eps: float, k: int) -> float:
    """Quadratic-risk lower bound for private entropy estimation, ``k >= 3``."""
    n = _pos_int(n, "sample count")
    if k < 3:
        raise BoundError(f"alphabet size must be at least 3, got {k}")
    u = upsilon(eps)
    inner = 1.0 if u == 0.0 else min(1.0, 1.0 / (100.0 * n * u))
    return 0.05 * inner * math.log(k - 1) ** 2


# ------------------------------------------------------------------- Assouad


def assouad_lb(n: int, eps: float, k: int, tau: float, tv_sq_sum: float) -> float:
    """Hypercube lower bound ``k tau [1 - sqrt(2 n psi / k * sum tv^2)]_+``.

    ``tv_sq_sum`` is the sum over the ``k`` coordinates of the squared
    total variation between the two single-coordinate-flipped mixtures.
    """
    n = _pos_int(n, "sample count")
    k = _pos_int(k, "hypercube dimension")
    if not tau >= 0:
        raise BoundError(f"separation must be non-negative, got {tau!r}")
    if not tv_sq_sum >= 0:
        raise BoundError(f"TV budget must be non-negative, got {tv_sq_sum!r}")
    p = psi(eps)
    # 2 n psi overflows near EPS_MAX; a zero TV budget still leaves inner = 0, not inf * 0
    inner = 2.0 * n * p / k * tv_sq_sum if tv_sq_sum > 0.0 else 0.0
    return k * tau * max(1.0 - math.sqrt(inner), 0.0)


def distribution_estimation_lb(n: int, eps: float, d: int, h: float) -> float:
    """ell_h lower bound for private discrete distribution estimation."""
    n = _pos_int(n, "sample count")
    d = _pos_int(d, "alphabet size")
    h = float(h)
    if not 1.0 <= h < math.inf:
        raise BoundError(f"norm order must be finite and satisfy h >= 1, got {h!r}")
    p = psi(eps)
    np_eff = n * p
    if np_eff == 0.0:
        return 1.0
    # n psi overflows near EPS_MAX; its square root does not
    root = math.sqrt(np_eff) if math.isfinite(np_eff) else math.sqrt(n) * math.sqrt(p)
    lead = math.sqrt(2.0) * h / (h + 1.0)
    term2 = lead * (1.0 / (2.0 * h + 2.0)) ** (1.0 / h) * d ** (1.0 / h) / root
    term3 = lead * (1.0 / (math.sqrt(2.0) * h)) ** (1.0 / h) * (1.0 / root) ** (1.0 - 1.0 / h)
    return min(1.0, term2, term3)


def hadamard_ub(n: int, eps: float, d: int, h: float) -> float:
    """The paper's Table 1 ell_h rate for the Hadamard response, up to a universal constant.

    Not an upper bound on the risk of
    :func:`~ldpcontract.mechanisms.hadamard_estimate`: at d >= 64 that
    estimator's exact ell_2 risk exceeds it for every power-of-two layout.
    Valid for ``2 <= h <= 100`` and ``eps > 0``:
    ``e^{eps (h-1)/h} (e^eps + d)^{1/h} / ((e^eps - 1) sqrt(n))``.
    """
    n = _pos_int(n, "sample count")
    d = _pos_int(d, "alphabet size")
    h = float(h)
    if not 2.0 <= h <= 100.0:
        raise BoundError(f"norm order must satisfy 2 <= h <= 100, got {h!r}")
    if check_eps(eps, BoundError) == 0.0:
        raise BoundError("upper bound requires eps > 0")
    e = math.exp(eps)
    denom = (e - 1.0) * math.sqrt(n)
    if math.isinf(denom):  # e^eps > DBL_MAX / sqrt(n): divide e^eps out of both sides
        return (1.0 + d * math.exp(-eps)) ** (1.0 / h) / (-math.expm1(-eps) * math.sqrt(n))
    return e ** ((h - 1.0) / h) * (e + d) ** (1.0 / h) / denom


# ------------------------------------------------------------------- density


def _n_psi_power(n: int, p: float, rate: float) -> float:
    """``(n psi)^rate`` for ``p = psi(eps)``, through logarithms once ``n psi`` overflows."""
    np_eff = n * p
    if math.isinf(np_eff):  # near EPS_MAX
        return math.exp(rate * (math.log(n) + math.log(p)))
    return np_eff**rate


def density_estimation_lb(n: int, eps: float, beta: float, h: float) -> float:
    """Order-level rate ``(n psi(eps))^{-h beta / (2 beta + 2)}``.

    Stated up to universal constants; infinite at ``eps = 0``.
    """
    n = _pos_int(n, "sample count")
    beta = float(beta)
    h = float(h)
    if not 0.0 < beta <= 1.0:
        raise BoundError(f"smoothness must lie in (0, 1], got {beta!r}")
    if not 1.0 <= h < math.inf:
        raise BoundError(f"norm order must be finite and satisfy h >= 1, got {h!r}")
    p = psi(eps)
    if n * p == 0.0:
        return math.inf
    return _n_psi_power(n, p, -h * beta / (2.0 * beta + 2.0))


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

    The members ``theta = e_k`` and ``theta = 0`` differ on cell ``k``
    alone, so only that cell is evaluated, with the arithmetic of
    :meth:`DensityPacking.density`: memory does not grow with ``N``.
    """
    if not 1 <= k <= pk.N:
        raise BoundError(f"coordinate must lie in 1..{pk.N}, got {k}")

    def diff(xs: np.ndarray) -> np.ndarray:
        # f_{e_k} - f_0; f_0 is exactly 1 and f_{e_k} is 1 off cell k
        t = np.ldexp(xs, pk.b)
        return np.abs(np.where(np.floor(t) == k, 1.0 + pk.gamma * pk._bump(t, k), 1.0) - 1.0)

    width = 2.0**-pk.b
    return 0.5 * _gauss_legendre(diff, [k * width, (k + 1) * width])


# ------------------------------------------------------- mutual information


def log_unit_ball_volume_l2(d: int) -> float:
    """Log volume of the unit Euclidean ball in ``R^d``."""
    d = _pos_int(d, "dimension")
    return 0.5 * d * math.log(math.pi) - math.lgamma(1.0 + 0.5 * d)


def mim_lb(d: int, r: float, log_vd: float, entropy: float, mutual_info: float,
           eps: float) -> float:
    """Mutual-information lower bound on the Bayes ``r``-th power risk.

    ``log_vd`` is the log volume of the unit ball of the loss norm,
    ``entropy`` the differential entropy of the prior, ``mutual_info``
    the raw-data mutual information ``I(theta; X^n)``; privacy enters by
    discounting the information through ``upsilon(eps)``.
    """
    d = _pos_int(d, "dimension")
    r = float(r)
    if not r > 0.0:
        raise BoundError(f"loss power must be positive, got {r!r}")
    if not mutual_info >= 0.0:
        raise BoundError(f"mutual information must be non-negative, got {mutual_info!r}")
    for what, x in (("log volume", log_vd), ("prior entropy", entropy)):
        if math.isnan(x):
            raise BoundError(f"{what} must be a number, got {x!r}")
    log_pref = (
        math.log(d)
        - math.log(r)
        - 1.0
        - (r / d) * (log_vd + math.lgamma(1.0 + d / r))
    )
    return math.exp(log_pref + entropy - upsilon(eps) * mutual_info)


def gaussian_location_lb(n: int, d: int, r: float, sigma: float, eps: float,
                         log_vd: float, vol_ratio: float, rad: float) -> float:
    """Gaussian location-model lower bound for an arbitrary norm and set.

    ``vol_ratio`` is ``V(Theta) / V_2(Theta)`` (loss-ball volume of the
    parameter set over its Euclidean-ball volume), ``rad`` the Chebyshev
    radius of the set.
    """
    n = _pos_int(n, "sample count")
    d = _pos_int(d, "dimension")
    r = float(r)
    if not r > 0.0:
        raise BoundError(f"loss power must be positive, got {r!r}")
    if not (sigma > 0 and rad > 0 and vol_ratio > 0):
        raise BoundError("sigma, rad and vol_ratio must be positive")
    if math.isnan(log_vd):
        raise BoundError(f"log volume must be a number, got {log_vd!r}")
    log_pref = (
        (1.0 - 0.5 * r) * math.log(d)
        - math.log(r)
        - 2.0
        - (r / d) * (log_vd + math.lgamma(1.0 + d / r))
        + (r / d) * math.log(vol_ratio)
    )
    u = upsilon(eps)
    noise_term = math.inf if u == 0.0 else (sigma * sigma * d / (n * u)) ** (0.5 * r)
    return math.exp(log_pref) * min(rad**r, noise_term)


def gaussian_location_table1(n: int, d: int, sigma: float, eps: float) -> float:
    """Unit-l2-ball form of the Gaussian location bound (order statement):

    ``sqrt(d) / (e^2 (V_d Gamma(1+d))^{1/d}) *
    min(1, sqrt(sigma^2 d / n) (e^eps+1)/(e^eps-1))``.
    """
    n = _pos_int(n, "sample count")
    d = _pos_int(d, "dimension")
    if not sigma > 0:
        raise BoundError(f"sigma must be positive, got {sigma!r}")
    eps = check_eps(eps, BoundError)
    log_vd = log_unit_ball_volume_l2(d)
    log_pref = 0.5 * math.log(d) - 2.0 - (log_vd + math.lgamma(1.0 + d)) / d
    em1 = math.expm1(eps)
    if em1 == 0.0:
        noise = math.inf
    else:
        noise = math.sqrt(sigma * sigma * d / n) * (math.exp(eps) + 1.0) / em1
    return math.exp(log_pref) * min(1.0, noise)


# ------------------------------------------------------------------- testing


def bht_sample_complexity(eps: float, tv: float, h2: float) -> tuple[float, float]:
    """Sample-complexity sandwich for private binary hypothesis testing.

    Returns ``(lower, upper)`` where
    ``lower = max(log 2.5 / (4 upsilon h2), 2 / (25 psi tv^2))`` and
    ``upper = 2 log 5 / (upsilon tv^2)``; both are infinite at
    ``eps = 0``.  The ordering ``lower <= upper`` always holds and is
    asserted.
    """
    tv = _check_frac(tv, "total variation")
    h2 = float(h2)
    if not 0.0 < h2 <= 2.0:
        raise BoundError(f"squared Hellinger must lie in (0, 2], got {h2!r}")
    if not tv > 0.0:
        raise BoundError("distinguishing identical distributions takes infinitely many samples")
    u, p = upsilon(eps), psi(eps)
    if u == 0.0:
        return math.inf, math.inf
    lower = max(math.log(2.5) / (4.0 * u * h2), 2.0 / (25.0 * p * tv * tv))
    upper = 2.0 * math.log(5.0) / (u * tv * tv)
    if lower > upper:
        raise BoundError("sample-complexity bounds out of order")  # pragma: no cover
    return lower, upper
