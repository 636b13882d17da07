"""The package's closed forms, in plain :mod:`math`: this module imports no numpy.

The privacy constants ``upsilon`` and ``psi`` and the bounds built on them,
re-exported by :mod:`~ldpcontract.contraction`; the scalar minimax bounds and
:class:`BoundReport`, re-exported by :mod:`~ldpcontract.minimax`.  So the CLI's
``bound``, ``bounds`` and ``table1`` verbs run without loading numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field


class ContractionError(ValueError):
    """Invalid input to a contraction computation."""


#: Largest privacy parameter accepted: above ``log(DBL_MAX) = 709.78...``
#: the factor ``e^eps`` of every mechanism and constant overflows a double.
EPS_MAX = math.log(sys.float_info.max)


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


def extremal_tv_under_ldp(eps: float) -> float:
    """Largest total variation achievable between two rows of an eps-LDP channel.

    Evaluates ``e^{-eps}(e^eps - 1)^2 / (e^eps - e^{-eps})``, which
    simplifies to ``(e^eps - 1)/(e^eps + 1)``.
    """
    eps = check_eps(eps)
    return math.expm1(eps) / (math.exp(eps) + 1.0)


class BoundError(ValueError):
    """Invalid input to a bound computation."""


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
    if not 0 <= alpha < math.inf:
        raise BoundError(f"separation must be finite and non-negative, got {alpha!r}")
    if not kl >= 0:
        raise BoundError(f"KL divergence must be non-negative, got {kl!r}")
    tv = _check_frac(tv, "total variation")
    u, p = upsilon(eps), psi(eps)
    term = min(math.sqrt(u * kl), 2.0 * math.sqrt(p) * tv, math.sqrt(p * tv))
    return (alpha / (2.0 * math.sqrt(2.0))) * max(math.sqrt(2.0) - math.sqrt(n) * term, 0.0)


def le_cam_prior_lb(n: int, eps: float, alpha: float, tv: float) -> float:
    """Earlier two-point bound with testing term ``sqrt(n) (e^eps - 1) tv``."""
    n = _pos_int(n, "sample count")
    if not 0 <= alpha < math.inf:
        raise BoundError(f"separation must be finite and non-negative, got {alpha!r}")
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
    if not 0 <= tau < math.inf:
        raise BoundError(f"separation must be finite and non-negative, got {tau!r}")
    if not tv_sq_sum >= 0:
        raise BoundError(f"TV budget must be non-negative, got {tv_sq_sum!r}")
    p = psi(eps)
    # 2 n psi overflows near EPS_MAX; a zero TV budget still leaves inner = 0, not inf * 0
    inner = 2.0 * n * p / k * tv_sq_sum if tv_sq_sum > 0.0 else 0.0
    # k tau can overflow where the bracket is 0: the bound is then 0, not inf * 0
    return k * tau * (1.0 - math.sqrt(inner)) if inner < 1.0 else 0.0


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
    if not 0.0 < r < math.inf:
        raise BoundError(f"loss power must be finite and positive, got {r!r}")
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
    eps = check_eps(eps)
    if eps == 0.0:
        noise_term = math.inf
    else:  # (sigma^2 d / (n upsilon))^(r/2) from logs, so no square can underflow
        log_t = math.log(math.expm1(eps)) - math.log(math.exp(eps) + 1.0)  # upsilon = t^2
        log_noise = r * (math.log(sigma) + 0.5 * (math.log(d) - math.log(n)) - log_t)
        noise_term = math.inf if log_noise > EPS_MAX else math.exp(log_noise)
    return math.exp(log_pref) * min(rad**r, noise_term)


def gaussian_location_table1(n: int, d: int, sigma: float, eps: float) -> float:
    """Unit-l2-ball form of the Gaussian location bound (order statement):

    ``sqrt(d) / (e^2 (V_d Gamma(1+d))^{1/d}) *
    min(1, sqrt(sigma^2 d / n) (e^eps+1)/(e^eps-1))``, which is
    :func:`gaussian_location_lb` at ``r = 1`` on the unit l2 ball.
    """
    n = _pos_int(n, "sample count")
    d = _pos_int(d, "dimension")
    if not sigma > 0:
        raise BoundError(f"sigma must be positive, got {sigma!r}")
    eps = check_eps(eps, BoundError)
    return gaussian_location_lb(n, d, 1.0, sigma, eps, log_unit_ball_volume_l2(d), 1.0, 1.0)


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
