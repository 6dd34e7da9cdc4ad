"""Beta-distribution calculus for double-step coverage guarantees.

A statement holds with coverage ``delta1 = 1 - epsilon`` at confidence
``delta2`` when the coverage level of a rank-``ell`` conformal threshold,
itself a Beta(ell, m+1-ell) random variable, exceeds ``delta1`` with
probability ``delta2``.  Everything here reduces to evaluating the
regularized incomplete beta function at large shape parameters, so the
implementation keeps every Gamma factor in log space and evaluates the
continued fraction with Lentz's method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaln

__all__ = [
    "GuaranteeSpec",
    "beta_cdf",
    "guarantee_confidence",
    "beta_moments",
    "select_rank",
]

# Lentz continued-fraction controls.  Shape parameters up to ~1e7 converge
# in well under 200 terms once the symmetry switch picks the fast side.
_CF_MAX_ITERS = 10_000
_CF_EPS = 1e-16
_CF_TINY = 1e-300


@dataclass(frozen=True)
class GuaranteeSpec:
    """A coverage/confidence pair tied to calibration hyper-parameters.

    Attributes
    ----------
    epsilon : float
        Miscoverage level in (0, 1).
    rank_ell : int
        Rank of the calibration score used as threshold, 1 <= ell <= m.
    calib_size_m : int
        Calibration set size.
    coverage_delta1 : float
        Inner coverage level, exactly ``1 - epsilon``.
    confidence_delta2 : float
        Outer confidence, ``1 - beta_cdf(1 - epsilon, ell, m + 1 - ell)``.
    confidence_miscoverage : float
        ``1 - confidence_delta2`` kept in full precision; near-one
        confidences lose all significant digits otherwise.
    """

    epsilon: float
    rank_ell: int
    calib_size_m: int
    coverage_delta1: float
    confidence_delta2: float
    confidence_miscoverage: float

    def as_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "rank_ell": self.rank_ell,
            "calib_size_m": self.calib_size_m,
            "coverage_delta1": self.coverage_delta1,
            "confidence_delta2": self.confidence_delta2,
            "confidence_miscoverage": self.confidence_miscoverage,
        }


# Stirling correction delta(x) = ln Gamma(x) - [(x-1/2) ln x - x + ln(2 pi)/2],
# series accurate to ~1e-14 for x >= 15.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
)
_STIRLING_MIN = 15.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_delta(x: float) -> float:
    inv2 = 1.0 / (x * x)
    c0, c1, c2, c3, c4 = _STIRLING_COEFFS
    return ((((c4 * inv2 + c3) * inv2 + c2) * inv2 + c1) * inv2 + c0) / x


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) without the catastrophic cancellation of
    gammaln(a+b) - gammaln(a) at large shape parameters."""
    hi, lo = (a, b) if a >= b else (b, a)
    if hi < _STIRLING_MIN:
        return float(gammaln(hi) + gammaln(lo) - gammaln(hi + lo))
    if lo < _STIRLING_MIN:
        # log Gamma(hi+lo) - log Gamma(hi) in ratio form keeps every term small
        log_ratio = (
            (hi - 0.5) * math.log1p(lo / hi)
            + lo * math.log(hi + lo)
            - lo
            + _stirling_delta(hi + lo)
            - _stirling_delta(hi)
        )
        return float(gammaln(lo)) - log_ratio
    return (
        -(hi - 0.5) * math.log1p(lo / hi)
        + (lo - 0.5) * math.log(lo / (hi + lo))
        - 0.5 * math.log(hi + lo)
        + _HALF_LOG_2PI
        + _stirling_delta(hi)
        + _stirling_delta(lo)
        - _stirling_delta(hi + lo)
    )


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function, modified
    Lentz evaluation. Assumes x < (a + 1) / (a + b + 2)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITERS + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge "
        f"(a={a!r}, b={b!r}, x={x!r})"
    )


def _log(x: float) -> float:
    """log x for x in (0, 1). log1p(x - 1) keeps a*log(x) accurate near 1,
    where the large-a cases live (x - 1 is exact for x >= 0.5); below 0.5
    the subtraction would round x away, down to log1p(-1) for tiny x."""
    return math.log1p(x - 1.0) if x >= 0.5 else math.log(x)


def _int_tail_sum(log_x: float, log_1mx: float, a: int, b: int) -> float:
    """I_x(a, b) for integer shapes with small b, via the exact identity
    I_x(a, b) = Pr[Bin(a+b-1, x) >= a]: a sum of b positive terms, immune
    to the continued fraction's stagnation at shape parameters ~1e7. Takes
    log x and log(1 - x), so the complement I_{1-x}(b, a) needs no 1 - x."""
    n = a + b - 1
    log_terms = []
    for k in range(b):
        j = n - k  # j runs a+b-1 .. a, so n-j = k stays small
        # ln C(n, j) with n - j = k: product of k accurate factors
        log_comb = math.fsum(math.log(n - i + 1) - math.log(i) for i in range(1, k + 1))
        log_terms.append(log_comb + j * log_x + (n - j) * log_1mx)
    top = max(log_terms)
    if top == -math.inf:
        return 0.0
    return math.exp(top) * math.fsum(math.exp(t - top) for t in log_terms)


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Parameters
    ----------
    x : float
        Evaluation point in [0, 1].
    a, b : float
        Positive shape parameters; ``a`` may be as large as ~1e7.

    Returns
    -------
    float
        I_x(a, b), monotone non-decreasing in x.

    Raises
    ------
    ValueError
        If x is outside [0, 1] or a shape parameter is not positive.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shape parameters must be positive, got a={a!r}, b={b!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    # Integer shapes with one small side take the exact binomial-tail sum;
    # this is the (ell, m+1-ell) regime, where shapes reach ~1e7.
    log_x, log_1mx = _log(x), math.log1p(-x)
    if a == int(a) and b == int(b):
        ia, ib = int(a), int(b)
        if ib <= 64:
            return min(_int_tail_sum(log_x, log_1mx, ia, ib), 1.0)
        if ia <= 64:
            s = _int_tail_sum(log_1mx, log_x, ib, ia)
            if s < 0.99:  # complement keeps full relative accuracy here
                return 1.0 - s
            # result is tiny; the continued fraction below is accurate
            # for small a and loses nothing to cancellation
    log_front = -_log_beta(a, b) + a * log_x + b * log_1mx
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def beta_moments(rank_ell: int, calib_size_m: int) -> tuple[float, float]:
    """Mean and variance of the Beta(ell, m+1-ell) coverage distribution.

    mean = ell / (m + 1)
    variance = ell (m + 1 - ell) / ((m + 1)^2 (m + 2))
    """
    _check_rank(rank_ell, calib_size_m)
    m1 = calib_size_m + 1
    mean = rank_ell / m1
    variance = rank_ell * (m1 - rank_ell) / (m1 * m1 * (calib_size_m + 2))
    return mean, variance


def guarantee_confidence(
    epsilon: float, rank_ell: int, calib_size_m: int
) -> GuaranteeSpec:
    """Assemble the full guarantee for the triple (epsilon, ell, m).

    The confidence is ``delta2 = 1 - I_{1-eps}(ell, m+1-ell)``; unlike the
    one-step marginal guarantee there is no coupling constraint between
    ell, m and epsilon beyond 1 <= ell <= m.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    _check_rank(rank_ell, calib_size_m)
    miscoverage = beta_cdf(1.0 - epsilon, rank_ell, calib_size_m + 1 - rank_ell)
    return GuaranteeSpec(
        epsilon=epsilon,
        rank_ell=rank_ell,
        calib_size_m=calib_size_m,
        coverage_delta1=1.0 - epsilon,
        confidence_delta2=1.0 - miscoverage,
        confidence_miscoverage=miscoverage,
    )


def select_rank(calib_size_m: int, epsilon: float) -> int:
    """One-step marginal-guarantee rank ceil((m+1)(1-eps)), clamped to [1, m].

    Only needed when the caller wants the classical coupled rank; the
    double-step guarantee accepts any rank, which is why out-of-range
    ceilings clamp instead of raising.
    """
    if calib_size_m < 1:
        raise ValueError(f"calibration size must be >= 1, got {calib_size_m!r}")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    raw = math.ceil((calib_size_m + 1) * (1.0 - epsilon))
    return min(max(raw, 1), calib_size_m)


def _check_rank(rank_ell: int, calib_size_m: int) -> None:
    if calib_size_m < 1:
        raise ValueError(f"calibration size must be >= 1, got {calib_size_m!r}")
    if not (1 <= rank_ell <= calib_size_m):
        raise ValueError(
            f"rank must satisfy 1 <= ell <= m, got ell={rank_ell!r}, m={calib_size_m!r}"
        )
