"""Binomial-tail calculus for double-step coverage guarantees.

A statement holds with coverage ``delta1 = 1 - epsilon`` at confidence
``delta2`` when the coverage level of a rank-``ell`` conformal threshold,
itself a Beta(ell, m+1-ell) random variable, exceeds ``delta1`` with
probability ``delta2``. That is one regularized incomplete beta function,
``delta2 = 1 - I_{1-eps}(ell, m+1-ell)``. Its shapes are integers, and for
integers a, b >= 1 the identity ``I_x(a, b) = P[Binomial(a+b-1, x) >= a]``
makes it a binomial tail, which ``beta_cdf`` sums directly. The
miscoverage ``1 - delta2`` is that sum itself, so it keeps its full
precision.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from ._seeds import check_integer, check_number

__all__ = ["GuaranteeSpec", "beta_cdf", "guarantee_confidence"]


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
        return asdict(self)


# The walk keeps each term as a mantissa below _HUGE times a power of two.
# A start (1-q)^n below _FLOOR comes from its logarithm, as pow would lose
# its digits to underflow. Past the mode the terms fall faster than a
# geometric series of the last step's ratio, so the walk stops once that
# series is below _NEGLIGIBLE of its sum, under half an ulp.
_HUGE = 2.0**64
_TINY = 1.0 / _HUGE
_FLOOR = 2.0**-900
_NEGLIGIBLE = 2.0**-56
_LN2 = math.log(2.0)


def beta_cdf(x: float, a: int, b: int) -> float:
    """Regularized incomplete beta function I_x(a, b) for x in [0, 1] and
    integer shapes a, b >= 1; ``ValueError`` otherwise, naming the argument.

    For integer shapes ``I_x(a, b) = P[Binomial(a+b-1, x) >= a]``, summed
    over K ~ Binomial(n, q), n = a + b - 1, q = min(x, 1-x): K counts the
    failures when x >= 1/2, and the tail is K < b, or the successes, and
    the tail is K >= a. The walk starts at P[K = 0] = (1-q)^n and takes
    each term from the one before, times ``(n-k) q / ((k+1) (1-q))``. Of
    the two sides of the cut it sums the one without the mode, and
    returns that sum or one minus it, so values near 0 and near 1 both
    keep their precision. It touches only the terms that contribute: past
    the mode it stops once the rest is below half an ulp.

    Against 40-digit mpmath the relative error is at most 4.4e-15 for
    x = 0.99 and every ell in [m-100, m] at m = 700, 1000, 2000 and 8000,
    and at most 1.6e-16 at (0.9999, 99999, 2), (0.9999, 199998, 3),
    (0.999998, 8464286, 2) and (0.995, 1998, 3). For x >= 1/2 the start
    x^n is good to an ulp. For x < 1/2 it comes from log1p, with a
    relative error of about n |log2(1-x)| ulp: up to 1.1e-13 over 36
    log-uniform draws of a in [1, 1e5], b in [1, 1e3] and x in [0, 1],
    and 4.4e-13 at (0.3166, 1956, 2411). Values below about 1e-300 lose
    digits to underflow.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    check_integer("a", a, 1)
    check_integer("b", b, 1)
    if x == 0.0 or x == 1.0:
        return 1.0 if x == 1.0 else 0.0
    x, a, b = float(x), int(a), int(b)
    n = a + b - 1
    if x >= 0.5:  # the start x**n is good to an ulp
        q, cut, tail_below_cut, start = 1.0 - x, b, True, x**n
    else:  # 1 - x rounds, so the start comes from log1p(-x)
        q, cut, tail_below_cut, start = x, a, False, 0.0
    ratio = q / (1.0 - q)
    mode = math.floor((n + 1) * q)
    if start > _FLOOR:
        shift, term = 0, start  # P[K = k] is term * 2**shift
    else:
        log2_term = n * math.log1p(-q) / _LN2
        shift = math.floor(log2_term)
        term = 2.0 ** (log2_term - shift)
    total, term, shift, k = _walk(term, shift, n, ratio, 0, cut)  # P[K < cut]
    if k < cut:  # the rest, P[K >= cut] included, is negligible
        if tail_below_cut:
            return 1.0
    elif cut <= mode:
        below = math.ldexp(total, shift)
        return below if tail_below_cut else 1.0 - below
    for k in range(k, cut):  # on to P[K = cut] past negligible terms
        term *= (n - k) / (k + 1) * ratio
        if not _TINY < term < _HUGE:
            term, e = math.frexp(term)
            shift += e
    total, _, shift, _ = _walk(term, shift, n, ratio, cut, n + 1)  # P[K >= cut]
    above = math.ldexp(total, shift)
    return 1.0 - above if tail_below_cut else above


def _walk(term, shift, n, ratio, k, stop):
    """Sum of the binomial terms P[K = k], ..., P[K = stop - 1], where
    P[K = k] is ``term * 2**shift``. Past the mode it stops once the rest
    is below half an ulp of the sum. Returns the sum and the next term as
    mantissas of the power of two ``2**shift``, that ``shift``, and the
    index of the next term."""
    total = 0.0
    for k in range(k, stop):
        total += term
        step = (n - k) / (k + 1) * ratio
        term *= step
        if term > _HUGE:
            term, e = math.frexp(term)
            total = math.ldexp(total, -e)
            shift += e
        elif step < 1.0 and term < total * (1.0 - step) * _NEGLIGIBLE:
            return total, term, shift, k + 1
    return total, term, shift, stop


def guarantee_confidence(
    epsilon: float, rank_ell: int, calib_size_m: int
) -> GuaranteeSpec:
    """Assemble the full guarantee for the triple (epsilon, ell, m).

    The confidence is ``delta2 = 1 - I_{1-eps}(ell, m+1-ell)``; unlike the
    one-step marginal guarantee there is no coupling constraint between
    ell, m and epsilon beyond 1 <= ell <= m, both integers.
    """
    check_number("epsilon", epsilon, positive=False)
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    check_integer("rank_ell", rank_ell, 1)
    check_integer("calib_size_m", calib_size_m, 1)
    if rank_ell > calib_size_m:
        raise ValueError(
            f"rank must satisfy 1 <= ell <= m, got ell={rank_ell!r}, m={calib_size_m!r}"
        )
    miscoverage = beta_cdf(1.0 - epsilon, rank_ell, calib_size_m + 1 - rank_ell)
    # plain Python numbers, so ``as_dict`` is ready for ``json.dumps``
    return GuaranteeSpec(
        epsilon=epsilon,
        rank_ell=int(rank_ell),
        calib_size_m=int(calib_size_m),
        coverage_delta1=1.0 - epsilon,
        confidence_delta2=1.0 - miscoverage,
        confidence_miscoverage=miscoverage,
    )
