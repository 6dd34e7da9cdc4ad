import math

import numpy as np
import pytest
from scipy.stats import beta as scipy_beta, kstest

from conformal_reach.guarantees import beta_cdf, guarantee_confidence


def closed_form_b2(x, a):
    # I_x(a, 2) = x^a ((a+1) - a x), independent of the summed binomial tail
    return math.exp(a * math.log(x)) * ((a + 1) - a * x)


class TestBetaCdf:
    def test_endpoints_and_uniform(self):
        assert beta_cdf(1.0, 3, 5) == 1.0
        assert beta_cdf(0.0, 3, 5) == 0.0
        assert beta_cdf(1.0, 99999, 2) == 1.0
        assert beta_cdf(0.5, 1, 1) == pytest.approx(0.5, abs=1e-15)

    def test_appendix_example_large_a(self):
        # 1 - result is the 0.9995008 confidence of the clarifying example
        val = beta_cdf(0.9999, 99999, 2)
        assert val == pytest.approx(0.0004992, abs=5e-8)
        assert val == pytest.approx(closed_form_b2(0.9999, 99999), rel=1e-10)

    def test_deep_toy_guarantee_value(self):
        assert beta_cdf(0.9999, 199998, 3) <= 5e-7

    def test_against_mpmath_grid(self):
        # Broad sweep over the integer shape decades, log-uniform. 1e-9
        # leaves room for the values deep in the tails, far from the
        # guarantee regime; the tighter checks below pin the regime we
        # actually use.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rng = np.random.default_rng(7)
        for _ in range(36):
            a = round(10.0 ** rng.uniform(0.0, 5.0))
            b = round(10.0 ** rng.uniform(0.0, 3.0))
            x = rng.uniform(0.0, 1.0)
            ref = float(mp.betainc(a, b, 0, x, regularized=True))
            got = beta_cdf(x, a, b)
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-300)

    def test_against_mpmath_guarantee_regime(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        cases = [
            (0.9999, 99999, 2),
            (0.9999, 199998, 3),
            (0.999998, 8464286, 2),
            (0.999, 7999, 2),
            (0.99, 920, 2),
            (0.995, 1998, 3),
            (0.37, 12, 48),
        ]
        for x, a, b in cases:
            exact = float(mp.betainc(a, b, 0, x, regularized=True))
            assert beta_cdf(x, a, b) == pytest.approx(exact, rel=1e-12)

    def test_against_mpmath_small_x(self):
        # tiny values at small x keep their relative precision, also
        # below 2**-53, where 1 - x rounds to exactly 1
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        cases = [
            (1e-10, 2, 5),
            (1e-10, 2, 6),
            (3e-9, 2, 3),
            (1e-6, 3, 100),
            (1e-20, 1, 65),
            (1e-300, 1, 1),
        ]
        for x, a, b in cases:
            exact = float(mp.betainc(a, b, 0, x, regularized=True))
            assert beta_cdf(x, a, b) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("m", [700, 1000, 2000, 8000])
    def test_against_mpmath_at_selected_ranks(self, m):
        # every rank that select_rank can settle on at these calibration
        # sizes, at the benchmark's miscoverage 0.01
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        x = 1.0 - 0.01
        for ell in range(m - 100, m + 1):
            exact = float(mp.betainc(ell, m + 1 - ell, 0, x, regularized=True))
            assert beta_cdf(x, ell, m + 1 - ell) == pytest.approx(exact, rel=1e-12), ell

    @pytest.mark.parametrize("m", [700, 1000, 2000, 8000])
    def test_near_one_against_mpmath_complement(self, m):
        # the ranks a bisection over [1, m] probes first give values near
        # 1, exact to a few ulp of 1 against mpmath's complement
        # I_{1-x}(b, a); where that complement rounds away, 1 exactly
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        x = 1.0 - 0.01
        for ell in range(1, m + 1, m // 60):
            comp = mp.betainc(m + 1 - ell, ell, 0, 1 - mp.mpf(x), regularized=True)
            want, got = float(1 - comp), beta_cdf(x, ell, m + 1 - ell)
            assert abs(got - want) <= 2.0**-50, ell
            assert got == 1.0 or want < 1.0, ell

    def test_symmetry_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = round(10.0 ** rng.uniform(0, 4))
            b = round(10.0 ** rng.uniform(0, 4))
            x = rng.uniform(1e-6, 1 - 1e-6)
            assert beta_cdf(x, a, b) == pytest.approx(
                1.0 - beta_cdf(1.0 - x, b, a), abs=1e-10
            )

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 801)
        vals = [beta_cdf(x, 37, 4) for x in xs]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_cdf(-0.1, 1, 1)
        with pytest.raises(ValueError):
            beta_cdf(1.1, 1, 1)
        with pytest.raises(ValueError):
            beta_cdf(0.5, 0.0, 1)
        with pytest.raises(ValueError):
            beta_cdf(0.5, 1, -2.0)

    @pytest.mark.parametrize("bad", [2.5, True, 0])
    def test_shapes_must_be_positive_integers(self, bad):
        with pytest.raises(ValueError, match="^a must be a positive integer"):
            beta_cdf(0.5, bad, 3)
        with pytest.raises(ValueError, match="^b must be a positive integer"):
            beta_cdf(0.5, 3, bad)


class TestGuaranteeConfidence:
    def test_appendix_clarifying_example(self):
        g = guarantee_confidence(1e-4, 99999, 100000)
        assert g.confidence_delta2 == pytest.approx(0.9995008, abs=1e-7)
        assert g.coverage_delta1 == 1.0 - 1e-4

    def test_deep_toy_second_setting(self):
        g = guarantee_confidence(2e-6, 8464286, 8464287)
        assert g.confidence_delta2 > 0.9999992

    def test_segmentation_settings(self):
        g = guarantee_confidence(0.001, 7999, 8000)
        assert g.confidence_delta2 == pytest.approx(0.997, abs=1e-3)
        # The paper's table prints 0.997 for (921, 1) at delta1 = 0.99 as
        # well, but its own formula gives 0.999016; assert the formula.
        g = guarantee_confidence(0.01, 920, 921)
        assert g.confidence_delta2 == pytest.approx(0.9990160, abs=1e-6)

    def test_recomputation_identity_is_stable(self):
        # same inputs twice -> bitwise identical delta2
        a = guarantee_confidence(0.005, 1998, 2000)
        b = guarantee_confidence(0.005, 1998, 2000)
        assert a.confidence_delta2 == b.confidence_delta2
        assert a.confidence_miscoverage == b.confidence_miscoverage

    def test_delta2_recomputable_from_fields(self):
        g = guarantee_confidence(0.01, 920, 921)
        re = 1.0 - beta_cdf(
            g.coverage_delta1, g.rank_ell, g.calib_size_m + 1 - g.rank_ell
        )
        assert abs(re - g.confidence_delta2) <= 1e-10 * max(abs(re), 1.0)

    def test_non_integer_rank_or_size_rejected(self):
        for ell, m in [(999.5, 1000), (999.0, 1000), (True, 1), (5, 10.0), (1, True)]:
            with pytest.raises(ValueError, match="integer"):
                guarantee_confidence(0.5, ell, m)
        # numpy integers are integers
        g = guarantee_confidence(0.01, np.int64(920), np.int32(921))
        assert g.confidence_delta2 == guarantee_confidence(0.01, 920, 921).confidence_delta2

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            guarantee_confidence(0.1, 0, 10)
        with pytest.raises(ValueError):
            guarantee_confidence(0.1, 11, 10)
        with pytest.raises(ValueError):
            guarantee_confidence(0.0, 5, 10)
        with pytest.raises(ValueError):
            guarantee_confidence(1.0, 5, 10)
        for bad in ("0.1", True, None):
            with pytest.raises(ValueError, match=f"^epsilon must be a real number, got {bad!r}$"):
                guarantee_confidence(bad, 5, 10)
        # numpy floats are real numbers
        g = guarantee_confidence(np.float64(0.1), 5, 10)
        assert g.confidence_delta2 == guarantee_confidence(0.1, 5, 10).confidence_delta2


def test_order_statistic_follows_beta_law():
    # Monte-Carlo check of the rank-statistics lemma: for uniform draws the
    # coverage Pr[R_{m+1} < R_ell] equals the ell-th order statistic, whose
    # law is Beta(ell, m+1-ell). KS statistic must sit below the 1% critical
    # value for 10^4 replications.
    rng = np.random.default_rng(2024)
    m, ell, reps = 400, 380, 10_000
    draws = rng.random((reps, m))
    order_stat = np.partition(draws, ell - 1, axis=1)[:, ell - 1]
    res = kstest(order_stat, scipy_beta(ell, m + 1 - ell).cdf)
    critical_1pct = 1.6276 / math.sqrt(reps)
    assert res.statistic < critical_1pct
