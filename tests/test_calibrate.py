import numpy as np
import pytest

from conformal_reach.calibrate import (
    CalibrationSet,
    build_calibration,
    center_and_scales,
    naive_reachset,
    nonconformity,
    nonconformity_batch,
)
from conformal_reach.guarantees import guarantee_confidence


class TestCenterAndScales:
    def test_hand_arithmetic(self):
        # outputs [0,0] and [2,4]: c=[1,2], mean abs dev 1.5, taus [1,2]
        cs = center_and_scales(np.array([[0.0, 0.0], [2.0, 4.0]]))
        np.testing.assert_array_equal(cs.center, [1.0, 2.0])
        assert cs.tau_star == pytest.approx(1.5e-5)
        np.testing.assert_array_equal(cs.tau, [1.0, 2.0])
        assert not cs.degenerate

    def test_identical_cloud_hits_floor(self):
        cs = center_and_scales(np.tile([3.0, -1.0], (5, 1)))
        assert cs.tau_star == 1e-12
        np.testing.assert_array_equal(cs.tau, [1e-12, 1e-12])
        assert cs.degenerate

    def test_constant_coordinate_gets_tau_star(self):
        y = np.array([[0.0, 7.0], [2.0, 7.0], [4.0, 7.0]])
        cs = center_and_scales(y)
        assert cs.tau[1] == cs.tau_star
        assert cs.tau[0] == 2.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            center_and_scales(np.empty((0, 3)))


class TestNonconformity:
    def test_center_scores_zero(self):
        cs = center_and_scales(np.array([[0.0, 0.0], [2.0, 4.0]]))
        assert nonconformity(cs.center, cs) == 0.0

    def test_hand_value(self):
        cs = center_and_scales(np.array([[-1.0, -2.0], [1.0, 2.0]]))
        # c = 0, tau = [1, 2]; y = [1, 4] -> max(1, 2) = 2
        assert nonconformity(np.array([1.0, 4.0]), cs) == pytest.approx(2.0)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        cs = center_and_scales(rng.normal(size=(20, 6)))
        y = rng.normal(size=6)
        base = nonconformity(cs.center + y, cs)
        for s in (0.25, 3.0, 11.5):
            assert nonconformity(cs.center + s * y, cs) == pytest.approx(
                s * base, rel=1e-12
            )

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(1)
        cs = center_and_scales(rng.normal(size=(10, 4)))
        ys = rng.normal(size=(25, 4))
        batch = nonconformity_batch(ys, cs)
        for i, y in enumerate(ys):
            assert batch[i] == nonconformity(y, cs)

    def test_batch_agrees_with_scalar_across_row_blocks(self):
        # 150 rows: two full scoring blocks and a partial one
        rng = np.random.default_rng(2)
        cs = center_and_scales(rng.normal(size=(10, 300)))
        ys = rng.normal(size=(150, 300))
        expected = [nonconformity(y, cs) for y in ys]
        np.testing.assert_array_equal(nonconformity_batch(ys, cs), expected)


class TestBuildCalibration:
    def test_sorting(self):
        cs = center_and_scales(np.array([[0.0], [2.0]]))
        # scores for outputs 3, 1, 2 (center 1, tau 1): {2, 0, 1}
        calib = build_calibration(np.array([[3.0], [1.0], [2.0]]), cs)
        np.testing.assert_array_equal(calib.scores, [0.0, 1.0, 2.0])

    def test_duplicates_preserved(self):
        cs = center_and_scales(np.array([[0.0], [2.0]]))
        calib = build_calibration(np.array([[2.0], [2.0], [0.0]]), cs)
        np.testing.assert_array_equal(calib.scores, [1.0, 1.0, 1.0])
        assert calib.size == 3

    def test_single_sample_rank_one(self):
        cs = center_and_scales(np.array([[0.0], [2.0]]))
        calib = build_calibration(np.array([[4.0]]), cs)
        assert calib.rank_score(1) == pytest.approx(3.0)


class TestCalibrationSet:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_scores(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CalibrationSet(scores=np.array([0.5, 1.0, bad]))

    def test_build_calibration_rejects_nan_output(self):
        cs = center_and_scales(np.array([[0.0, 1.0], [2.0, 3.0]]))
        with pytest.raises(ValueError, match="finite"):
            build_calibration(np.array([[1.0, 2.0], [np.nan, 2.0], [0.5, 2.5]]), cs)


class TestNaiveReachset:
    def test_hand_box(self):
        cs = center_and_scales(np.array([[-1.0, -3.0], [1.0, 3.0]]))  # c=0, tau=[1,3]
        calib = CalibrationSet(scores=np.array([0.5, 1.0, 2.0]))
        g = guarantee_confidence(0.1, 2, 3)
        rs = naive_reachset(calib, cs, g)
        np.testing.assert_array_equal(rs.sigma, [1.0, 3.0])
        lo, hi = rs.project_intervals()
        np.testing.assert_array_equal(lo, [-1.0, -3.0])
        np.testing.assert_array_equal(hi, [1.0, 3.0])

    def test_rank_m_takes_max(self):
        cs = center_and_scales(np.array([[-1.0], [1.0]]))
        calib = CalibrationSet(scores=np.array([0.5, 1.0, 2.0]))
        g = guarantee_confidence(0.1, 3, 3)
        rs = naive_reachset(calib, cs, g)
        np.testing.assert_array_equal(rs.sigma, [2.0])

    def test_boundary_point_scores_threshold(self):
        rng = np.random.default_rng(2)
        train = rng.normal(size=(50, 5))
        cs = center_and_scales(train)
        calib = build_calibration(rng.normal(size=(40, 5)), cs)
        g = guarantee_confidence(0.1, 30, 40)
        rs = naive_reachset(calib, cs, g)
        y = cs.center.copy()
        y[3] += rs.sigma[3]
        assert nonconformity(y, cs) == pytest.approx(calib.rank_score(30), rel=1e-12)

    def test_score_box_equivalence(self):
        rng = np.random.default_rng(3)
        train = rng.normal(size=(30, 8)) * rng.uniform(0.5, 4.0, size=8)
        cs = center_and_scales(train)
        calib = build_calibration(rng.normal(size=(100, 8)), cs)
        g = guarantee_confidence(0.05, 90, 100)
        rs = naive_reachset(calib, cs, g)
        lo, hi = rs.project_intervals()
        thr = calib.rank_score(90)
        ys = cs.center + rng.normal(size=(10_000, 8)) * (2.5 * cs.tau * thr)
        by_score = nonconformity_batch(ys, cs) <= thr
        by_box = np.all((ys >= lo) & (ys <= hi), axis=1)
        np.testing.assert_array_equal(by_score, by_box)

    def test_raising_rank_never_shrinks(self):
        rng = np.random.default_rng(4)
        cs = center_and_scales(rng.normal(size=(20, 3)))
        calib = build_calibration(rng.normal(size=(60, 3)), cs)
        prev = np.zeros(3)
        for ell in range(1, 61):
            g = guarantee_confidence(0.05, ell, 60)
            sigma = naive_reachset(calib, cs, g).sigma
            assert np.all(sigma >= prev)
            prev = sigma

    def test_rank_out_of_range(self):
        cs = center_and_scales(np.array([[-1.0], [1.0]]))
        calib = CalibrationSet(scores=np.array([0.5, 1.0]))
        g = guarantee_confidence(0.1, 2, 3)  # m mismatch with calib size
        with pytest.raises(ValueError):
            naive_reachset(calib, cs, g)


def test_coverage_consistent_with_beta_law():
    # small-scale version of the coverage property: empirical miscoverage of
    # the box on fresh same-distribution samples should fall below the
    # 99.9th percentile of the Beta-implied miscoverage law
    from scipy.stats import beta as scipy_beta

    rng = np.random.default_rng(5)
    n, m, ell = 4, 500, 490
    A = rng.normal(size=(n, 3))

    def f(lams):
        return np.tanh(lams @ A.T) + 0.1 * lams[:, :1]

    train = f(rng.uniform(-1, 1, size=(250, 3)))
    cs = center_and_scales(train)
    calib = build_calibration(f(rng.uniform(-1, 1, size=(m, 3))), cs)
    g = guarantee_confidence(0.05, ell, m)
    rs = naive_reachset(calib, cs, g)
    lo, hi = rs.project_intervals()
    fresh = f(rng.uniform(-1, 1, size=(50_000, 3)))
    miss = np.mean(~np.all((fresh >= lo) & (fresh <= hi), axis=1))
    bound = scipy_beta.ppf(0.999, m + 1 - ell, ell)
    assert miss <= bound
