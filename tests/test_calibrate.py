import re

import numpy as np
import pytest

from conformal_reach.calibrate import (
    CalibrationSet,
    CenterScale,
    ReachSet,
    build_calibration,
    center_and_scales,
    naive_reachset,
    nonconformity_batch,
    stream_calibration,
)
from conformal_reach.guarantees import guarantee_confidence
from conformal_reach.model import INFER_CHUNK

from oracles import box_score, center_deviations


def score(y, cs):
    """``nonconformity_batch`` of the one output y."""
    return nonconformity_batch(np.asarray(y)[None, :], cs)[0]


def reused_blocks(y, sizes):
    """The rows of y in blocks of ``sizes`` rows, each a view of one reused
    buffer, the way ``stage_outputs`` yields a stage's outputs."""
    buf = np.empty((max(sizes), y.shape[1]))
    start = 0
    for k in sizes:
        buf[:k] = y[start : start + k]
        yield buf[:k]
        start += k


ONE_PASS_T = 2 * INFER_CHUNK + 300


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

    @pytest.mark.parametrize(
        "sizes",
        [
            None,
            [INFER_CHUNK, INFER_CHUNK, 300],
            [1, 7, 1000, ONE_PASS_T - 1008],
            [1] * ONE_PASS_T,
        ],
        ids=["one-array", "infer-chunks", "uneven", "one-row"],
    )
    def test_one_pass_equals_stacked_oracle(self, sizes):
        # offsets far above the spread make every row's rounding count
        rng = np.random.default_rng(6)
        y = rng.normal(size=(ONE_PASS_T, 7)) * rng.uniform(0.1, 1e3, size=7)
        y += rng.normal(size=7) * 1e4
        cs = center_and_scales(y if sizes is None else reused_blocks(y, sizes))
        c, max_dev, _ = center_deviations(y)
        np.testing.assert_array_equal(cs.center, c)
        assert cs.tau_star == 1e-5 * max_dev.mean()
        np.testing.assert_array_equal(cs.tau, np.maximum(cs.tau_star, max_dev))

    def test_tau_star_is_mean_of_max_deviations(self):
        # c = [1, 2]; |y - c| is 1, 1, 1, 3 and 2, 2, 2, 6: the mean absolute
        # deviation 2.25 gave tau* 2.25e-5, the max deviations [3, 6] give 4.5e-5
        y = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [4.0, 8.0]])
        cs = center_and_scales([y[:1], y[1:]])
        assert center_deviations(y)[2] == 2.25
        assert cs.tau_star == pytest.approx(4.5e-5, rel=1e-15)
        np.testing.assert_array_equal(cs.tau, [3.0, 6.0])

    @pytest.mark.parametrize(
        "blocks, match",
        [
            ([], "holds no block"),
            ([np.ones((2, 3)), np.empty((0, 3))], "train block 1 has no rows"),
            ([np.ones(3)], r"train block 0 must be a \(k, n\) array"),
            ([np.ones((2, 3)), np.ones((2, 4))], "train block 1 has width 4, block 0 has 3"),
        ],
        ids=["no-block", "zero-rows", "one-dim", "widths-differ"],
    )
    def test_rejects_bad_blocks(self, blocks, match):
        with pytest.raises(ValueError, match=match):
            center_and_scales(iter(blocks))

    @pytest.mark.parametrize(
        "bad",
        [[[np.nan, 0.0]], [[np.inf, 0.0]], [[-np.inf, 0.0]], [[np.inf, 0.0], [-np.inf, 0.0]]],
        ids=["nan", "inf", "-inf", "inf-minus-inf"],
    )
    def test_non_finite_output_fails_as_center(self, bad):
        with pytest.raises(ValueError, match="center must be finite"):
            center_and_scales([np.array([[1.0, 2.0], [3.0, 4.0]]), np.array(bad)])


class TestNonconformity:
    def test_center_scores_zero(self):
        cs = center_and_scales(np.array([[0.0, 0.0], [2.0, 4.0]]))
        assert score(cs.center, cs) == 0.0

    def test_hand_value(self):
        cs = center_and_scales(np.array([[-1.0, -2.0], [1.0, 2.0]]))
        # c = 0, tau = [1, 2]; y = [1, 4] -> max(1, 2) = 2
        assert score(np.array([1.0, 4.0]), cs) == pytest.approx(2.0)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        cs = center_and_scales(rng.normal(size=(20, 6)))
        y = rng.normal(size=6)
        base = score(cs.center + y, cs)
        for s in (0.25, 3.0, 11.5):
            assert score(cs.center + s * y, cs) == pytest.approx(
                s * base, rel=1e-12
            )

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(1)
        cs = center_and_scales(rng.normal(size=(10, 4)))
        ys = rng.normal(size=(25, 4))
        batch = nonconformity_batch(ys, cs)
        for i, y in enumerate(ys):
            assert batch[i] == box_score(y, cs.center, cs.tau)

    def test_batch_agrees_with_scalar_across_row_blocks(self):
        # 150 rows: two full scoring blocks and a partial one
        rng = np.random.default_rng(2)
        cs = center_and_scales(rng.normal(size=(10, 300)))
        ys = rng.normal(size=(150, 300))
        expected = [box_score(y, cs.center, cs.tau) for y in ys]
        np.testing.assert_array_equal(nonconformity_batch(ys, cs), expected)

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (3, 2, 1)], ids=["vector", "width", "three-dim"])
    def test_rejects_a_batch_of_another_shape(self, shape):
        cs = center_and_scales(np.array([[0.0, 1.0], [2.0, 3.0]]))
        with pytest.raises(ValueError, match=re.escape(f"ys must be a (k, 2) array, got shape {shape}")):
            nonconformity_batch(np.zeros(shape), cs)


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

    def test_stream_of_no_block(self):
        cs = center_and_scales(np.array([[0.0], [2.0]]))
        with pytest.raises(ValueError, match="^blocks holds no block$"):
            stream_calibration(iter([]), cs)

    @pytest.mark.parametrize("outputs", [np.zeros((0, 2)), np.zeros(3)], ids=["no-rows", "vector"])
    def test_rejects_non_matrix_outputs(self, outputs):
        cs = center_and_scales(np.array([[0.0], [2.0]]))
        with pytest.raises(ValueError, match=r"^outputs must be a non-empty \(m, n\) array$"):
            build_calibration(outputs, cs)


class TestCalibrationSet:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_scores(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CalibrationSet(scores=np.array([0.5, 1.0, bad]))

    def test_build_calibration_rejects_nan_output(self):
        cs = center_and_scales(np.array([[0.0, 1.0], [2.0, 3.0]]))
        with pytest.raises(ValueError, match="finite"):
            build_calibration(np.array([[1.0, 2.0], [np.nan, 2.0], [0.5, 2.5]]), cs)

    @pytest.mark.parametrize(
        "scores, match",
        [
            (np.array([]), "^scores must be a non-empty vector$"),
            (np.zeros((2, 2)), "^scores must be a non-empty vector$"),
            (np.array([-0.5, 1.0]), "^scores must be non-negative$"),
            (np.array([1.0, 0.5]), "^scores must be sorted ascending$"),
        ],
        ids=["empty", "matrix", "negative", "unsorted"],
    )
    def test_rejects_bad_scores(self, scores, match):
        with pytest.raises(ValueError, match=match):
            CalibrationSet(scores=scores)

    @pytest.mark.parametrize("rank", [0, 4])
    def test_rank_out_of_range(self, rank):
        calib = CalibrationSet(scores=np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match=f"^rank must satisfy 1 <= ell <= 3, got {rank}$"):
            calib.rank_score(rank)


@pytest.mark.parametrize(
    "center, tau, match",
    [
        (np.zeros(2), np.ones(3), "^center/tau shapes differ$"),
        (np.array([0.0, np.nan]), np.ones(2), "^center must be finite$"),
        (np.zeros(2), np.array([1.0, 0.0]), "^tau must be positive$"),
    ],
    ids=["shapes", "center", "tau"],
)
def test_center_scale_checks(center, tau, match):
    with pytest.raises(ValueError, match=match):
        CenterScale(center=center, tau=tau, tau_star=1.0)


def reach_set(**fields):
    """A two-output ``ReachSet`` with the given fields replaced."""
    parts = dict(
        center=np.array([1.0, -1.0]), sigma=np.array([0.5, 0.0]),
        lift_lb=np.zeros(2), lift_ub=np.zeros(2),
    )
    return ReachSet(**dict(parts, **fields))


class TestReachSet:
    def test_zero_lift_is_the_box(self):
        lo, hi = reach_set().project_intervals()
        np.testing.assert_array_equal(lo, [0.5, -1.0])
        np.testing.assert_array_equal(hi, [1.5, -1.0])

    @pytest.mark.parametrize("fields, match", [
        (dict(center=np.zeros((2, 1))), r"^center must be a vector, got shape \(2, 1\)$"),
        (dict(lift_lb=np.array([0.0, 1.0])), "^lift_lb must be <= lift_ub$"),
        (dict(sigma=np.array([0.5, -1e-300])), "^sigma must be non-negative$"),
    ], ids=["matrix-center", "lifts-crossed", "negative-sigma"])
    def test_rejects(self, fields, match):
        with pytest.raises(ValueError, match=match):
            reach_set(**fields)

    @pytest.mark.parametrize("name", ["center", "sigma", "lift_lb", "lift_ub"])
    @pytest.mark.parametrize("fault", ["nan", "inf", "-inf", "short", "long"])
    def test_rejects_bad_vector(self, name, fault):
        vector = getattr(reach_set(), name)
        if fault == "short":
            vector = vector[:-1]
        elif fault == "long":
            vector = np.append(vector, 0.0)
        else:
            vector = vector.copy()
            vector[1] = float(fault)
        # a center of the wrong length shows as sigma disagreeing with it
        if fault in ("short", "long"):
            blamed = "sigma" if name == "center" else name
            match = f"^{blamed} must have the shape"
        else:
            match = f"^{name} must be finite$"
        with pytest.raises(ValueError, match=match):
            reach_set(**{name: vector})

    def test_zero_sigma_is_lift_box(self):
        lo, hi = reach_set(
            center=np.zeros(2), sigma=np.zeros(2),
            lift_lb=np.array([-1.0, 0.0]), lift_ub=np.array([2.0, 3.0]),
        ).project_intervals()
        np.testing.assert_array_equal(lo, [-1.0, 0.0])
        np.testing.assert_array_equal(hi, [2.0, 3.0])


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
        assert score(y, cs) == pytest.approx(calib.rank_score(30), rel=1e-12)

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
