"""Property tests: clip invariants on random hulls, beta_cdf monotonicity,
the one-pass center and scales against the stacked cloud, and the l2-ball
sampler against its whole-array form."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conformal_reach.calibrate import TAU_ABSOLUTE_FLOOR, center_and_scales
from conformal_reach.guarantees import beta_cdf
from conformal_reach.hull import HullModel, clip_batch
from conformal_reach.model import _ROW_BLOCK, ImageTensor
from conformal_reach.perturb import build_global_ball, sample_lambdas

from oracles import center_deviations, clip_weights, l2_ball_draw

# Fixed example sequence, no example database: a run reproduces exactly.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

coordinate = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def hull_and_point(draw):
    t = draw(st.integers(1, 8))
    N = draw(st.integers(1, 4))
    points = draw(arrays(np.float64, (t, N), elements=coordinate))
    v = draw(arrays(np.float64, (N,), elements=st.floats(-20.0, 20.0)))
    return points, v


def distance(u):
    return float(np.max(np.abs(u)))


@PROPERTY
@given(hull_and_point())
def test_clip_invariants(case):
    points, v = case
    hull = HullModel.from_points(points)
    (alpha,), (lp_residual,) = clip_weights(hull, v)
    (v_hat,), (residual,) = clip_batch(v[None, :], hull)
    scale = 1.0 + np.abs(points).max() + np.abs(v).max()
    assert residual >= 0.0
    # the LP's weights lie on the simplex and reproduce v_hat
    assert np.all(alpha >= 0.0)
    assert abs(alpha.sum() - 1.0) <= 1e-9
    np.testing.assert_allclose(v_hat, points.T @ alpha, rtol=0, atol=1e-12 * scale)
    # the residual is the attained l-inf distance
    assert abs(residual - distance(v - v_hat)) <= 1e-9 * scale
    assert abs(lp_residual - residual) <= 1e-9 * scale


@PROPERTY
@given(hull_and_point(), st.data())
def test_clip_batch_rows_attain_their_residuals(case, data):
    # the hull's points, points near them and far ones, through the
    # interior test and the lockstep LP alike
    points, v = case
    picks = data.draw(arrays(np.int64, (6,), elements=st.integers(0, points.shape[0] - 1)))
    shifts = data.draw(arrays(np.float64, (6, points.shape[1]), elements=st.floats(-1.0, 1.0)))
    V = np.vstack([v, points[picks], points[picks] + shifts])
    V_hat, residuals = clip_batch(V, HullModel.from_points(points))
    scale = 1.0 + np.abs(points).max() + np.abs(V).max()
    for row in range(V.shape[0]):
        attained = distance(V[row] - V_hat[row])
        assert abs(attained - residuals[row]) <= 1e-9 * scale


@PROPERTY
@given(hull_and_point(), st.data())
def test_hull_points_are_fixed(case, data):
    points, _ = case
    i = data.draw(st.integers(0, points.shape[0] - 1))
    _, (residual,) = clip_batch(points[i : i + 1], HullModel.from_points(points))
    assert residual <= 1e-9


@PROPERTY
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(1, 5000),
    st.integers(1, 5000),
)
def test_beta_cdf_is_monotonic(x1, x2, a, b):
    lo, hi = min(x1, x2), max(x1, x2)
    assert beta_cdf(lo, a, b) <= beta_cdf(hi, a, b)


@st.composite
def cloud_and_blocks(draw):
    # n >= 2: numpy's mean sums a lone column pairwise, not row by row
    t = draw(st.integers(1, 12))
    y = draw(arrays(np.float64, (t, draw(st.integers(2, 5))), elements=coordinate))
    cuts = draw(st.lists(st.integers(1, t - 1), unique=True)) if t > 1 else []
    return y, np.split(y, sorted(cuts))


@PROPERTY
@given(cloud_and_blocks())
def test_one_pass_tau_keeps_the_stacked_scales(case):
    y, blocks = case
    cs = center_and_scales(iter(blocks))
    c, max_dev, mean_abs_dev = center_deviations(y)
    np.testing.assert_array_equal(cs.center, c)
    # the stacked cloud's tau* was 1e-5 * mean|y - c|; the slack covers the
    # rounding of two means over different counts
    old_tau_star = max(1e-5 * mean_abs_dev, TAU_ABSOLUTE_FLOOR)
    assert cs.tau_star >= old_tau_star * (1.0 - 1e-12)
    # wherever no max deviation falls below the new tau*, tau is the old one
    kept = max_dev >= cs.tau_star
    np.testing.assert_array_equal(cs.tau[kept], np.maximum(old_tau_star, max_dev)[kept])


@PROPERTY
@given(
    st.one_of(
        st.sampled_from([1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1]),
        st.integers(1, 4 * _ROW_BLOCK),
    ),
    st.integers(1, 3000),
    st.floats(1e-3, 1e3),
    st.integers(0, 2**32 - 1),
)
def test_l2_draws_equal_the_whole_array_form(count, r, radius, seed):
    # rows are normalized in blocks and scaled in place, with the same bits
    spec = build_global_ball(ImageTensor.from_array(np.zeros((1, r))), "l2", radius)
    got = sample_lambdas(spec, count, np.random.default_rng(seed))
    want = l2_ball_draw(radius, count, r, np.random.default_rng(seed))
    np.testing.assert_array_equal(got, want)
