import functools
import tracemalloc

import numpy as np
import pytest

from conformal_reach import hull as hull_module
from conformal_reach import model as model_module
from conformal_reach.hull import HullModel, LpError, clip_batch
from conformal_reach.model import ImageTensor, MlpNetwork, infer, random_mlp
from conformal_reach.pca import deflate
from conformal_reach.perturb import build_global_ball
from conformal_reach.verify import PipelineStageError, run_surrogate_pipeline

from oracles import (
    clip_weights,
    enumerate_lp_minimum,
    grid_clip_residual,
    surrogate_fit,
)
from test_golden import GOLDEN_DIR


def make_hull(points):
    return HullModel.from_points(np.asarray(points, dtype=float))


def clip_row(v, hull):
    """``clip_batch`` on the one row v: its point and residual."""
    V_hat, residuals = clip_batch(np.asarray(v, dtype=float)[None, :], hull)
    return V_hat[0], residuals[0]


def clip_lp_rows(points, v):
    """The clip LP written from its definition for ``enumerate_lp_minimum``.

    Variables x = (alpha, s) >= 0 minimize s subject to |v - P alpha| <= s
    coordinatewise and sum(alpha) = 1, the equality as two rows.
    """
    t, N = points.shape
    epi = np.ones((N, 1))
    ones = np.ones((1, t))
    a_ub = np.vstack([
        np.hstack([points.T, -epi]),
        np.hstack([-points.T, -epi]),
        np.hstack([ones, [[0.0]]]),
        np.hstack([-ones, [[0.0]]]),
    ])
    b_ub = np.concatenate([v, -v, [1.0, -1.0]])
    c = np.concatenate([np.zeros(t), [1.0]])
    return c, a_ub, b_ub


class TestClip:
    def test_hull_point_is_fixed(self):
        hull = make_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        v_hat, residual = clip_row([1.0, 0.0], hull)
        assert residual <= 1e-7
        np.testing.assert_allclose(v_hat, [1.0, 0.0], atol=1e-8)

    def test_segment_hand_geometry(self):
        # hull = segment {(0,0),(1,0)}, v = (0.5, 1): the l_inf residual is
        # 1, attained by every point of the segment (|0.5 - a| <= 1 for all
        # a in [0,1]), so only the residual and feasibility are pinned; a
        # dense grid over alpha confirms the same minimum
        hull = make_hull([[0.0, 0.0], [1.0, 0.0]])
        v = np.array([0.5, 1.0])
        v_hat, residual = clip_row(v, hull)
        (alpha,), _ = clip_weights(hull, v)
        assert residual == pytest.approx(1.0, abs=1e-9)
        assert v_hat[1] == pytest.approx(0.0, abs=1e-9)
        assert -1e-9 <= v_hat[0] <= 1 + 1e-9
        assert alpha.sum() == pytest.approx(1.0, abs=1e-9)
        assert grid_clip_residual(hull.points, v, 1000) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_interior_point(self):
        # the ratio test drops the epigraph s (column t, basis slot 1) at 0,
        # so the row ends with s nonbasic and its residual is exactly 0
        hull = make_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        v = np.array([0.2, 0.3])
        v_hat, residual = clip_row(v, hull)
        assert residual == 0.0
        np.testing.assert_allclose(v_hat, v, rtol=0, atol=1e-12)
        basis, _, _ = hull_module._ClipProblem(hull.points).solve_block(v[None, :])
        assert hull.size not in basis[0]
        # the weights of the LP that clip_batch solves for this row too
        (alpha,), (lp_residual,) = clip_weights(hull, v)
        assert lp_residual <= 1e-7
        assert np.all(alpha >= -1e-9)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(hull.points.T @ alpha, v, atol=1e-7)

    def test_residual_matches_grid_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(12):
            t = int(rng.integers(2, 4))  # support <= 3 keeps step 1e-3 exact
            N = int(rng.integers(2, 5))
            pts = rng.uniform(-1, 1, size=(t, N))
            v = rng.uniform(-1.5, 1.5, size=N)
            hull = make_hull(pts)
            _, residual = clip_row(v, hull)
            oracle = grid_clip_residual(pts, v, 1000)
            assert abs(residual - oracle) <= 2e-3
            assert residual <= oracle + 1e-9  # grid can only overestimate

    def test_residual_matches_vertex_enumeration(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            t = int(rng.integers(2, 5))
            N = int(rng.integers(1, 4))
            pts = rng.uniform(-1, 1, size=(t, N))
            if trial % 3 == 0:
                pts[-1] = pts[0]  # repeated generator
            v = rng.uniform(-1.5, 1.5, size=N)
            hull = make_hull(pts)
            _, residual = clip_row(v, hull)
            (alpha,), _ = clip_weights(hull, v)
            oracle = enumerate_lp_minimum(*clip_lp_rows(pts, v))
            assert residual == pytest.approx(oracle, abs=1e-9)
            assert np.all(alpha >= 0.0)
            assert alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 3))
        hull = make_hull(pts)
        V = rng.normal(size=(60, 3)) * 1.5
        V_hat, residuals = clip_batch(V, hull)
        for i in range(0, 60, 7):
            v_hat, res = clip_row(V[i], hull)
            assert abs(residuals[i] - res) <= 1e-8
            np.testing.assert_allclose(V_hat[i], v_hat, atol=1e-7)

    def test_hull_of_small_scale_fixes_an_interior_point(self):
        # the LP's tolerances are absolute: solved at the hull's own scale
        # 1e-10, this point inside it clipped to a vertex, residual 3.1e-11
        hull = make_hull([[1e-10], [2e-281], [1e-10]])
        v_hat, residual = clip_row([6.9e-11], hull)
        assert residual == 0.0
        np.testing.assert_allclose(v_hat, [6.9e-11], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("s", [1e8, 1e10, 1e12])
    def test_hull_of_large_scale_keeps_the_projection(self, s):
        # the LP's tolerances are absolute: solved at the hull's own scale,
        # at 1e8 row 2 reported a residual below the optimum, and at 1e10
        # and 1e12 rows 0 and 2 reported 0 for points 1.13 s and 0.61 s away
        P = np.random.default_rng(1).normal(size=(50, 3))
        V = P[:3] + 1
        _, expected = clip_batch(V, make_hull(P))
        np.testing.assert_allclose(expected, [0.651187, 0.545307, 0.400395], atol=1e-6)
        V_hat, residuals = clip_batch(V * s, make_hull(P * s))
        np.testing.assert_allclose(residuals / s, expected, rtol=1e-9)
        np.testing.assert_allclose(np.abs(V_hat - V * s).max(axis=1) / s, expected, rtol=1e-9)


class TestClipValidation:
    def test_rejects_non_finite_points(self):
        hull = make_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite; row 0"):
            clip_batch(np.array([[np.nan, 0.5]]), hull)
        with pytest.raises(ValueError, match="finite; row 2"):
            clip_batch(np.array([[0.2, 0.2], [2.0, 2.0], [np.inf, 0.0]]), hull)

    @pytest.mark.parametrize("norm", ["l_1", "linf", None])
    def test_rejects_norm_other_than_l_inf(self, norm):
        hull = make_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=f"^norm must be 'l_inf', got {norm!r}$"):
            clip_batch(np.array([[0.2, 0.2]]), hull, norm)

    def test_rejects_wrong_width(self):
        hull = make_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        for bad in (np.zeros((4, 3)), np.zeros(2), np.zeros((1, 2, 1))):
            with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
                clip_batch(bad, hull)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_hull(self, bad):
        with pytest.raises(ValueError, match="^hull points must be finite$"):
            make_hull([[0.0, 0.0], [1.0, bad]])

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0), (3,)])
    def test_rejects_empty_hull(self, shape):
        # a hull of no points, or of points with no coordinate, has no LP
        with pytest.raises(ValueError, match=r"^hull needs a non-empty \(t, N\) point array$"):
            make_hull(np.zeros(shape))

    def test_rejects_wrong_width_on_degenerate_hull(self):
        # two points in 3-D: a flat hull, which clips all the same
        hull = make_hull([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert hull.degenerate
        with pytest.raises(ValueError, match=r"shape \(k, 3\)"):
            clip_batch(np.zeros((5, 2)), hull)


@pytest.mark.parametrize("seed", range(4))
def test_degenerate_is_affine_rank_below_dim(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 8))
    # t <= N points span at most t - 1 < N affine dimensions
    for t in range(1, N + 1):
        assert make_hull(rng.normal(size=(t, N))).degenerate
    # many points on a random k-dimensional affine subspace, k < N
    for k in range(N):
        flat = rng.normal(size=N) + rng.normal(size=(4 * N, k)) @ rng.normal(size=(k, N))
        assert make_hull(flat).degenerate
    # generic clouds of more than N points
    for t in (N + 1, 4 * N):
        assert not make_hull(rng.normal(size=(t, N))).degenerate


def mixed_queries(points, rng, count):
    """Hull points, points just outside the hull and far-away points, so
    rows of one block finish after very different numbers of pivots."""
    t, N = points.shape
    scale = np.ptp(points, axis=0).max()
    vertices = points[rng.integers(0, t, size=count // 3)]
    W = rng.dirichlet(np.ones(t), size=count // 3)
    near = W @ points + rng.normal(scale=0.05 * scale, size=(count // 3, N))
    far = rng.normal(scale=5.0 * scale, size=(count - 2 * (count // 3), N))
    V = np.vstack([vertices, near, far])
    return V[rng.permutation(count)]


class TestLockstep:
    """clip_batch solves blocks of rows in lockstep; each row's result must
    be the one a block of that row alone gives."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Record, per simplex pass, the live rows and the Bland-rule rows."""
        log = []
        entering = hull_module._ClipProblem.entering

        def spy(self, y, basis, bland):
            log.append((y.shape[0], int(np.count_nonzero(bland))))
            return entering(self, y, basis, bland)

        monkeypatch.setattr(hull_module._ClipProblem, "entering", spy)
        return log

    @pytest.mark.parametrize("norm", ["l_inf"])
    def test_batch_matches_rows_over_several_blocks(self, norm, passes, monkeypatch):
        rng = np.random.default_rng(30)
        pts = rng.normal(size=(60, 6))
        pts = np.vstack([pts, pts[:20]])  # repeated generators
        hull = make_hull(pts)
        # a budget of 64 rows of the (k, M, M) inverses, M = 13, so that
        # three blocks take a few hundred queries, not thousands
        monkeypatch.setattr(model_module, "_ROW_BYTES", 8 * 13 * 13 * 64)
        rows = clip_rows(hull)
        assert rows == 64
        V = mixed_queries(pts, rng, 2 * rows + 37)  # three blocks
        V_hat, residuals = clip_batch(V, hull, norm)
        # split the passes into blocks: the live count only grows when a
        # new block starts; in each, rows leave after the first pivot and
        # others go on for at least eight
        live = [rows for rows, _ in passes]
        starts = [0] + [i for i in range(1, len(live)) if live[i] > live[i - 1]]
        assert len(starts) == 3
        for begin, end in zip(starts, starts[1:] + [len(live)]):
            assert live[begin + 1] < live[begin]
            assert end - begin >= 8
        for i in range(V.shape[0]):
            v_hat, res = clip_row(V[i], hull)
            assert residuals[i] == pytest.approx(res, abs=1e-9)
            np.testing.assert_allclose(V_hat[i], v_hat, rtol=0, atol=1e-9)

    def test_degenerate_lps_reach_blands_rule(self, passes):
        # queries at midpoints of pairs of generators of a hull whose
        # points all repeat: pivots are degenerate, and some rows stall
        # long enough to switch to Bland's rule
        rng = np.random.default_rng(192)
        N, t = rng.integers(3, 9), rng.integers(10, 60)  # 7, 42
        pts = rng.normal(size=(t, N))
        pts = np.vstack([pts, pts])
        hull = make_hull(pts)
        V = (pts[rng.integers(0, 2 * t, 100)] + pts[rng.integers(0, 2 * t, 100)]) / 2
        V_hat, residuals = clip_batch(V, hull)
        assert sum(bland for _, bland in passes) > 0
        assert np.all(residuals <= 1e-9)
        np.testing.assert_allclose(V_hat, V, rtol=0, atol=1e-9)
        for i in range(0, V.shape[0], 5):
            _, res = clip_row(V[i], hull)
            assert residuals[i] == pytest.approx(res, abs=1e-9)

    def test_eta_updates_match_fresh_inverses(self, monkeypatch):
        # The block of surrogate-dark16-n10 instance seed 3990686019 that
        # holds `calib` row 437, at the module's own refactorization
        # interval, must match the block solved with a fresh inverse at
        # every pivot: without the small-pivot floor a pivot on eta noise
        # moves the point of query 437 by 0.011.
        hull, C = dark16_clip_case(3990686019)
        row = 437
        start, V = pipeline_block(hull, C, row)  # one lockstep block
        every = hull_module._REFACTOR_EVERY
        monkeypatch.setattr(hull_module, "_REFACTOR_EVERY", 1)
        V_ref, res_ref = clip_batch(V, hull)
        monkeypatch.setattr(hull_module, "_REFACTOR_EVERY", every)
        V_hat, residuals = clip_batch(V, hull)
        assert res_ref[row - start] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(residuals, res_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(V_hat, V_ref, rtol=0, atol=1e-9)
        # the case still arises: without the floor the point moves
        guard_off(monkeypatch)
        V_off, _ = clip_batch(V, hull)
        assert np.abs(V_off[row - start] - V_ref[row - start]).max() > 1e-9

    def test_ill_conditioned_basis_is_not_made_singular(self, monkeypatch):
        # surrogate-dark16-n10 at workload seed 9529, instance 0: at
        # iteration 80 of `calib` row 974 the basis condition number is
        # 1.8e9, and a pivot on d = 1.05e-10 (max|d| = 5.0e4) left the
        # final basis singular: "LpError: singular basis at iteration 81"
        hull, C = dark16_clip_case(2780284557)
        check_row_in_block_and_alone(hull, C, 974)
        # the case still arises: without the floor the solve fails
        guard_off(monkeypatch)
        with pytest.raises(LpError, match="singular basis"):
            clip_row(C[974], hull)

    def test_noise_pivot_does_not_leave_the_hull(self, monkeypatch):
        # surrogate-dark16-n10 at workload seed 8, instance 1: `calib` row
        # 437 was reported at residual 4.6e-17 while the point returned lay
        # 0.487 (l-inf) from the query, on weights summing to 1.0207,
        # outside the hull
        hull, C = dark16_clip_case(3990686019)
        check_row_in_block_and_alone(hull, C, 437)
        # the case still arises: without the floor the point returned does
        # not attain the residual reported
        guard_off(monkeypatch)
        v_hat, residual = clip_row(C[437], hull)
        assert np.abs(v_hat - C[437]).max() - residual > 1e-9

    def test_point_is_formed_from_weights_on_the_simplex(self):
        # surrogate-dark16-n10 instance seed 2780284557, `calib` row 974:
        # the final solve's weights sum to 1 + 4.0e-10 from a basis of
        # condition number 1.5e8, and the point formed from them lay
        # 1.04e-8 (l-inf) from a query whose residual is 0
        hull, C = dark16_clip_case(2780284557)
        row = 974
        (alpha,), _ = clip_weights(hull, C[row])
        assert abs(alpha.sum() - 1.0) > 1e-10  # the case still arises
        start, block = pipeline_block(hull, C, row)
        for V, i in ((block, row - start), (C[row : row + 1], 0)):
            V_hat, residuals = clip_batch(V, hull)
            np.testing.assert_allclose(
                V_hat[i], hull.points.T @ (alpha / alpha.sum()), rtol=0, atol=1e-12
            )
            attained = np.abs(V_hat - V).max(axis=1)
            np.testing.assert_allclose(attained, residuals, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("norm", ["l_inf"])
    def test_row_result_does_not_depend_on_neighbours(self, norm):
        rng = np.random.default_rng(32)
        pts = rng.normal(size=(60, 5))
        hull = make_hull(np.vstack([pts, pts[:10]]))
        V = mixed_queries(pts, rng, 200)
        perm = rng.permutation(V.shape[0])
        V_hat, residuals = clip_batch(V, hull, norm)
        V_hat_p, residuals_p = clip_batch(V[perm], hull, norm)
        np.testing.assert_allclose(residuals_p, residuals[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(V_hat_p, V_hat[perm], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [3990686019, 2780284557])
    def test_block_size_keeps_bits(self, seed):
        # the pricing product (k, 10) @ (10, 1000) is large enough that a
        # BLAS could round a row otherwise at another row count; the whole
        # `calib` block must give the bits of 64-row blocks
        hull, C = dark16_clip_case(seed)
        assert clip_rows(hull) > 64
        V_hat, residuals = clip_batch(C, hull)
        parts = [clip_batch(C[i : i + 64], hull) for i in range(0, C.shape[0], 64)]
        assert np.array_equal(V_hat, np.vstack([p[0] for p in parts]))
        assert np.array_equal(residuals, np.concatenate([p[1] for p in parts]))

    def test_memory_does_not_grow_with_queries(self):
        # beside its (k, N) output the solve holds one lockstep block's
        # (rows, t) pricing array and (rows, M, M) inverses, and the start
        # search's two (row_block(t), t) distance buffers, however many
        # queries it is given: 4.34 MiB here. Distance buffers of (rows, t)
        # read 5.03 MiB, so the bound lies between the two.
        hull, C = dark16_clip_case(3990686019)
        peaks = []
        for V in (C, np.vstack([C, C])):
            tracemalloc.start()
            try:
                V_hat, residuals = clip_batch(V, hull)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - V_hat.nbytes - residuals.nbytes < 4.7 * 2**20
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) < 0.5 * 2**20


def guard_off(monkeypatch):
    """Drop the clip LP's small-pivot floor for one test, so that a test
    of a case the floor guards can check that the case still arises."""
    monkeypatch.setattr(hull_module, "_SMALL_PIVOT", 0.0)


def clip_rows(hull):
    """Rows of one lockstep block of the clip LP on ``hull``."""
    return hull_module._ClipProblem(hull.points).rows


def pipeline_block(hull, V, row):
    """(start, block) of the lockstep block that ``clip_batch(V, hull)``
    solves ``row`` of V in (blocks are cut from the rows in order)."""
    rows = clip_rows(hull)
    start = row - row % rows
    return start, V[start : start + rows]


CLIP_LP_CASES = GOLDEN_DIR / "clip-lp-cases.npz"


@functools.lru_cache(maxsize=None)
def dark16_clip_case(instance_seed):
    """Hull and reduced first `calib` block (1024 rows) of surrogate-dark16-n10
    instance seed 3990686019 or 2780284557 (N = 10), as the pipeline formed
    them at commit 4383880, read from ``golden/clip-lp-cases.npz``; shared
    by the tests, which only read it.

    The inputs are stored, not rebuilt: the LP cases these tests pin are
    rare numerical events, and rebuilt through ``deflate`` they move with
    its rounding. Its ascent on the cloud itself, which replaced the Gram
    form at t > n, moved seed 3990686019's basis by 1e-15 and lost all four
    cases."""
    with np.load(CLIP_LP_CASES) as cases:
        points = cases[f"points_{instance_seed}"]
        return make_hull(points), cases[f"calib_{instance_seed}"]


def check_row_in_block_and_alone(hull, V, row):
    """Clip the l-inf lockstep block the pipeline puts ``row`` of V in, and
    the row on its own: every result attains the residual it reports, and
    the weights of the lone solve lie on the simplex."""
    _, block = pipeline_block(hull, V, row)
    scale = 1.0 + np.abs(hull.points).max() + np.abs(block).max()
    V_hat, residuals = clip_batch(block, hull)
    attained = np.abs(V_hat - block).max(axis=1)
    np.testing.assert_allclose(attained, residuals, rtol=0, atol=1e-9 * scale)
    v_hat, residual = clip_row(V[row], hull)
    assert abs(np.abs(v_hat - V[row]).max() - residual) <= 1e-9 * scale
    (alpha,), _ = clip_weights(hull, V[row])
    assert np.all(alpha >= 0.0)
    assert abs(alpha.sum() - 1.0) <= 1e-9


def surrogate_g(model, basis, hull, X):
    """g on the rows of X as ``run_surrogate_pipeline`` forms it: the
    reduced logits clipped onto the hull, lifted back by the basis."""
    A = basis.matrix
    return clip_batch(infer(model, X) @ A, hull)[0] @ A.T


class TestSurrogatePredict:
    def test_training_points_reproduced(self):
        rng = np.random.default_rng(4)
        net = random_mlp([3, 8, 4], rng)
        X = rng.uniform(size=(30, 3))
        Y = infer(net, X)
        basis = deflate(Y, 2)
        hull = HullModel.from_points(Y @ basis.matrix)
        g = surrogate_g(net, basis, hull, X[7:8])[0]
        np.testing.assert_allclose(g, Y[7] @ basis.matrix @ basis.matrix.T, atol=1e-6)

    def test_reduced_prediction_is_clip_output(self):
        rng = np.random.default_rng(5)
        net = random_mlp([3, 8, 4], rng)
        Y = infer(net, rng.uniform(size=(25, 3)))
        basis = deflate(Y, 2)
        hull = HullModel.from_points(Y @ basis.matrix)
        x = rng.uniform(size=3) * 3.0  # likely outside training range
        g = surrogate_g(net, basis, hull, x[None, :])[0]
        v_hat, _ = clip_row(infer(net, x) @ basis.matrix, hull)
        np.testing.assert_allclose(g @ basis.matrix, v_hat, atol=1e-9)

    def test_prediction_inside_lift_bounds(self):
        rng = np.random.default_rng(6)
        net = random_mlp([4, 10, 5], rng)
        Y = infer(net, rng.uniform(size=(50, 4)))
        basis = deflate(Y, 3)
        V = Y @ basis.matrix
        hull = HullModel.from_points(V)
        lifted = V @ basis.matrix.T
        lb, ub = lifted.min(axis=0), lifted.max(axis=0)
        G = surrogate_g(net, basis, hull, rng.uniform(size=(40, 4)) * 2)
        assert np.all(G >= lb - 1e-8)
        assert np.all(G <= ub + 1e-8)


class TestSurrogateReachset:
    def test_identity_network_closed_form(self):
        # f(x) = x on a 2-D box with a full-rank basis: the surrogate is
        # exact on the hull interior, so with a rank below the hull-coverage
        # fraction the calibration threshold is zero, sigma collapses, and
        # the intervals are exactly the hull bounding box (~ the input box)
        net = MlpNetwork((np.eye(2),), (np.zeros(2),))
        base = ImageTensor(1, 1, 2, np.array([0.5, 0.5]))
        spec = build_global_ball(base, "linf", 0.5)
        sr = run_surrogate_pipeline(
            net, spec, train_size=500, calib_size=2000, aux_size=300,
            num_components=2, epsilon=0.01, rank_ell=1800, seed=11,
        )[0]
        basis, hull = surrogate_fit(net, spec, 11, 500, 2)
        lo, hi = sr.project_intervals()
        # sigma is bounded by the tiny aux-residual center offset, orders of
        # magnitude under the box scale
        assert np.all(sr.sigma <= 1e-3)
        np.testing.assert_allclose(lo, [0.0, 0.0], atol=0.05)
        np.testing.assert_allclose(hi, [1.0, 1.0], atol=0.05)
        # g equals f near the box center, inside the hull
        X = np.full((5, 2), 0.5) + np.linspace(-0.05, 0.05, 5)[:, None]
        np.testing.assert_allclose(surrogate_g(net, basis, hull, X), infer(net, X), atol=1e-9)

    def test_interval_width_identity(self):
        rng = np.random.default_rng(7)
        net = random_mlp([3, 12, 4], rng)
        base = ImageTensor(1, 1, 3, np.full(3, 0.5))
        spec = build_global_ball(base, "linf", 0.4)
        sr = run_surrogate_pipeline(
            net, spec, train_size=200, calib_size=500, aux_size=150,
            num_components=2, epsilon=0.05, rank_ell=470, seed=12,
        )[0]
        lo, hi = sr.project_intervals()
        np.testing.assert_allclose(
            hi - lo, (sr.lift_ub - sr.lift_lb) + 2 * sr.sigma, rtol=1e-12
        )

    def test_soundness_chaining(self):
        # if the error box covers q(x), then f(x) lies inside the intervals
        rng = np.random.default_rng(8)
        net = random_mlp([3, 10, 4], rng)
        base = ImageTensor(1, 1, 3, np.full(3, 0.5))
        spec = build_global_ball(base, "linf", 0.4)
        sr = run_surrogate_pipeline(
            net, spec, train_size=150, calib_size=300, aux_size=100,
            num_components=2, epsilon=0.05, rank_ell=290, seed=13,
        )[0]
        lo, hi = sr.project_intervals()
        from conformal_reach.perturb import apply_batch, sample_lambdas

        X = apply_batch(spec, sample_lambdas(spec, 2000, np.random.default_rng(99)))
        Y = infer(net, X)
        G = surrogate_g(net, *surrogate_fit(net, spec, 13, 150, 2), X)
        q = Y - G
        covered = np.all(np.abs(q - sr.center) <= sr.sigma, axis=1)
        inside = np.all((Y >= lo) & (Y <= hi), axis=1)
        assert np.all(inside[covered])

    def test_coverage_on_fresh_samples(self):
        rng = np.random.default_rng(9)
        net = random_mlp([3, 16, 5], rng)
        base = ImageTensor(1, 1, 3, np.full(3, 0.5))
        spec = build_global_ball(base, "linf", 0.4)
        m, ell = 2000, 1980
        sr = run_surrogate_pipeline(
            net, spec, train_size=400, calib_size=m, aux_size=200,
            num_components=3, epsilon=0.02, rank_ell=ell, seed=14,
        )[0]
        lo, hi = sr.project_intervals()
        from conformal_reach.perturb import apply_batch, sample_lambdas
        from scipy.stats import beta as scipy_beta

        lams = sample_lambdas(spec, 50_000, np.random.default_rng(123))
        Y = infer(net, apply_batch(spec, lams))
        miss = float(np.mean(~np.all((Y >= lo) & (Y <= hi), axis=1)))
        assert miss <= scipy_beta.ppf(0.999, m + 1 - ell, ell)

    def test_stage_failure_names_stage(self):
        # an infinite output makes the training cloud non-finite
        net = MlpNetwork((np.eye(2),), (np.array([np.inf, 0.0]),))
        base = ImageTensor(1, 1, 2, np.array([0.5, 0.5]))
        spec = build_global_ball(base, "linf", 0.5)
        with pytest.raises(PipelineStageError, match="^train: "):
            run_surrogate_pipeline(
                net, spec, train_size=5, calib_size=100, aux_size=10,
                num_components=2, epsilon=0.01, rank_ell=99, seed=1,
            )
