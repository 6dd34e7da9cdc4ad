import json

import numpy as np
import pytest

from conformal_reach.calibrate import HyperRectReachSet, center_and_scales
from conformal_reach.guarantees import guarantee_confidence
from conformal_reach.hull import (
    HullModel,
    clip,
    clip_batch,
    load_surrogate,
    save_surrogate,
    surrogate_predict,
)
from conformal_reach.model import ImageTensor, MlpNetwork, random_mlp
from conformal_reach.pca import deflate
from conformal_reach.perturb import build_global_ball
from conformal_reach.verify import PipelineStageError, run_surrogate_pipeline

from oracles import enumerate_lp_minimum, grid_clip_residual


def make_hull(points):
    return HullModel.from_points(np.asarray(points, dtype=float))


def clip_lp_rows(points, v, norm):
    """The clip LP written from its definition for ``enumerate_lp_minimum``.

    Variables x = (alpha, s) >= 0 minimize sum(s) subject to
    |v - P alpha| <= s coordinatewise (one shared s for l_inf, one per
    coordinate for l_1) and sum(alpha) = 1, the equality as two rows.
    """
    t, N = points.shape
    epi = np.ones((N, 1)) if norm == "l_inf" else np.eye(N)
    ones = np.ones((1, t))
    no_epi = np.zeros((1, epi.shape[1]))
    a_ub = np.vstack([
        np.hstack([points.T, -epi]),
        np.hstack([-points.T, -epi]),
        np.hstack([ones, no_epi]),
        np.hstack([-ones, no_epi]),
    ])
    b_ub = np.concatenate([v, -v, [1.0, -1.0]])
    c = np.concatenate([np.zeros(t), np.ones(epi.shape[1])])
    return c, a_ub, b_ub


class TestClip:
    def test_hull_point_is_fixed(self):
        hull = make_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        v_hat, alpha, residual = clip(np.array([1.0, 0.0]), hull)
        assert residual <= 1e-7
        np.testing.assert_allclose(v_hat, [1.0, 0.0], atol=1e-8)

    def test_segment_hand_geometry(self):
        # hull = segment {(0,0),(1,0)}, v = (0.5, 1): the l_inf residual is
        # 1, attained by every point of the segment (|0.5 - a| <= 1 for all
        # a in [0,1]), so only the residual and feasibility are pinned; a
        # dense grid over alpha confirms the same minimum
        hull = make_hull([[0.0, 0.0], [1.0, 0.0]])
        v = np.array([0.5, 1.0])
        v_hat, alpha, residual = clip(v, hull)
        assert residual == pytest.approx(1.0, abs=1e-9)
        assert v_hat[1] == pytest.approx(0.0, abs=1e-9)
        assert -1e-9 <= v_hat[0] <= 1 + 1e-9
        assert alpha.sum() == pytest.approx(1.0, abs=1e-9)
        assert grid_clip_residual(hull.points, v, 1000) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_interior_point(self):
        hull = make_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        v = np.array([0.2, 0.3])
        v_hat, alpha, residual = clip(v, hull)
        assert residual <= 1e-7
        np.testing.assert_allclose(v_hat, v, atol=1e-7)
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
            _, _, residual = clip(v, hull)
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
            for norm in ("l_inf", "l_1"):
                _, alpha, residual = clip(v, hull, norm)
                oracle = enumerate_lp_minimum(*clip_lp_rows(pts, v, norm))
                assert residual == pytest.approx(oracle, abs=1e-9)
                assert np.all(alpha >= 0.0)
                assert alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_l1_norm_variant(self):
        hull = make_hull([[0.0, 0.0], [1.0, 0.0]])
        v = np.array([0.5, 1.0])
        v_hat, _, residual = clip(v, hull, norm="l_1")
        assert residual == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(v_hat, [0.5, 0.0], atol=1e-8)
        # oracle: l1 distance over fine alpha grid
        alphas = np.linspace(0, 1, 2001)[:, None]
        cand = alphas @ hull.points[1:2] + (1 - alphas) @ hull.points[0:1]
        l1 = np.abs(cand - v).sum(axis=1).min()
        assert residual == pytest.approx(float(l1), abs=2e-3)

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 3))
        hull = make_hull(pts)
        V = rng.normal(size=(60, 3)) * 1.5
        V_hat, residuals = clip_batch(V, hull)
        for i in range(0, 60, 7):
            v_hat, _, res = clip(V[i], hull)
            assert abs(residuals[i] - res) <= 1e-8
            np.testing.assert_allclose(V_hat[i], v_hat, atol=1e-7)

    def test_interior_fast_path_consistency(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(200, 2))
        hull = make_hull(pts)
        V = rng.normal(size=(500, 2)) * 0.3  # mostly interior
        inside = hull.interior_mask(V)
        assert inside.sum() > 100  # fast path actually exercised
        V_hat, residuals = clip_batch(V, hull)
        np.testing.assert_array_equal(V_hat[inside], V[inside])
        assert np.all(residuals[inside] == 0.0)
        # certified-interior points must truly have zero LP residual
        for i in np.nonzero(inside)[0][:20]:
            _, _, res = clip(V[i], hull)
            assert res <= 1e-7


class TestClipValidation:
    def test_rejects_non_finite_points(self):
        hull = make_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            clip(np.array([np.nan, 0.5]), hull)
        V = np.array([[0.2, 0.2], [2.0, 2.0], [np.inf, 0.0]])
        for norm in ("l_inf", "l_1"):
            with pytest.raises(ValueError, match="finite; row 2"):
                clip_batch(V, hull, norm)

    def test_rejects_wrong_width(self):
        hull = make_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="shape"):
            clip(np.zeros(3), hull)
        for bad in (np.zeros((4, 3)), np.zeros(2), np.zeros((1, 2, 1))):
            with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
                clip_batch(bad, hull)

    def test_rejects_wrong_width_on_degenerate_hull(self):
        # two points in 3-D: no inscribed simplex, so every query takes the LP
        hull = make_hull([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert hull.degenerate
        with pytest.raises(ValueError, match=r"shape \(k, 3\)"):
            clip_batch(np.zeros((5, 2)), hull)


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
    be the one a block of one (clip) gives."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Record, per simplex pass, the live rows and the Bland-rule rows."""
        from conformal_reach import hull as hull_module

        log = []
        entering = hull_module._ClipProblem.entering

        def spy(self, y, basis, bland):
            log.append((y.shape[0], int(np.count_nonzero(bland))))
            return entering(self, y, basis, bland)

        monkeypatch.setattr(hull_module._ClipProblem, "entering", spy)
        return log

    @pytest.mark.parametrize("norm", ["l_inf", "l_1"])
    def test_batch_matches_rows_over_several_blocks(self, norm, passes):
        from conformal_reach.hull import _CLIP_BLOCK

        rng = np.random.default_rng(30)
        pts = rng.normal(size=(60, 6))
        pts = np.vstack([pts, pts[:20]])  # repeated generators
        hull = make_hull(pts)
        V = mixed_queries(pts, rng, 2 * _CLIP_BLOCK + 37)  # three blocks
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
            v_hat, alpha, res = clip(V[i], hull, norm)
            assert residuals[i] == pytest.approx(res, abs=1e-9)
            np.testing.assert_allclose(V_hat[i], v_hat, rtol=0, atol=1e-9)

    def test_degenerate_lps_reach_blands_rule(self, passes):
        # queries at the generators of a hull whose points repeat: every
        # pivot is degenerate, and some rows stall long enough to switch to
        # Bland's rule
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(20, 7))
        pts = np.vstack([pts, pts, pts[:8]])
        hull = make_hull(pts)
        V = pts[rng.integers(0, pts.shape[0], size=150)]
        V_hat, residuals = clip_batch(V, hull, "l_1")
        assert sum(bland for _, bland in passes) > 0
        assert np.all(residuals <= 1e-9)
        np.testing.assert_allclose(V_hat, V, rtol=0, atol=1e-9)
        for i in range(0, V.shape[0], 5):
            _, _, res = clip(V[i], hull, "l_1")
            assert residuals[i] == pytest.approx(res, abs=1e-9)

    def test_eta_noise_pivot_is_refactorized(self, monkeypatch):
        # The surrogate-dark16-n10 benchmark instance of seed 3, built from
        # the package. Refactorized only every 32 pivots, the eta-updated
        # inverses of this block lift an exact zero of a pivot column to
        # ~1e-11, just over the pivot tolerance; pivoting on it made the
        # basis singular and reported row 49 (query 561) inside the hull,
        # residual 0 against 4.787e-4. The block must match one solved
        # with a fresh inverse at every pivot.
        from conformal_reach import hull as hull_module
        from conformal_reach.hull import stage_outputs
        from conformal_reach.perturb import build_darkening

        rng = np.random.default_rng(3)
        arr = rng.uniform(0.0, 0.55, size=(16, 16, 1))
        flat = arr.reshape(256, 1)
        bright = rng.choice(256, size=120, replace=False)
        flat[bright] = rng.uniform(0.65, 1.0, size=(120, 1))
        model = random_mlp([256, 256, 768], rng)
        spec = build_darkening(ImageTensor.from_array(arr), 0.05, rng_seed=3)
        Y = next(stage_outputs(model, spec, 3, "train", 1000))
        basis = deflate(Y, 10)
        hull = HullModel.from_points(Y @ basis.matrix)
        V = next(stage_outputs(model, spec, 3, "calib", 600))[512:576] @ basis.matrix
        assert not hull.interior_mask(V).any()  # one block of 64 LPs

        monkeypatch.setattr(hull_module, "_REFACTOR_EVERY", 1)
        V_ref, res_ref = clip_batch(V, hull, "l_1")
        monkeypatch.setattr(hull_module, "_REFACTOR_EVERY", 32)
        V_hat, residuals = clip_batch(V, hull, "l_1")
        assert res_ref[49] == pytest.approx(4.787e-4, rel=1e-3)
        np.testing.assert_allclose(residuals, res_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(V_hat, V_ref, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("norm", ["l_inf", "l_1"])
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


def small_surrogate(seed):
    """Surrogate reachset of a 3 -> 4 network under an l-inf ball."""
    net = random_mlp([3, 8, 4], np.random.default_rng(seed))
    spec = build_global_ball(ImageTensor(1, 1, 3, np.full(3, 0.5)), "linf", 0.3)
    return run_surrogate_pipeline(
        net, spec, train_size=80, calib_size=100, aux_size=50,
        num_components=2, epsilon=0.05, rank_ell=95, seed=15,
    )[0]


class TestSurrogatePredict:
    def test_training_points_reproduced(self):
        rng = np.random.default_rng(4)
        net = random_mlp([3, 8, 4], rng)
        X = rng.uniform(size=(30, 3))
        from conformal_reach.model import infer

        Y = infer(net, X)
        basis = deflate(Y, 2)
        hull = HullModel.from_points(Y @ basis.matrix, basis=basis)
        g = surrogate_predict(net, basis, hull, X[7])
        np.testing.assert_allclose(g, Y[7] @ basis.matrix @ basis.matrix.T, atol=1e-6)

    def test_reduced_prediction_is_clip_output(self):
        rng = np.random.default_rng(5)
        net = random_mlp([3, 8, 4], rng)
        from conformal_reach.model import infer

        Y = infer(net, rng.uniform(size=(25, 3)))
        basis = deflate(Y, 2)
        hull = HullModel.from_points(Y @ basis.matrix, basis=basis)
        x = rng.uniform(size=3) * 3.0  # likely outside training range
        g = surrogate_predict(net, basis, hull, x)
        v_hat, _, _ = clip(infer(net, x) @ basis.matrix, hull)
        np.testing.assert_allclose(g @ basis.matrix, v_hat, atol=1e-9)

    def test_prediction_inside_lift_bounds(self):
        rng = np.random.default_rng(6)
        net = random_mlp([4, 10, 5], rng)
        from conformal_reach.model import infer

        Y = infer(net, rng.uniform(size=(50, 4)))
        basis = deflate(Y, 3)
        V = Y @ basis.matrix
        hull = HullModel.from_points(V, basis=basis)
        lifted = V @ basis.matrix.T
        lb, ub = lifted.min(axis=0), lifted.max(axis=0)
        G = surrogate_predict(net, basis, hull, rng.uniform(size=(40, 4)) * 2)
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
        lo, hi = sr.project_intervals()
        # sigma is bounded by the tiny aux-residual center offset, orders of
        # magnitude under the box scale
        assert np.all(sr.error_sigma <= 1e-3)
        np.testing.assert_allclose(lo, [0.0, 0.0], atol=0.05)
        np.testing.assert_allclose(hi, [1.0, 1.0], atol=0.05)
        # g equals f near the box center, where points certify interior
        from conformal_reach.model import infer

        X = np.full((5, 2), 0.5) + np.linspace(-0.05, 0.05, 5)[:, None]
        np.testing.assert_allclose(
            surrogate_predict(net, sr.basis, sr.hull, X), infer(net, X), atol=1e-9
        )

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
            hi - lo, (sr.lift_ub - sr.lift_lb) + 2 * sr.error_sigma, rtol=1e-12
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
        from conformal_reach.model import infer
        from conformal_reach.perturb import apply_batch, sample_lambdas

        lams = sample_lambdas(spec, 2000, 99)
        Y = infer(net, apply_batch(spec, lams))
        G = surrogate_predict(net, sr.basis, sr.hull, apply_batch(spec, lams))
        q = Y - G
        covered = np.all(np.abs(q - sr.error_center) <= sr.error_sigma, axis=1)
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
        from conformal_reach.model import infer
        from conformal_reach.perturb import apply_batch, sample_lambdas
        from scipy.stats import beta as scipy_beta

        lams = sample_lambdas(spec, 50_000, 123)
        Y = infer(net, apply_batch(spec, lams))
        miss = float(np.mean(~np.all((Y >= lo) & (Y <= hi), axis=1)))
        assert miss <= scipy_beta.ppf(0.999, m + 1 - ell, ell)

    def test_stage_failure_names_stage(self):
        net = MlpNetwork((np.eye(2),), (np.zeros(2),))
        base = ImageTensor(1, 1, 2, np.array([0.5, 0.5]))
        spec = build_global_ball(base, "linf", 0.5)
        with pytest.raises(PipelineStageError, match="train"):
            run_surrogate_pipeline(
                net, spec, train_size=5, calib_size=100, aux_size=10,
                num_components=10,  # impossible: N > min(n, t)
                epsilon=0.01, rank_ell=99, seed=1,
            )

    def test_persistence_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        net = random_mlp([3, 8, 4], rng)
        base = ImageTensor(1, 1, 3, np.full(3, 0.5))
        spec = build_global_ball(base, "linf", 0.3)
        sr = run_surrogate_pipeline(
            net, spec, train_size=80, calib_size=100, aux_size=50,
            num_components=2, epsilon=0.05, rank_ell=95, seed=15,
        )[0]
        save_surrogate(sr, tmp_path / "sr")
        loaded = load_surrogate(tmp_path / "sr")
        np.testing.assert_array_equal(loaded.hull.points, sr.hull.points)
        np.testing.assert_array_equal(loaded.basis.matrix, sr.basis.matrix)
        np.testing.assert_array_equal(loaded.error_sigma, sr.error_sigma)
        lo1, hi1 = sr.project_intervals()
        lo2, hi2 = loaded.project_intervals()
        np.testing.assert_array_equal(lo1, lo2)
        np.testing.assert_array_equal(hi1, hi2)

    def test_load_rejects_inconsistent_sidecar(self, tmp_path):
        rng = np.random.default_rng(16)
        net = random_mlp([3, 8, 4], rng)
        base = ImageTensor(1, 1, 3, np.full(3, 0.5))
        spec = build_global_ball(base, "linf", 0.3)
        sr = run_surrogate_pipeline(
            net, spec, train_size=80, calib_size=100, aux_size=50,
            num_components=2, epsilon=0.05, rank_ell=95, seed=15,
        )[0]
        save_surrogate(sr, tmp_path / "sr")
        sidecar_path = tmp_path / "sr" / "surrogate.json"
        good = json.loads(sidecar_path.read_text())
        t, N = good["hull_shape"]
        # the same hull bytes read as a dim-1 hull against the 2-column basis
        flat = dict(good, hull_shape=[t * N, 1])
        short = dict(good, error_sigma=good["error_sigma"][:1])
        for bad in (flat, short):
            sidecar_path.write_text(json.dumps(bad))
            with pytest.raises(ValueError):
                load_surrogate(tmp_path / "sr")

    def test_load_rejects_hull_file_of_wrong_size(self, tmp_path):
        rng = np.random.default_rng(17)
        net = random_mlp([3, 8, 4], rng)
        base = ImageTensor(1, 1, 3, np.full(3, 0.5))
        spec = build_global_ball(base, "linf", 0.3)
        sr = run_surrogate_pipeline(
            net, spec, train_size=80, calib_size=100, aux_size=50,
            num_components=2, epsilon=0.05, rank_ell=95, seed=15,
        )[0]
        save_surrogate(sr, tmp_path / "sr")
        sidecar_path = tmp_path / "sr" / "surrogate.json"
        good = json.loads(sidecar_path.read_text())
        t, N = good["hull_shape"]
        sidecar_path.write_text(json.dumps(dict(good, hull_shape=[t + 1, N])))
        with pytest.raises(ValueError, match=r"hull_points\.f64: .* needs"):
            load_surrogate(tmp_path / "sr")
        sidecar_path.write_text(json.dumps(good))
        points_path = tmp_path / "sr" / "hull_points.f64"
        points_path.write_bytes(points_path.read_bytes()[:-3])
        with pytest.raises(ValueError, match=r"hull_points\.f64: .* needs"):
            load_surrogate(tmp_path / "sr")

    def test_sidecar_format_round_trip(self, tmp_path):
        sr = small_surrogate(18)
        save_surrogate(sr, tmp_path / "sr")
        sidecar = json.loads((tmp_path / "sr" / "surrogate.json").read_text())
        assert sidecar["format"] == 1
        loaded = load_surrogate(tmp_path / "sr")
        np.testing.assert_array_equal(loaded.project_intervals(), sr.project_intervals())

    @pytest.mark.parametrize("version", [None, 0, 2, "1"])
    def test_load_rejects_missing_or_wrong_format(self, tmp_path, version):
        save_surrogate(small_surrogate(19), tmp_path / "sr")
        sidecar_path = tmp_path / "sr" / "surrogate.json"
        sidecar = json.loads(sidecar_path.read_text())
        if version is None:
            del sidecar["format"]
        else:
            sidecar["format"] = version
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match=r"surrogate\.json: format"):
            load_surrogate(tmp_path / "sr")

    @pytest.mark.parametrize("field, value", [
        ("rank_ell", 94.5), ("rank_ell", 95.0), ("rank_ell", True), ("calib_size_m", 100.0),
        ("epsilon", 1.5), ("epsilon", None),
    ])
    def test_load_rejects_non_integer_rank(self, tmp_path, field, value):
        # None drops the field; every error names the sidecar it came from
        save_surrogate(small_surrogate(20), tmp_path / "sr")
        sidecar_path = tmp_path / "sr" / "surrogate.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["guarantee"][field] = value
        if value is None:
            del sidecar["guarantee"][field]
        sidecar_path.write_text(json.dumps(sidecar))
        reason = {"rank_ell": "integer", "calib_size_m": "integer", "epsilon": "epsilon"}
        with pytest.raises(ValueError, match=rf"surrogate\.json: bad guarantee: .*{reason[field]}"):
            load_surrogate(tmp_path / "sr")

    def test_rejects_non_finite_vectors(self):
        from conformal_reach.hull import SurrogateReachSet

        hull = make_hull([[0.0, 1.0], [1.0, 0.0]])
        basis = deflate(np.array([[1.0, 0.0], [0.0, 1.0]]), 2)
        fields = dict(
            error_center=np.zeros(2),
            error_sigma=np.ones(2),
            lift_lb=np.zeros(2),
            lift_ub=np.ones(2),
        )
        for name in fields:
            for bad in (np.nan, np.inf, -np.inf):
                vector = fields[name].copy()
                vector[1] = bad
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    SurrogateReachSet(
                        hull=hull, basis=basis, guarantee=guarantee_confidence(0.1, 9, 10),
                        **dict(fields, **{name: vector}),
                    )


class TestProjectIntervals:
    def test_zero_sigma_is_lift_box(self):
        hull = make_hull([[0.0, 1.0], [1.0, 0.0]])
        basis = deflate(np.array([[1.0, 0.0], [0.0, 1.0]]), 2)
        from conformal_reach.hull import SurrogateReachSet

        sr = SurrogateReachSet(
            hull=hull,
            basis=basis,
            error_center=np.zeros(2),
            error_sigma=np.zeros(2),
            lift_lb=np.array([-1.0, 0.0]),
            lift_ub=np.array([2.0, 3.0]),
            guarantee=guarantee_confidence(0.1, 9, 10),
        )
        lo, hi = sr.project_intervals()
        np.testing.assert_array_equal(lo, [-1.0, 0.0])
        np.testing.assert_array_equal(hi, [2.0, 3.0])

    def test_hyperrect_dispatch(self):
        rs = HyperRectReachSet(
            center=np.array([1.0]),
            sigma=np.array([0.5]),
            guarantee=guarantee_confidence(0.1, 9, 10),
        )
        lo, hi = rs.project_intervals()
        np.testing.assert_array_equal(lo, [0.5])
        np.testing.assert_array_equal(hi, [1.5])
