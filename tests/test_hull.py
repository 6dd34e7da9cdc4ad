import json

import numpy as np
import pytest

from conformal_reach.calibrate import HyperRectReachSet, center_and_scales
from conformal_reach.guarantees import guarantee_confidence
from conformal_reach.hull import (
    HullModel,
    build_surrogate_reachset,
    clip,
    clip_batch,
    load_surrogate,
    save_surrogate,
    surrogate_predict,
)
from conformal_reach.model import ImageTensor, MlpNetwork, random_mlp
from conformal_reach.pca import deflate
from conformal_reach.perturb import build_global_ball

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
        g = guarantee_confidence(0.01, 1800, 2000)
        sr = build_surrogate_reachset(
            net, spec, train_size=500, calib_size=2000, aux_size=300,
            num_components=2, guarantee=g, seed=11,
        )
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
        g = guarantee_confidence(0.05, 470, 500)
        sr = build_surrogate_reachset(
            net, spec, train_size=200, calib_size=500, aux_size=150,
            num_components=2, guarantee=g, seed=12,
        )
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
        g = guarantee_confidence(0.05, 290, 300)
        sr = build_surrogate_reachset(
            net, spec, train_size=150, calib_size=300, aux_size=100,
            num_components=2, guarantee=g, seed=13,
        )
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
        g = guarantee_confidence(0.02, ell, m)
        sr = build_surrogate_reachset(
            net, spec, train_size=400, calib_size=m, aux_size=200,
            num_components=3, guarantee=g, seed=14,
        )
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
        g = guarantee_confidence(0.01, 99, 100)
        from conformal_reach.hull import PipelineStageError

        with pytest.raises(PipelineStageError, match="train"):
            build_surrogate_reachset(
                net, spec, train_size=5, calib_size=100, aux_size=10,
                num_components=10,  # impossible: N > min(n, t)
                guarantee=g, seed=1,
            )

    def test_persistence_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        net = random_mlp([3, 8, 4], rng)
        base = ImageTensor(1, 1, 3, np.full(3, 0.5))
        spec = build_global_ball(base, "linf", 0.3)
        g = guarantee_confidence(0.05, 95, 100)
        sr = build_surrogate_reachset(
            net, spec, train_size=80, calib_size=100, aux_size=50,
            num_components=2, guarantee=g, seed=15,
        )
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
        g = guarantee_confidence(0.05, 95, 100)
        sr = build_surrogate_reachset(
            net, spec, train_size=80, calib_size=100, aux_size=50,
            num_components=2, guarantee=g, seed=15,
        )
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
