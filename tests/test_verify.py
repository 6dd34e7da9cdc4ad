import numpy as np
import pytest

from conformal_reach import verify
from conformal_reach.calibrate import build_calibration, center_and_scales, naive_reachset
from conformal_reach.guarantees import guarantee_confidence
from conformal_reach.hull import PIPELINE_CHUNK, clip_batch, stage_outputs
from conformal_reach.model import ImageTensor, MlpNetwork, random_mlp
from conformal_reach.perturb import (
    PerturbationSpec,
    UNIFORM_BOX,
    build_darkening,
    build_global_ball,
)
from conformal_reach.verify import (
    PipelineStageError,
    STATUS_NONROBUST,
    STATUS_ROBUST,
    STATUS_UNKNOWN,
    conservatism_audit,
    pixel_status,
    run_naive_pipeline,
    run_surrogate_pipeline,
    status_pgm_bytes,
)

from oracles import darkening_grid_rv, synthetic_ssn_4x4

G = guarantee_confidence(0.05, 95, 100)


def residual_blocks(model, spec, seed, stage, count, surrogate=None):
    """The blocks a pipeline scores on one stage: the raw outputs for the
    naive box, q = f - g for a surrogate reachset."""
    for Y in stage_outputs(model, spec, seed, stage, count):
        if surrogate is not None:
            A = surrogate.basis.matrix
            Y = Y - clip_batch(Y @ A, surrogate.hull)[0] @ A.T
        yield Y


def run_4x4(pipeline, **overrides):
    """One seeded run of either pipeline on the 4x4 model."""
    model, base = synthetic_ssn_4x4()
    spec = build_darkening(base, 1.0, min_darkening=5 / 255, rng_seed=7)
    args = dict(train_size=100, calib_size=200, epsilon=0.05, rank_ell=190, seed=8)
    if pipeline == "naive":
        return model, spec, run_naive_pipeline(model, spec, **dict(args, **overrides))
    args.update(aux_size=80, num_components=4)
    return model, spec, run_surrogate_pipeline(model, spec, **dict(args, **overrides))


def bounds_1x1(intervals):
    """intervals: list of (lo, hi) per class at the single pixel."""
    lo = np.array([[ [a for a, _ in intervals] ]], dtype=float)
    hi = np.array([[ [b for _, b in intervals] ]], dtype=float)
    return lo, hi


class TestPixelStatus:
    def test_clear_winner_matching_baseline_is_robust(self):
        lo, hi = bounds_1x1([(5.0, 6.0), (1.0, 2.0)])
        mask = pixel_status(lo, hi, np.array([[1]]), G)
        assert mask.status[0, 0] == STATUS_ROBUST

    def test_overlap_is_unknown(self):
        lo, hi = bounds_1x1([(3.0, 6.0), (2.0, 4.0)])
        mask = pixel_status(lo, hi, np.array([[1]]), G)
        assert mask.status[0, 0] == STATUS_UNKNOWN

    def test_clear_winner_off_baseline_is_nonrobust(self):
        lo, hi = bounds_1x1([(1.0, 2.0), (5.0, 6.0)])
        mask = pixel_status(lo, hi, np.array([[1]]), G)
        assert mask.status[0, 0] == STATUS_NONROBUST

    def test_tie_at_equality_is_unknown(self):
        lo, hi = bounds_1x1([(3.0, 5.0), (1.0, 3.0)])  # lo* == other hi
        mask = pixel_status(lo, hi, np.array([[1]]), G)
        assert mask.status[0, 0] == STATUS_UNKNOWN

    def test_partition_sums_to_pixel_count(self):
        rng = np.random.default_rng(0)
        lo = rng.normal(size=(6, 7, 4))
        hi = lo + rng.uniform(0, 2, size=lo.shape)
        baseline = rng.integers(1, 5, size=(6, 7))
        mask = pixel_status(lo, hi, baseline, G)
        c = mask.counts
        assert c["robust"] + c["nonrobust"] + c["unknown"] == 42

    def test_nested_intervals_never_unmake_robust(self):
        rng = np.random.default_rng(1)
        lo = rng.normal(size=(5, 5, 3))
        hi = lo + rng.uniform(0.1, 1.5, size=lo.shape)
        baseline = rng.integers(1, 4, size=(5, 5))
        before = pixel_status(lo, hi, baseline, G)
        shrink = rng.uniform(0, 0.04, size=lo.shape)
        after = pixel_status(lo + shrink, hi - shrink, baseline, G)
        was_robust = before.status == STATUS_ROBUST
        assert np.all(after.status[was_robust] == STATUS_ROBUST)

    def test_argmax_invariance_per_pixel_shift(self):
        rng = np.random.default_rng(2)
        lo = rng.normal(size=(4, 4, 3))
        hi = lo + rng.uniform(0.1, 1.0, size=lo.shape)
        baseline = rng.integers(1, 4, size=(4, 4))
        base_status = pixel_status(lo, hi, baseline, G).status
        shift = rng.normal(size=(4, 4, 1))
        shifted = pixel_status(lo + shift, hi + shift, baseline, G).status
        np.testing.assert_array_equal(base_status, shifted)

    def test_bad_bounds_rejected(self):
        lo, hi = bounds_1x1([(5.0, 4.0), (1.0, 2.0)])
        with pytest.raises(ValueError):
            pixel_status(lo, hi, np.array([[1]]), G)

    def test_non_finite_bounds_rejected(self):
        # NaN fails every comparison, so unchecked it reads as a robust pixel
        for bad in (np.nan, np.inf, -np.inf):
            lo = np.zeros((2, 2, 3))
            hi = np.ones((2, 2, 3))
            lo[1, 0, :] = hi[1, 0, :] = bad
            with pytest.raises(ValueError, match="finite"):
                pixel_status(lo, hi, np.ones((2, 2), dtype=np.int64), G)
        lo, hi = bounds_1x1([(5.0, 6.0), (1.0, np.nan)])
        with pytest.raises(ValueError, match="finite"):
            pixel_status(lo, hi, np.array([[1]]), G)


class TestRvMetrics:
    # per-pixel class intervals that yield each status when the baseline is class 1
    INTERVALS = {
        STATUS_ROBUST: [(5.0, 6.0), (1.0, 2.0)],
        STATUS_NONROBUST: [(1.0, 2.0), (5.0, 6.0)],
        STATUS_UNKNOWN: [(3.0, 6.0), (2.0, 4.0)],
    }

    def status_rv(self, codes):
        bounds = np.array([[self.INTERVALS[c] for c in row] for row in codes])
        baseline = np.ones(bounds.shape[:2], dtype=np.int64)
        mask = pixel_status(bounds[..., 0], bounds[..., 1], baseline, G)
        np.testing.assert_array_equal(mask.status, codes)
        return mask.rv

    def test_all_robust(self):
        assert self.status_rv([[1, 1], [1, 1]]) == 100.0

    def test_none_robust(self):
        assert self.status_rv([[0, 2], [2, 0]]) == 0.0

    def test_three_quarters(self):
        assert self.status_rv([[1, 1], [1, 0]]) == 75.0


class TestNaivePipeline:
    def test_degenerate_box_reproduces_baseline(self):
        model, base = synthetic_ssn_4x4()
        spec = build_darkening(base, 1.0, min_darkening=5 / 255, rng_seed=3)
        frozen = PerturbationSpec(
            base_image=base,
            noise_index=spec.noise_index,
            noise_value=spec.noise_value,
            lambda_lower=np.zeros(2),
            lambda_upper=np.zeros(2),
            distribution=UNIFORM_BOX,
        )
        _, mask, _ = run_naive_pipeline(
            model, frozen, train_size=50, calib_size=100, epsilon=0.05,
            rank_ell=95, seed=4,
        )
        assert np.all(mask.status == STATUS_ROBUST)
        assert mask.rv == 100.0

    def test_matches_grid_oracle(self):
        model, base = synthetic_ssn_4x4()
        spec = build_darkening(base, 1.0, min_darkening=5 / 255, rng_seed=5)
        assert spec.dim == 2
        _, mask, _ = run_naive_pipeline(
            model, spec, train_size=400, calib_size=800, epsilon=0.01,
            rank_ell=792, seed=6,
        )
        rv_grid, robust_grid = darkening_grid_rv(model, spec, 4, 4, 3)
        # zero flips: every pipeline-robust pixel is grid-robust
        assert np.all(robust_grid[mask.status == STATUS_ROBUST])
        assert mask.rv == rv_grid

    def test_fixed_seed_bit_identical(self):
        model, base = synthetic_ssn_4x4()
        spec = build_darkening(base, 1.0, min_darkening=5 / 255, rng_seed=7)
        r1, m1, man1 = run_naive_pipeline(
            model, spec, train_size=100, calib_size=200, epsilon=0.05,
            rank_ell=190, seed=8,
        )
        r2, m2, man2 = run_naive_pipeline(
            model, spec, train_size=100, calib_size=200, epsilon=0.05,
            rank_ell=190, seed=8,
        )
        np.testing.assert_array_equal(m1.status, m2.status)
        np.testing.assert_array_equal(r1.sigma, r2.sigma)
        assert man1["rank_score"] == man2["rank_score"]
        assert status_pgm_bytes(m1) == status_pgm_bytes(m2)

    def test_streamed_calibration_matches_stacked(self):
        # two calib blocks: scoring each on arrival equals scoring the stack
        model, base = synthetic_ssn_4x4()
        spec = build_darkening(base, 1.0, min_darkening=5 / 255, rng_seed=5)
        m, ell = PIPELINE_CHUNK + 808, PIPELINE_CHUNK + 700
        reachset, mask, manifest = run_naive_pipeline(
            model, spec, train_size=400, calib_size=m, epsilon=0.02,
            rank_ell=ell, seed=6,
        )
        blocks = list(stage_outputs(model, spec, 6, "calib", m))
        assert [b.shape[0] for b in blocks] == [PIPELINE_CHUNK, 808]
        cs = center_and_scales(np.vstack(list(stage_outputs(model, spec, 6, "train", 400))))
        calib = build_calibration(np.vstack(blocks), cs)
        g = guarantee_confidence(0.02, ell, m)
        stacked = naive_reachset(calib, cs, g)
        lo, hi = stacked.project_intervals()
        status = pixel_status(
            lo.reshape(4, 4, 3), hi.reshape(4, 4, 3), mask.baseline_mask, g
        ).status
        assert manifest["rank_score"] == calib.rank_score(ell)
        np.testing.assert_array_equal(reachset.sigma, stacked.sigma)
        np.testing.assert_array_equal(mask.status, status)


class TestSurrogatePipeline:
    def test_degenerate_box_reproduces_baseline(self):
        model, base = synthetic_ssn_4x4()
        spec = build_darkening(base, 1.0, min_darkening=5 / 255, rng_seed=9)
        frozen = PerturbationSpec(
            base_image=base,
            noise_index=spec.noise_index,
            noise_value=spec.noise_value,
            lambda_lower=np.zeros(2),
            lambda_upper=np.zeros(2),
            distribution=UNIFORM_BOX,
        )
        _, mask, _ = run_surrogate_pipeline(
            model, frozen, train_size=50, calib_size=100, aux_size=30,
            num_components=2, epsilon=0.05, rank_ell=95, seed=10,
        )
        assert np.all(mask.status == STATUS_ROBUST)

    def test_fixed_seed_bit_identical(self):
        model, base = synthetic_ssn_4x4()
        spec = build_darkening(base, 1.0, min_darkening=5 / 255, rng_seed=11)
        _, m1, _ = run_surrogate_pipeline(
            model, spec, train_size=150, calib_size=300, aux_size=80,
            num_components=4, epsilon=0.02, rank_ell=294, seed=12,
        )
        _, m2, _ = run_surrogate_pipeline(
            model, spec, train_size=150, calib_size=300, aux_size=80,
            num_components=4, epsilon=0.02, rank_ell=294, seed=12,
        )
        np.testing.assert_array_equal(m1.status, m2.status)

    def test_soundness_coupling_with_samples(self):
        # whenever the reachset covers a sample's logits, a robust label
        # implies that sample's argmax equals the baseline class
        from conformal_reach.model import infer
        from conformal_reach.perturb import apply_batch, sample_lambdas

        model, base = synthetic_ssn_4x4()
        spec = build_darkening(base, 1.0, min_darkening=5 / 255, rng_seed=13)
        reachset, mask, _ = run_surrogate_pipeline(
            model, spec, train_size=200, calib_size=400, aux_size=100,
            num_components=4, epsilon=0.02, rank_ell=392, seed=14,
        )
        lo, hi = reachset.project_intervals()
        lams = sample_lambdas(spec, 10_000, 77)
        Y = infer(model, apply_batch(spec, lams))
        covered = np.all((Y >= lo) & (Y <= hi), axis=1)
        classes = np.argmax(Y.reshape(-1, 4, 4, 3), axis=3) + 1
        robust = mask.status == STATUS_ROBUST
        agree = classes[covered][:, robust] == mask.baseline_mask[None, robust]
        assert np.all(agree)

    def test_streamed_calibration_matches_stacked(self):
        # two calib blocks: scoring each on arrival equals scoring the stack
        m, ell = PIPELINE_CHUNK + 808, PIPELINE_CHUNK + 700
        model, spec, (reachset, _, manifest) = run_4x4(
            "surrogate", calib_size=m, epsilon=0.02, rank_ell=ell,
        )
        blocks = list(residual_blocks(model, spec, 8, "calib", m, reachset))
        assert [b.shape[0] for b in blocks] == [PIPELINE_CHUNK, 808]
        cs = center_and_scales(np.vstack(list(residual_blocks(model, spec, 8, "aux", 80, reachset))))
        calib = build_calibration(np.vstack(blocks), cs, source="surrogate-errors")
        assert manifest["rank_score"] == calib.rank_score(ell)
        np.testing.assert_array_equal(reachset.error_sigma, cs.tau * calib.rank_score(ell))


# (pipeline, stage named in the error, sampling stream poisoned with a NaN)
STAGES = [
    ("naive", "train", "train"),
    ("naive", "calibrate", "calib"),
    ("surrogate", "train", "train"),
    ("surrogate", "normalize", "aux"),
    ("surrogate", "calibrate", "calib"),
]


@pytest.mark.parametrize("pipeline, stage, stream", STAGES)
def test_stage_failure_names_stage(monkeypatch, pipeline, stage, stream):
    real = verify.stage_outputs

    def one_nan(model, spec, seed, name, count):
        for Y in real(model, spec, seed, name, count):
            if name == stream:
                Y = Y.copy()
                Y[0, 0] = np.nan
            yield Y

    monkeypatch.setattr(verify, "stage_outputs", one_nan)
    with pytest.raises(PipelineStageError, match=f"^{stage}: .*finite"):
        run_4x4(pipeline)


@pytest.mark.parametrize("pipeline, fit_stream", [("naive", "train"), ("surrogate", "aux")])
def test_manifest_scales_give_half_width(pipeline, fit_stream):
    # the common manifest keys, and half-width = rank score * tau bit for bit
    model, spec, (reachset, _, manifest) = run_4x4(pipeline)
    surrogate = None if pipeline == "naive" else reachset
    count = 100 if pipeline == "naive" else 80
    cs = center_and_scales(
        np.vstack(list(residual_blocks(model, spec, 8, fit_stream, count, surrogate)))
    )
    assert manifest["tau_star"] == cs.tau_star
    assert manifest["degenerate_scales"] == cs.degenerate
    half = reachset.sigma if surrogate is None else reachset.error_sigma
    np.testing.assert_array_equal(half, manifest["rank_score"] * cs.tau)
    for key in ("guarantee", "perturbation", "seed", "train_size", "calib_size"):
        assert key in manifest


class TestConservatismAudit:
    def setup_method(self):
        rng = np.random.default_rng(15)
        self.model = random_mlp([4, 12, 6], rng)
        base = ImageTensor(1, 2, 2, np.full(4, 0.5))
        self.spec = build_global_ball(base, "linf", 0.3)

    def test_infinite_bounds_flagged_degenerate(self):
        n = self.model.output_dim
        report = conservatism_audit(
            self.model, self.spec, np.full(n, -np.inf), np.full(n, np.inf),
            sample_count=100, seed=16,
        )
        assert report.eps_hat == 0.0
        assert report.bound_ratio == 0.0
        assert report.degenerate

    def test_self_consistency_ratio_one(self):
        # audit against bounds equal to the empirical min/max of the very
        # samples audited: ratio 1, no misses
        n = self.model.output_dim
        first = conservatism_audit(
            self.model, self.spec, np.full(n, -1e9), np.full(n, 1e9),
            sample_count=500, seed=17,
        )
        report = conservatism_audit(
            self.model, self.spec, first.empirical_lo, first.empirical_hi,
            sample_count=500, seed=17,
        )
        assert report.eps_hat == 0.0
        assert report.bound_ratio == pytest.approx(1.0, abs=1e-12)

    def test_valid_run_ratio_below_one_when_covering(self):
        reachset, mask, _ = run_naive_pipeline(
            self.model, self.spec, train_size=200, calib_size=400,
            epsilon=0.02, rank_ell=400, seed=18,
        )
        lo, hi = reachset.project_intervals()
        report = conservatism_audit(
            self.model, self.spec, lo, hi, sample_count=2000, seed=19
        )
        if report.eps_hat == 0.0:
            assert report.bound_ratio <= 1.0 + 1e-9
        assert report.eps_hat <= 10 * 0.02

    def test_single_sample_eps_binary(self):
        n = self.model.output_dim
        r = conservatism_audit(
            self.model, self.spec, np.full(n, -1e9), np.full(n, 1e9),
            sample_count=1, seed=20,
        )
        assert r.eps_hat in (0.0, 1.0)

    def test_re_audit_same_seed_identical(self):
        n = self.model.output_dim
        a = conservatism_audit(
            self.model, self.spec, np.full(n, -0.5), np.full(n, 0.5),
            sample_count=300, seed=21,
        )
        b = conservatism_audit(
            self.model, self.spec, np.full(n, -0.5), np.full(n, 0.5),
            sample_count=300, seed=21,
        )
        assert a.eps_hat == b.eps_hat
        np.testing.assert_array_equal(a.empirical_lo, b.empirical_lo)


def test_status_pgm_levels():
    from conformal_reach.verify import PixelStatusMask

    status = np.array([[STATUS_ROBUST, STATUS_NONROBUST], [STATUS_UNKNOWN, STATUS_ROBUST]], dtype=np.uint8)
    mask = PixelStatusMask(
        status=status, baseline_mask=np.ones((2, 2), dtype=np.int64),
        rv=50.0, guarantee=G,
    )
    blob = status_pgm_bytes(mask)
    assert blob.startswith(b"P5\n2 2\n255\n")
    assert blob[-4:] == bytes([255, 128, 0, 255])
