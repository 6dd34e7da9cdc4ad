import json
import math

import numpy as np
import pytest

from conformal_reach import _seeds, pca, verify
from conformal_reach.calibrate import build_calibration, center_and_scales, naive_reachset
from conformal_reach.guarantees import guarantee_confidence
from conformal_reach.hull import clip_batch
from conformal_reach.model import INFER_CHUNK, ImageTensor, MlpNetwork, infer, random_mlp
from conformal_reach.perturb import (
    PIPELINE_CHUNK,
    PerturbationSpec,
    apply_batch,
    build_darkening,
    build_global_ball,
    spec_from_manifest,
    stage_outputs,
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
)

from oracles import darkening_grid_rv, surrogate_fit, synthetic_ssn_4x4
from test_golden import CASES, golden_inputs

G = guarantee_confidence(0.05, 95, 100)


def residual_blocks(model, spec, seed, stage, count, surrogate=None):
    """The blocks a pipeline scores on one stage, as new arrays that may be
    kept: the raw outputs for the naive box, q = f - g for the surrogate
    of ``surrogate`` = (basis, hull)."""
    for Y in stage_outputs(model, spec, seed, stage, count):
        if surrogate is None:
            yield Y.copy()
        else:
            basis, hull = surrogate
            A = basis.matrix
            yield Y - clip_batch(Y @ A, hull)[0] @ A.T


def run_4x4(pipeline, spec=None, **overrides):
    """One seeded run of either pipeline on the 4x4 model, under the
    darkening adversary unless ``spec`` is given."""
    model, base = synthetic_ssn_4x4()
    if spec is None:
        spec = build_darkening(base, 1.0, min_darkening=5 / 255, rng_seed=7)
    args = dict(train_size=100, calib_size=200, epsilon=0.05, rank_ell=190, seed=8)
    if pipeline == "naive":
        return model, spec, run_naive_pipeline(model, spec, **dict(args, **overrides))
    args.update(aux_size=80, num_components=4)
    return model, spec, run_surrogate_pipeline(model, spec, **dict(args, **overrides))


def timeless(manifest):
    """The manifest without its stages' wall times, which vary run to run."""
    return dict(manifest, stages=[dict(s, seconds=None) for s in manifest["stages"]])


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

    @pytest.mark.parametrize(
        "lo, hi, baseline, match",
        [
            (np.zeros((1, 1, 2)), np.ones((1, 1, 3)), np.array([[1]]), "^bound shapes disagree: "),
            (np.zeros((1, 2)), np.ones((1, 2)), np.array([[1]]), "^bound shapes disagree: "),
            (np.zeros((1, 1, 2)), np.ones((1, 1, 2)), np.array([[1, 1]]),
             "^baseline mask shape disagrees with bounds$"),
        ],
        ids=["bounds-differ", "bounds-2d", "baseline"],
    )
    def test_bad_shapes_rejected(self, lo, hi, baseline, match):
        with pytest.raises(ValueError, match=match):
            pixel_status(lo, hi, baseline, G)

    def test_integer_bounds_read_as_float(self):
        # an integer copy of y_hi could not take the -inf that masks the winner
        lo, hi = np.array([[[2, 0]]]), np.array([[[3, 1]]])
        floats = pixel_status(lo.astype(float), hi.astype(float), np.array([[1]]), G)
        ints = pixel_status(lo, hi, np.array([[1]]), G)
        assert ints.status[0, 0] == floats.status[0, 0] == STATUS_ROBUST

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

    def test_streamed_calibration_matches_stacked(self):
        # two sampling chunks: scoring each block on arrival equals scoring the stack
        model, base = synthetic_ssn_4x4()
        spec = build_darkening(base, 1.0, min_darkening=5 / 255, rng_seed=5)
        m, ell = PIPELINE_CHUNK + 808, PIPELINE_CHUNK + 700
        reachset, mask, manifest = run_naive_pipeline(
            model, spec, train_size=400, calib_size=m, epsilon=0.02,
            rank_ell=ell, seed=6,
        )
        blocks = list(residual_blocks(model, spec, 6, "calib", m))
        assert [b.shape[0] for b in blocks] == [INFER_CHUNK] * 8 + [808]
        cs = center_and_scales(np.vstack(list(residual_blocks(model, spec, 6, "train", 400))))
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


@pytest.mark.parametrize("case", ["4x4", "golden-naive"])
def test_naive_intervals_are_the_zero_lift_box(case):
    # The naive box is the one ReachSet with zero lifts. Adding 0.0 is exact,
    # so its intervals keep the bits of center -/+ sigma and of
    # naive_reachset on the same calibration (the benchmark replay's path).
    # Only a -0.0 center coordinate with zero half-width could differ: -0.0
    # + 0.0 is +0.0, which flips the sign bit of that interval's ends.
    if case == "4x4":
        model, spec, (reachset, _, _) = run_4x4("naive")
        args = dict(train_size=100, calib_size=200, seed=8)
    else:
        model, spec = golden_inputs()
        args = CASES["naive"][2]
        reachset, _, _ = run_naive_pipeline(model, spec, **args)
    seed = args["seed"]
    cs = center_and_scales(
        np.vstack(list(residual_blocks(model, spec, seed, "train", args["train_size"])))
    )
    calib = build_calibration(
        np.vstack(list(residual_blocks(model, spec, seed, "calib", args["calib_size"]))), cs
    )
    replayed = naive_reachset(calib, cs, reachset.guarantee).project_intervals()
    box = reachset.center - reachset.sigma, reachset.center + reachset.sigma
    for got, *wants in zip(reachset.project_intervals(), replayed, box):
        for want in wants:
            assert got.tobytes() == want.tobytes()


def law_instance(grid_size):
    """The guarantee-law tests' instance: a 1x1x1 image under a radius-0.4
    l-inf ball through a 1-8-3 network, and its outputs on a grid of
    ``grid_size`` coefficients spanning the ball."""
    model = random_mlp([1, 8, 3], np.random.default_rng(0))
    spec = build_global_ball(ImageTensor(1, 1, 1, np.array([0.5])), "linf", 0.4)
    Y = infer(model, apply_batch(spec, np.linspace(-0.4, 0.4, grid_size)[:, None]))
    return model, spec, Y


def beta_law_ks(coverages):
    """KS distance between Beta(95, 6) and the 400 ``coverages``, and its
    1% critical value (0.081)."""
    from scipy.stats import beta, kstest, kstwo

    return kstest(coverages, beta(95, 100 + 1 - 95).cdf).statistic, kstwo(400).ppf(0.99)


def naive_coverages(rank_ell):
    """Coverages of the naive boxes of seeds 0-399 on the law instance,
    train = m = 100, each measured on a grid of 100,001 coefficients. With
    ell = 95 and calib drawn apart from train, a coverage is distributed as
    Beta(ell, m + 1 - ell)."""
    model, spec, Y = law_instance(100_001)
    coverages = []
    for seed in range(400):
        reachset, _, _ = run_naive_pipeline(
            model, spec, train_size=100, calib_size=100, epsilon=0.1,
            rank_ell=rank_ell, seed=seed,
        )
        lo, hi = reachset.project_intervals()
        coverages.append(np.mean(np.all((Y >= lo) & (Y <= hi), axis=1)))
    return coverages


def test_coverage_follows_beta_law():
    # the guarantee's law through the real pipeline; reads 0.033
    ks, critical = beta_law_ks(naive_coverages(95))
    assert ks < critical


@pytest.mark.parametrize("mutant", ["rank-ell-minus-1", "calib-from-train-stream"])
def test_beta_law_test_catches(monkeypatch, mutant):
    # a rank off by one reads 0.195; calib drawn from train's stream, so
    # with train = m both stages hold the same samples, reads 0.106
    rank_ell = 95
    if mutant == "rank-ell-minus-1":
        rank_ell = 94
    else:
        monkeypatch.setitem(_seeds.STAGES, "calib", 0)
    ks, critical = beta_law_ks(naive_coverages(rank_ell))
    assert ks > critical


def surrogate_coverages(rank_ell):
    """Coverages of seeds 0-399's surrogate runs on the law instance, train
    = aux = m = 100 and one component, each measured on a grid of 10,001
    coefficients: of the calibrated set {|q - center| <= sigma} of q = f -
    g, which is distributed as Beta(ell, m + 1 - ell) when calib is drawn
    apart from aux, and of the box, which contains the set's image."""
    model, spec, Y = law_instance(10_001)
    set_coverages, box_coverages = [], []
    for seed in range(400):
        reachset, _, _ = run_surrogate_pipeline(
            model, spec, train_size=100, calib_size=100, aux_size=100,
            num_components=1, epsilon=0.1, rank_ell=rank_ell, seed=seed,
        )
        basis, hull = surrogate_fit(model, spec, seed, 100, 1)
        A = basis.matrix
        q = Y - clip_batch(Y @ A, hull)[0] @ A.T
        set_coverages.append(np.mean(np.all(np.abs(q - reachset.center) <= reachset.sigma, axis=1)))
        lo, hi = reachset.project_intervals()
        box_coverages.append(np.mean(np.all((Y >= lo) & (Y <= hi), axis=1)))
    return np.array(set_coverages), np.array(box_coverages)


def test_surrogate_coverage_follows_beta_law():
    # the guarantee's law through the real surrogate pipeline reads 0.038;
    # its box over-covers the set in every run
    set_coverages, box_coverages = surrogate_coverages(95)
    ks, critical = beta_law_ks(set_coverages)
    assert ks < critical
    assert np.all(box_coverages >= set_coverages)


@pytest.mark.parametrize("mutant", ["rank-ell-minus-1", "calib-from-aux-stream"])
def test_surrogate_beta_law_test_catches(monkeypatch, mutant):
    # a rank off by one reads 0.202; calib drawn from aux's stream, so with
    # aux = m both stages hold the same samples, reads 0.138
    rank_ell = 95
    if mutant == "rank-ell-minus-1":
        rank_ell = 94
    else:
        monkeypatch.setitem(_seeds.STAGES, "calib", _seeds.STAGES["aux"])
    ks, critical = beta_law_ks(surrogate_coverages(rank_ell)[0])
    assert ks > critical


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
        lams = sample_lambdas(spec, 10_000, np.random.default_rng(77))
        Y = infer(model, apply_batch(spec, lams))
        covered = np.all((Y >= lo) & (Y <= hi), axis=1)
        classes = np.argmax(Y.reshape(-1, 4, 4, 3), axis=3) + 1
        robust = mask.status == STATUS_ROBUST
        agree = classes[covered][:, robust] == mask.baseline_mask[None, robust]
        assert np.all(agree)

    def test_streamed_calibration_matches_stacked(self):
        # two sampling chunks: scoring each block on arrival equals scoring the stack
        m, ell = PIPELINE_CHUNK + 808, PIPELINE_CHUNK + 700
        model, spec, (reachset, _, manifest) = run_4x4(
            "surrogate", calib_size=m, epsilon=0.02, rank_ell=ell,
        )
        fit = surrogate_fit(model, spec, 8, 100, 4)
        blocks = list(residual_blocks(model, spec, 8, "calib", m, fit))
        assert [b.shape[0] for b in blocks] == [INFER_CHUNK] * 8 + [808]
        cs = center_and_scales(np.vstack(list(residual_blocks(model, spec, 8, "aux", 80, fit))))
        calib = build_calibration(np.vstack(blocks), cs)
        assert manifest["rank_score"] == calib.rank_score(ell)
        np.testing.assert_array_equal(reachset.sigma, cs.tau * calib.rank_score(ell))


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


@pytest.mark.parametrize(
    "pipeline, size",
    [
        ("naive", "train_size"),
        ("surrogate", "train_size"),
        ("surrogate", "aux_size"),
        ("surrogate", "num_components"),
    ],
)
@pytest.mark.parametrize("bad", [0, -3, 2.5, True])
def test_bad_sample_size_rejected_before_any_draw(monkeypatch, pipeline, size, bad):
    def no_draw(*args):
        raise AssertionError("a stage was drawn")

    monkeypatch.setattr(verify, "stage_outputs", no_draw)
    with pytest.raises(ValueError, match=f"^{size} must be a positive integer, got {bad!r}$"):
        run_4x4(pipeline, **{size: bad})


@pytest.mark.parametrize("pipeline", ["naive", "surrogate"])
@pytest.mark.parametrize("bad", ["0.05", True])
def test_bad_epsilon_rejected_before_any_draw(monkeypatch, pipeline, bad):
    def no_draw(*args):
        raise AssertionError("a stage was drawn")

    monkeypatch.setattr(verify, "stage_outputs", no_draw)
    with pytest.raises(ValueError, match=f"^epsilon must be a real number, got {bad!r}$"):
        run_4x4(pipeline, epsilon=bad)


@pytest.mark.parametrize(
    "train_size, num_components, limit", [(100, 100, 48), (100, 49, 48), (3, 4, 3)]
)
def test_too_many_components_rejected_before_any_draw(
    monkeypatch, train_size, num_components, limit
):
    # the 4x4 model has 48 outputs
    def no_draw(*args):
        raise AssertionError("a stage was drawn")

    monkeypatch.setattr(verify, "stage_outputs", no_draw)
    with pytest.raises(
        ValueError,
        match=rf"^num_components must be at most min\(output_dim, train_size\) = {limit}, "
        rf"got {num_components}$",
    ):
        run_4x4("surrogate", train_size=train_size, num_components=num_components)


@pytest.mark.parametrize("call", ["naive", "surrogate", "audit"])
@pytest.mark.parametrize("bad", [-1, 2.5, "7", True])
def test_bad_seed_rejected_before_any_draw(monkeypatch, call, bad):
    def no_draw(*args):
        raise AssertionError("a stage was drawn")

    monkeypatch.setattr(verify, "stage_outputs", no_draw)
    with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {bad!r}$"):
        if call == "audit":
            model, base = synthetic_ssn_4x4()
            spec = build_darkening(base, 1.0, min_darkening=5 / 255, rng_seed=7)
            n = model.output_dim
            conservatism_audit(model, spec, np.zeros(n), np.ones(n), 10, seed=bad)
        else:
            run_4x4(call, seed=bad)


@pytest.mark.parametrize("call", ["naive", "surrogate", "audit"])
def test_bad_input_dim_rejected_before_any_draw(monkeypatch, call):
    # a 15-input model on the 16-pixel 4x4 image, with its 48 outputs
    def no_draw(*args):
        raise AssertionError("a stage was drawn")

    monkeypatch.setattr(verify, "stage_outputs", no_draw)
    _, base = synthetic_ssn_4x4()
    spec = build_darkening(base, 1.0, min_darkening=5 / 255, rng_seed=7)
    model = random_mlp([15, 48], np.random.default_rng(0))
    with pytest.raises(ValueError, match="^input dim 15 != image size 16$"):
        if call == "audit":
            conservatism_audit(model, spec, np.zeros(48), np.ones(48), 10, seed=0)
        elif call == "naive":
            run_naive_pipeline(model, spec, 100, 200, 0.05, 190)
        else:
            run_surrogate_pipeline(model, spec, 100, 200, 80, 4, 0.05, 190)


@pytest.mark.parametrize("pipeline", ["naive", "surrogate"])
def test_bad_output_dim_rejected_before_any_draw(monkeypatch, pipeline):
    # 47 outputs on the 16-pixel 4x4 image hold no whole number of classes
    def no_draw(*args):
        raise AssertionError("a stage was drawn")

    monkeypatch.setattr(verify, "stage_outputs", no_draw)
    _, base = synthetic_ssn_4x4()
    spec = build_darkening(base, 1.0, min_darkening=5 / 255, rng_seed=7)
    model = random_mlp([16, 47], np.random.default_rng(0))
    with pytest.raises(ValueError, match="^output dim 47 is not a multiple of pixel count 16$"):
        if pipeline == "naive":
            run_naive_pipeline(model, spec, 100, 200, 0.05, 190)
        else:
            run_surrogate_pipeline(model, spec, 100, 200, 80, 4, 0.05, 190)


@pytest.mark.parametrize("pipeline", ["naive", "surrogate"])
def test_numpy_integer_sizes_accepted(pipeline):
    # numpy integers give the same run, and a manifest of plain Python
    # numbers that ``json.dumps`` takes
    sizes = dict(
        train_size=np.int64(100), calib_size=np.int64(200), rank_ell=np.int64(190),
        seed=np.int64(8),
    )
    if pipeline == "surrogate":
        sizes.update(aux_size=np.int32(80), num_components=np.int64(4))
    _, _, (_, mask, manifest) = run_4x4(pipeline, **sizes)
    _, _, (_, ref, ref_manifest) = run_4x4(pipeline)
    np.testing.assert_array_equal(mask.status, ref.status)
    assert json.loads(json.dumps(manifest)) == manifest
    assert timeless(manifest) == timeless(ref_manifest)
    for key in sizes:
        assert type(manifest.get(key, manifest["guarantee"].get(key))) is int, key


@pytest.mark.parametrize("pipeline", ["naive", "surrogate"])
def test_numpy_float_epsilon_manifest_is_json_ready(pipeline):
    # a float32 epsilon gives a manifest of plain Python numbers
    _, _, (_, _, manifest) = run_4x4(pipeline, epsilon=np.float32(0.05))
    assert json.loads(json.dumps(manifest, allow_nan=False)) == manifest


@pytest.mark.parametrize("pipeline", ["naive", "surrogate"])
def test_manifest_records_every_stage(pipeline):
    # in run order, with the sample count of the stream each stage reads
    _, _, (_, _, manifest) = run_4x4(pipeline)
    rows = {"train": 100, "aux": 80, "calib": 200}
    expected = [(stage, rows[stream]) for p, stage, stream in STAGES if p == pipeline]
    assert [(s["stage"], s["rows"]) for s in manifest["stages"]] == expected
    for record in manifest["stages"]:
        assert set(record) == {"stage", "rows", "seconds"}
        assert type(record["rows"]) is int
        assert math.isfinite(record["seconds"]) and record["seconds"] >= 0
    assert json.loads(json.dumps(manifest)) == manifest


@pytest.mark.parametrize("pipeline", ["naive", "surrogate"])
@pytest.mark.parametrize("adversary", ["darkening", "l2-ball", "linf-ball"])
def test_rerun_from_manifest_alone(pipeline, adversary):
    # the base image, the model and the manifest reproduce the run bit for bit
    _, base = synthetic_ssn_4x4()
    spec = None
    if adversary != "darkening":
        spec = build_global_ball(base, adversary.split("-")[0], 0.05)
    model, _, (reachset, mask, manifest) = run_4x4(pipeline, spec)
    man = json.loads(json.dumps(manifest))
    g = man["guarantee"]
    args = dict(
        train_size=man["train_size"], calib_size=g["calib_size_m"],
        epsilon=g["epsilon"], rank_ell=g["rank_ell"], seed=man["seed"],
    )
    rebuilt = spec_from_manifest(man["perturbation"], base)
    if pipeline == "naive":
        again, again_mask, _ = run_naive_pipeline(model, rebuilt, **args)
    else:
        again, again_mask, _ = run_surrogate_pipeline(
            model, rebuilt, aux_size=man["aux_size"],
            num_components=man["num_components"], **args,
        )
    for got, want in zip(again.project_intervals(), reachset.project_intervals()):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(again_mask.status, mask.status)


@pytest.mark.parametrize("pipeline, fit_stream", [("naive", "train"), ("surrogate", "aux")])
def test_manifest_scales_give_half_width(pipeline, fit_stream):
    # the common manifest keys, and half-width = rank score * tau bit for bit
    model, spec, (reachset, _, manifest) = run_4x4(pipeline)
    fit = None if pipeline == "naive" else surrogate_fit(model, spec, 8, 100, 4)
    count = 100 if pipeline == "naive" else 80
    cs = center_and_scales(
        np.vstack(list(residual_blocks(model, spec, 8, fit_stream, count, fit)))
    )
    assert manifest["tau_star"] == cs.tau_star
    assert manifest["degenerate_scales"] == cs.degenerate
    np.testing.assert_array_equal(reachset.sigma, manifest["rank_score"] * cs.tau)
    for key in ("guarantee", "perturbation", "seed", "train_size", "calib_size"):
        assert key in manifest


def test_surrogate_manifest_flags(monkeypatch):
    # plain bools read off the hull and the basis; capping the ascent at
    # one step leaves a direction unconverged, and the flag shows it
    model, spec, (_, _, manifest) = run_4x4("surrogate")
    basis, hull = surrogate_fit(model, spec, 8, 100, 4)
    flags = {"hull_degenerate": hull.degenerate,
             "deflation_converged": basis.converged.all()}
    for key, want in flags.items():
        assert type(manifest[key]) is bool and manifest[key] == want, key
    assert manifest["deflation_converged"]
    assert json.loads(json.dumps(manifest)) == manifest
    monkeypatch.setattr(pca, "_MAX_ITERS", 1)
    _, _, (_, _, manifest) = run_4x4("surrogate")
    assert manifest["deflation_converged"] is False


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

    @pytest.mark.parametrize("bound", [1.0, 0.0, np.inf], ids=["finite", "zero-width", "infinite"])
    def test_degenerate_is_a_python_bool(self, bound):
        n = self.model.output_dim
        report = conservatism_audit(
            self.model, self.spec, np.full(n, -bound), np.full(n, bound),
            sample_count=50, seed=16,
        )
        assert type(report.degenerate) is bool
        assert report.degenerate is (bound != 1.0)

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

    @pytest.mark.parametrize(
        "lo, hi, match",
        [
            ([np.nan] + [-1.0] * 5, [1.0] * 6, "NaN"),
            ([-1.0] * 6, [1.0] * 5 + [np.nan], "NaN"),
            ([-1.0], [1.0], "6 values each"),
            ([-1.0] * 7, [1.0] * 7, "6 values each"),
            ([1.0] * 6, [-1.0] * 6, "y_lo must be <= y_hi"),
        ],
        ids=["nan-lo", "nan-hi", "length-1", "too-long", "swapped"],
    )
    def test_bad_bounds_rejected(self, lo, hi, match):
        with pytest.raises(ValueError, match=match):
            conservatism_audit(self.model, self.spec, lo, hi, sample_count=10, seed=16)

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True])
    def test_bad_sample_count_rejected(self, bad):
        n = self.model.output_dim
        with pytest.raises(ValueError, match=f"^sample_count must be a positive integer, got {bad!r}$"):
            conservatism_audit(
                self.model, self.spec, np.full(n, -1.0), np.full(n, 1.0),
                sample_count=bad, seed=16,
            )

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

