import dataclasses
import json

import numpy as np
import pytest

from conformal_reach import model as model_module
from conformal_reach.model import ImageTensor, random_mlp
from conformal_reach.perturb import (
    PerturbationSpec,
    apply_batch,
    build_darkening,
    build_global_ball,
    sample_lambdas,
    spec_from_manifest,
    spec_manifest,
    stage_outputs,
)

from oracles import dense_darkening_matrix, l2_ball_draw, synthetic_ssn_4x4

THRESH = 150.0 / 255.0


def bright_2x2():
    return ImageTensor.from_array(np.array([[0.9, 0.1], [0.8, 0.2]]))


def selected_pixels(spec):
    """(row, col) of each darkened pixel in spec order: every
    ``channels``-th noise index, divided by ``channels``."""
    image = spec.base_image
    flat = spec.noise_index[:: image.channels] // image.channels
    return [divmod(int(k), image.width) for k in flat]


class TestApply:
    def test_zero_lambda_is_base(self):
        img = bright_2x2()
        spec = build_global_ball(img, "linf", 0.25)
        out = apply_batch(spec, np.zeros((1, spec.dim)))
        np.testing.assert_array_equal(out[0], img.data)

    def test_full_darkening_zeroes_channel(self):
        img = bright_2x2()
        spec = build_darkening(img, 1e-9, min_darkening=0.01, rng_seed=1)
        assert spec.dim == 1  # fraction small enough for one pixel, nc=1
        (i, j) = selected_pixels(spec)[0]
        out = apply_batch(spec, np.ones((1, 1)))[0].reshape(2, 2, 1)
        assert out[i, j, 0] == 0.0

    def test_two_pixel_superposition(self):
        img = bright_2x2()
        spec = build_darkening(img, 1.0, min_darkening=0.05, rng_seed=2)
        lam = np.array([0.5, 0.25])
        out = apply_batch(spec, lam[None, :])[0].reshape(2, 2, 1)
        base = img.as_array()
        for k, (i, j) in enumerate(selected_pixels(spec)):
            assert out[i, j, 0] == pytest.approx(base[i, j, 0] * (1 - lam[k]))

    def test_affine_in_lambda(self):
        img = bright_2x2()
        spec = build_darkening(img, 1.0, min_darkening=0.05, rng_seed=3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            l1 = rng.uniform(spec.lambda_lower, spec.lambda_upper)
            l2 = rng.uniform(spec.lambda_lower, spec.lambda_upper)
            a = rng.random()
            mix, out1, out2 = apply_batch(spec, np.stack([a * l1 + (1 - a) * l2, l1, l2]))
            combo = a * out1 + (1 - a) * out2
            np.testing.assert_allclose(mix, combo, rtol=1e-12, atol=1e-15)

    def test_caller_lams_unchanged(self):
        # the implicit basis forms its images in the coefficient array
        spec = build_global_ball(bright_2x2(), "l2", 0.3)
        lams = sample_lambdas(spec, 5, np.random.default_rng(4))
        kept = lams.copy()
        np.testing.assert_array_equal(apply_batch(spec, lams), spec.base_image.data + kept)
        np.testing.assert_array_equal(lams, kept)

    # a 4x4x3 image bright everywhere: every channel is darkened, so a
    # selection and the implicit basis both have r = n0 = 48
    BASES = {
        "selection": lambda img: build_darkening(img, 1.0, rng_seed=5),
        "implicit": lambda img: build_global_ball(img, "l2", 0.3),
    }

    def test_selection_refuses_one_coefficient_vector(self):
        # a vector is not one image: a selection took its length as the
        # row count and returned r copies of the image
        spec = self.BASES["selection"](ImageTensor.from_array(np.full((4, 4, 3), 0.8)))
        assert spec.dim == 48
        with pytest.raises(ValueError, match=r"^lams must have shape \(k, 48\), got \(48,\)$"):
            apply_batch(spec, np.full(spec.dim, 0.5))

    def test_implicit_basis_refuses_one_coefficient_vector(self):
        # the implicit basis returned one image for the same call
        spec = self.BASES["implicit"](ImageTensor.from_array(np.full((4, 4, 3), 0.8)))
        with pytest.raises(ValueError, match=r"^lams must have shape \(k, 48\), got \(48,\)$"):
            apply_batch(spec, np.zeros(spec.dim))

    @pytest.mark.parametrize("basis", sorted(BASES))
    def test_refuses_a_block_of_the_wrong_width(self, basis):
        # numpy's broadcast message named neither lams nor r
        spec = self.BASES[basis](ImageTensor.from_array(np.full((4, 4, 3), 0.8)))
        with pytest.raises(ValueError, match=r"^lams must have shape \(k, 48\), got \(3, 47\)$"):
            apply_batch(spec, np.zeros((3, spec.dim - 1)))


class TestBuildDarkening:
    def test_eligible_set_by_hand(self):
        # [[0.9, 0.1], [0.8, 0.2]]: only 0.9 and 0.8 beat 150/255
        spec = build_darkening(bright_2x2(), 1.0, THRESH, 0.05, rng_seed=5)
        assert set(selected_pixels(spec)) == {(0, 0), (1, 0)}
        assert spec.dim == 2
        base = bright_2x2().as_array()
        for k, (i, j) in enumerate(selected_pixels(spec)):
            col = (i * 2 + j) * 1
            assert spec.noise_matrix[k, col] == -base[i, j, 0]
            assert np.count_nonzero(spec.noise_matrix[k]) == 1
            # lower bound dims by exactly min_darkening, upper blacks out
            assert spec.lambda_lower[k] == pytest.approx(0.05 / base[i, j, 0])
            assert spec.lambda_upper[k] == 1.0

    def test_multichannel_counts(self):
        rng = np.random.default_rng(6)
        arr = rng.uniform(0.7, 1.0, size=(3, 3, 3))
        img = ImageTensor.from_array(arr)
        spec = build_darkening(img, 1e-9, rng_seed=7)  # r' = 1
        assert spec.dim == 3  # nc noise images per selected pixel

    def test_all_dark_image_errors(self):
        img = ImageTensor.from_array(np.full((2, 2), 0.1))
        with pytest.raises(ValueError, match="no eligible pixel"):
            build_darkening(img, 0.5, rng_seed=8)

    def test_numpy_seed_is_stored_as_int(self):
        spec = build_darkening(bright_2x2(), 0.5, min_darkening=0.05, rng_seed=np.int64(7))
        assert type(spec.recipe["rng_seed"]) is int
        assert json.loads(json.dumps(spec_manifest(spec)))["rng_seed"] == 7
        plain = build_darkening(bright_2x2(), 0.5, min_darkening=0.05, rng_seed=7)
        np.testing.assert_array_equal(spec.noise_index, plain.noise_index)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "7"])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match=r"^rng_seed must be a non-negative integer"):
            build_darkening(bright_2x2(), 0.5, min_darkening=0.05, rng_seed=seed)

    @pytest.mark.parametrize(
        "fraction, match",
        [
            ("0.5", "must be a real number, got '0.5'"),
            (None, "must be a real number, got None"),
            (True, "must be a real number, got True"),
            (np.nan, "must be finite, got nan"),
            (0.0, "must be positive, got 0.0"),
            (1.5, r"must lie in \(0, 1\], got 1.5"),
        ],
    )
    def test_rejects_bad_pixel_fraction(self, fraction, match):
        with pytest.raises(ValueError, match=f"^pixel_fraction {match}$"):
            build_darkening(bright_2x2(), fraction, min_darkening=0.05, rng_seed=1)

    def test_untouched_pixels_stay_base(self):
        rng = np.random.default_rng(9)
        arr = rng.uniform(0.0, 1.0, size=(5, 4, 3))
        arr[1, 2] = arr[3, 0] = 0.95
        img = ImageTensor.from_array(arr)
        spec = build_darkening(img, 1.0, rng_seed=10)
        touched = set()
        for i, j in selected_pixels(spec):
            for ch in range(3):
                touched.add((i * 4 + j) * 3 + ch)
        lam = spec.lambda_upper.copy()
        out = apply_batch(spec, lam[None, :])[0]
        untouched = np.setdiff1d(np.arange(img.size), sorted(touched))
        np.testing.assert_array_equal(out[untouched], img.data[untouched])


class TestGlobalBall:
    def test_linf_membership(self):
        img = bright_2x2()
        spec = build_global_ball(img, "linf", 0.03)
        for lam in sample_lambdas(spec, 50, np.random.default_rng(11)):
            assert np.max(np.abs(lam)) <= 0.03

    def test_l2_membership(self):
        img = bright_2x2()
        spec = build_global_ball(img, "l2", 0.1)
        lams = sample_lambdas(spec, 200, np.random.default_rng(12))
        assert np.all(np.linalg.norm(lams, axis=1) <= 0.1)

    def test_radius_to_zero_limit(self):
        img = bright_2x2()
        spec = build_global_ball(img, "l2", 1e-14)
        for pert in apply_batch(spec, sample_lambdas(spec, 5, np.random.default_rng(13))):
            np.testing.assert_allclose(pert, img.data, atol=1e-13)

    def test_implicit_basis_not_materialized(self):
        spec = build_global_ball(bright_2x2(), "linf", 0.1)
        assert spec.noise_matrix is None
        assert spec.dim == 4

    def test_linf_ball_is_a_box(self, monkeypatch):
        # the l-inf ball is the uniform box [-e, e]^n0 with no radius, and
        # its stream, in blocks of 4 and 5 rows, has the bits of that box
        # built directly
        img = bright_2x2()
        spec = build_global_ball(img, "linf", 0.1)
        assert spec.radius is None
        box = PerturbationSpec(
            base_image=img, noise_index=None, noise_value=None,
            lambda_lower=np.full(4, -0.1), lambda_upper=np.full(4, 0.1),
        )
        model = random_mlp([img.size, 5, 3], np.random.default_rng(19))
        monkeypatch.setattr(model_module, "BLOCK_BYTES", 4 * 8 * (img.size + 3))
        got = [Y.copy() for Y in stage_outputs(model, spec, 20, "train", 9)]
        want = [Y.copy() for Y in stage_outputs(model, box, 20, "train", 9)]
        assert [Y.shape[0] for Y in got] == [Y.shape[0] for Y in want] == [4, 5]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestSample:
    def test_radius_makes_the_l2_ball(self):
        # a spec with a radius draws the global l2 ball over its r = n0
        # coefficients, whatever its box; without one it draws the box
        lower, upper = np.array([-0.3, 0.05]), np.array([0.1, 0.4])
        parts = dict(
            base_image=ImageTensor.from_array(np.array([[[0.9], [0.8]]])),
            noise_index=None, noise_value=None, lambda_lower=lower, lambda_upper=upper,
        )
        ball = sample_lambdas(PerturbationSpec(**parts, radius=0.2), 300, np.random.default_rng(26))
        np.testing.assert_array_equal(ball, l2_ball_draw(0.2, 300, 2, np.random.default_rng(26)))
        assert np.all(np.linalg.norm(ball, axis=1) <= 0.2)
        box = sample_lambdas(PerturbationSpec(**parts), 300, np.random.default_rng(26))
        want = np.random.default_rng(26).uniform(lower, upper, (300, 2))
        np.testing.assert_array_equal(box, want)

    def test_deterministic_from_seed(self):
        spec = build_darkening(bright_2x2(), 1.0, min_darkening=0.05, rng_seed=1)
        la = sample_lambdas(spec, 3, np.random.default_rng(42))
        lb = sample_lambdas(spec, 3, np.random.default_rng(42))
        np.testing.assert_array_equal(la, lb)
        np.testing.assert_array_equal(apply_batch(spec, la), apply_batch(spec, lb))

    def test_box_sampling_means(self):
        spec = build_darkening(bright_2x2(), 1.0, min_darkening=0.05, rng_seed=1)
        lams = sample_lambdas(spec, 10_000, np.random.default_rng(14))
        target = (spec.lambda_lower + spec.lambda_upper) / 2
        width = spec.lambda_upper - spec.lambda_lower
        se = width / np.sqrt(12.0) / np.sqrt(10_000)
        assert np.all(np.abs(lams.mean(axis=0) - target) < 3 * se)

    def test_degenerate_box_all_identical(self):
        img = bright_2x2()
        lo = np.array([0.3, 0.4])
        spec = build_darkening(img, 1.0, min_darkening=0.05, rng_seed=1)
        frozen = PerturbationSpec(
            base_image=img,
            noise_index=spec.noise_index,
            noise_value=spec.noise_value,
            lambda_lower=lo,
            lambda_upper=lo,
        )
        lams = sample_lambdas(frozen, 10, np.random.default_rng(15))
        np.testing.assert_array_equal(lams, np.tile(lo, (10, 1)))

    def test_every_sample_in_membership_set(self):
        spec = build_darkening(bright_2x2(), 1.0, min_darkening=0.05, rng_seed=1)
        lams = sample_lambdas(spec, 500, np.random.default_rng(16))
        assert np.all((lams >= spec.lambda_lower) & (lams <= spec.lambda_upper))

    @pytest.mark.parametrize("shape", [(341, 246), (100, 3072)])
    def test_box_draw_is_numpys_uniform(self, shape):
        # a uniform on [0, 1) scaled in place has the bits of rng.uniform
        count, r = shape
        rng = np.random.default_rng(31)
        lower = rng.uniform(-1.0, 0.5, r)
        upper = lower + rng.uniform(0.0, 2.0, r)
        spec = PerturbationSpec(
            base_image=ImageTensor.from_array(np.full((1, r, 1), 0.5)),
            noise_index=None, noise_value=None, lambda_lower=lower, lambda_upper=upper,
        )
        got = sample_lambdas(spec, count, np.random.default_rng(32))
        want = np.random.default_rng(32).uniform(lower, upper, size=shape)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_box_whose_width_overflows_is_refused(self):
        # numpy's uniform refuses it too; drawn, it would give inf or NaN.
        # A ball's bounds are never read, so the same bounds with a radius draw
        parts = dict(
            base_image=bright_2x2(), noise_index=None, noise_value=None,
            lambda_lower=np.array([0.0, -1e308, 0.0, 0.0]),
            lambda_upper=np.array([1.0, 1e308, 1.0, 1.0]),
        )
        box = PerturbationSpec(**parts)
        model = random_mlp([4, 2], np.random.default_rng(33))
        match = "^lambda_upper - lambda_lower overflows float64$"
        with pytest.raises(OverflowError, match=match):
            sample_lambdas(box, 3, np.random.default_rng(34))
        with pytest.raises(OverflowError, match=match):
            next(stage_outputs(model, box, 35, "calib", 3))
        ball = sample_lambdas(PerturbationSpec(**parts, radius=0.5), 3, np.random.default_rng(34))
        assert np.all(np.linalg.norm(ball, axis=1) <= 0.5)

    @pytest.mark.parametrize("count", [0, -2, 2.5, True, "3"])
    def test_rejects_bad_count(self, count):
        spec = build_global_ball(bright_2x2(), "l2", 0.1)
        with pytest.raises(ValueError, match=f"^count must be a positive integer, got {count!r}$"):
            sample_lambdas(spec, count, np.random.default_rng(16))


def test_manifest_round_trip():
    img = bright_2x2()
    spec = build_darkening(img, 1.0, min_darkening=0.05, rng_seed=17)
    man = spec_manifest(spec)
    # the builder call, not the pixels or the coefficient box it made
    assert man == {
        "image_shape": [2, 2, 1], "adversary": "darkening", "pixel_fraction": 1.0,
        "intensity_threshold": THRESH, "min_darkening": 0.05, "rng_seed": 17,
    }
    rebuilt = spec_from_manifest(json.loads(json.dumps(man)), img)
    np.testing.assert_array_equal(rebuilt.noise_index, spec.noise_index)
    np.testing.assert_array_equal(rebuilt.noise_value, spec.noise_value)
    np.testing.assert_array_equal(rebuilt.lambda_lower, spec.lambda_lower)
    np.testing.assert_array_equal(rebuilt.lambda_upper, spec.lambda_upper)
    assert rebuilt.recipe == spec.recipe

    for norm in ("l2", "linf"):
        ball = build_global_ball(img, norm, 0.25)
        man2 = spec_manifest(ball)
        assert man2 == {"image_shape": [2, 2, 1], "adversary": "ball", "norm": norm, "radius": 0.25}
        rebuilt2 = spec_from_manifest(json.loads(json.dumps(man2)), img)
        assert rebuilt2.radius == ball.radius
        np.testing.assert_array_equal(rebuilt2.lambda_lower, ball.lambda_lower)
        np.testing.assert_array_equal(rebuilt2.lambda_upper, ball.lambda_upper)
        # identical sampling after reconstruction
        np.testing.assert_array_equal(
            sample_lambdas(rebuilt2, 7, np.random.default_rng(18)),
            sample_lambdas(ball, 7, np.random.default_rng(18)),
        )


def darkening_image(h, w, nc, bright, seed):
    """Image whose ``bright`` random pixels beat the threshold in every
    channel and whose other pixels fall below it."""
    rng = np.random.default_rng(seed)
    flat = rng.uniform(0.0, 0.55, size=(h * w, nc))
    picked = rng.choice(h * w, size=bright, replace=False)
    flat[picked] = rng.uniform(0.65, 1.0, size=(bright, nc))
    return ImageTensor.from_array(flat.reshape(h, w, nc))


class TestScatterMatchesDense:
    """apply_batch against base + lams @ dense, the dense matrix built by
    the oracle from the selected pixels and the base image alone."""

    @pytest.mark.parametrize(
        "shape, bright, fraction, r",
        [((2, 2, 1), None, 1.0, 2), ((16, 16, 1), 120, 0.05, 6), ((64, 64, 3), 820, 0.10, 246)],
    )
    def test_darkening(self, shape, bright, fraction, r):
        img = bright_2x2() if bright is None else darkening_image(*shape, bright, seed=r)
        spec = build_darkening(img, fraction, rng_seed=21)
        assert spec.dim == r
        dense = dense_darkening_matrix(img, selected_pixels(spec))
        rng = np.random.default_rng(22)
        # box draws, plus arbitrary signs and exact zeros outside the box
        lams = np.vstack([
            sample_lambdas(spec, 16, rng),
            rng.standard_normal((4, r)),
            np.zeros((1, r)),
        ])
        np.testing.assert_array_equal(apply_batch(spec, lams), img.data + lams @ dense)

    @pytest.mark.parametrize(
        "base, darkening_seed, lo",
        [
            (synthetic_ssn_4x4()[1], 3, np.zeros(2)),
            (synthetic_ssn_4x4()[1], 9, np.zeros(2)),
            (bright_2x2(), 1, np.array([0.3, 0.4])),
        ],
    )
    def test_frozen_box(self, base, darkening_seed, lo):
        # the zero-width boxes of the pipeline and sampling tests
        spec = build_darkening(base, 1.0, min_darkening=0.05, rng_seed=darkening_seed)
        frozen = PerturbationSpec(
            base_image=base,
            noise_index=spec.noise_index,
            noise_value=spec.noise_value,
            lambda_lower=lo,
            lambda_upper=lo,
        )
        lams = sample_lambdas(frozen, 5, np.random.default_rng(23))
        dense = dense_darkening_matrix(base, selected_pixels(spec))
        np.testing.assert_array_equal(apply_batch(frozen, lams), base.data + lams @ dense)

    def test_noise_matrix_is_the_dense_form(self):
        img = darkening_image(16, 16, 1, 120, seed=6)
        spec = build_darkening(img, 0.05, rng_seed=24)
        np.testing.assert_array_equal(
            spec.noise_matrix, dense_darkening_matrix(img, selected_pixels(spec))
        )


class TestSelectionValidation:
    def spec_with(self, index, value):
        return PerturbationSpec(
            base_image=bright_2x2(),
            noise_index=index,
            noise_value=value,
            lambda_lower=np.zeros(2),
            lambda_upper=np.ones(2),
        )

    def test_accepts_valid_selection(self):
        spec = self.spec_with(np.array([3, 0]), np.array([-0.2, -0.9]))
        assert spec.dim == 2

    @pytest.mark.parametrize(
        "index, value, match",
        [
            (np.array([0]), np.array([-0.9, -0.8]), "shape"),
            (np.array([0, 2]), np.array([-0.9]), "shape"),
            (np.array([0, 2, 3]), np.array([-0.9, -0.8, -0.2]), "shape"),
            (np.array([-1, 2]), np.array([-0.9, -0.8]), "outside"),
            (np.array([0, 4]), np.array([-0.9, -0.8]), "outside"),
            (np.array([2, 2]), np.array([-0.9, -0.8]), "distinct"),
            (np.array([0, 2]), np.array([-0.9, np.nan]), "finite"),
            (np.array([0, 2]), np.array([np.inf, -0.8]), "finite"),
            (np.array([0.0, 2.0]), np.array([-0.9, -0.8]), "integer"),
            (np.array([0, 2]), None, "neither"),
            (None, np.array([-0.9, -0.8]), "neither"),
            # an implicit basis is refused when built, not at its first draw
            (None, None, "^an implicit basis needs r = n0, got r = 2, n0 = 4$"),
        ],
    )
    def test_rejects_bad_selection(self, index, value, match):
        with pytest.raises(ValueError, match=match):
            self.spec_with(index, value)


class TestBoundsValidation:
    @pytest.mark.parametrize("norm", ["l2", "linf"])
    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_ball_radius_must_be_finite(self, norm, radius):
        with pytest.raises(ValueError, match=f"^radius must be finite, got {radius!r}$"):
            build_global_ball(bright_2x2(), norm, radius)

    def test_darkening_bound_must_be_finite(self):
        with pytest.raises(ValueError, match="^min_darkening must be finite, got nan$"):
            build_darkening(bright_2x2(), 1.0, min_darkening=np.nan, rng_seed=1)

    @pytest.mark.parametrize("key", ["lambda_lower", "lambda_upper"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spec_bounds_must_be_finite(self, key, bad):
        bounds = dict(lambda_lower=np.zeros(2), lambda_upper=np.ones(2))
        bounds[key][1] = bad
        with pytest.raises(ValueError, match=f"^{key} must be finite$"):
            PerturbationSpec(
                base_image=bright_2x2(), noise_index=np.array([0, 2]),
                noise_value=np.array([-0.9, -0.8]), **bounds,
            )

    @pytest.mark.parametrize(
        "index, value, lower, upper",
        [
            # an implicit basis over a 2x2 image, r = n0 = 4 rows of one column
            (None, None, np.zeros((4, 1)), np.ones((4, 1))),
            (np.array([0, 2]), np.array([-0.9, -0.8]), np.zeros((2, 3)), np.ones((2, 3))),
            (np.array([0, 2]), np.array([-0.9, -0.8]), np.zeros(2), np.ones(3)),
            (np.array([0, 2]), np.array([-0.9, -0.8]), np.float64(0.0), np.float64(1.0)),
        ],
        ids=["column", "matrix", "lengths-differ", "scalar"],
    )
    def test_spec_bounds_must_be_vectors(self, index, value, lower, upper):
        # bounds that are not of shape (r,) are refused when built, not by
        # numpy's broadcast error at the first draw
        with pytest.raises(ValueError, match=r"^lambda bounds must both have shape \(r,\), got "):
            PerturbationSpec(
                base_image=bright_2x2(), noise_index=index, noise_value=value,
                lambda_lower=lower, lambda_upper=upper,
            )

    def test_spec_bounds_must_be_ordered(self):
        with pytest.raises(ValueError, match="^lambda_lower must be <= lambda_upper componentwise$"):
            PerturbationSpec(
                base_image=bright_2x2(), noise_index=np.array([0, 2]),
                noise_value=np.array([-0.9, -0.8]),
                lambda_lower=np.array([0.0, 0.5]), lambda_upper=np.array([1.0, 0.4]),
            )

    @pytest.mark.parametrize("radius", [-1.0, 0.0], ids=["negative-radius", "zero-radius"])
    def test_spec_law_must_be_sampleable(self, radius):
        # a directly built spec is checked before its first stage samples it
        with pytest.raises(ValueError, match=f"^radius must be positive, got {radius!r}$"):
            PerturbationSpec(
                base_image=bright_2x2(), noise_index=None, noise_value=None,
                lambda_lower=np.full(4, -0.1), lambda_upper=np.full(4, 0.1), radius=radius,
            )

    def test_radius_takes_no_selection(self):
        # a radius makes the global l2 ball on the implicit basis, so a
        # selection with one is refused when built, not drawn as a ball
        spec = build_darkening(bright_2x2(), 1.0, min_darkening=0.05, rng_seed=1)
        with pytest.raises(
            ValueError, match="^a radius makes the global l2 ball, which takes no noise_index$"
        ):
            dataclasses.replace(spec, radius=0.1)


class TestManifestValidation:
    def manifest(self):
        arr = np.full((3, 3), 0.1)
        arr[0, 2] = arr[1, 1] = arr[2, 0] = 0.9
        img = ImageTensor.from_array(arr)
        spec = build_darkening(img, 1.0, min_darkening=0.05, rng_seed=25)
        assert spec.dim == 3
        return spec_manifest(spec), img

    def test_valid_manifest_loads(self):
        man, img = self.manifest()
        assert selected_pixels(spec_from_manifest(man, img)) == [(0, 2), (1, 1), (2, 0)]
        # older manifests also carry an image path, which is not read
        old = spec_from_manifest(dict(man, base_image="base.pgm"), img)
        assert spec_manifest(old) == man

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (3, 3, 3)])
    def test_rejects_other_image_shape(self, shape):
        # the darkening would also build on these bright images
        man, _ = self.manifest()
        other = ImageTensor.from_array(np.full(shape, 0.9))
        with pytest.raises(ValueError, match=r"^image_shape \[3, 3, 1\] disagrees"):
            spec_from_manifest(man, other)
        ball = spec_manifest(build_global_ball(bright_2x2(), "l2", 0.1))
        with pytest.raises(ValueError, match="^image_shape"):
            spec_from_manifest(ball, other)

    @pytest.mark.parametrize("shape", [5, None])
    def test_rejects_malformed_image_shape(self, shape):
        man, img = self.manifest()
        with pytest.raises(ValueError, match=f"^image_shape {shape} disagrees"):
            spec_from_manifest(dict(man, image_shape=shape), img)

    @pytest.mark.parametrize("seed", [-1, "seven", 2.5, True])
    def test_rejects_bad_selection_seed(self, seed):
        man, img = self.manifest()
        with pytest.raises(ValueError, match=r"^rng_seed must be a non-negative integer"):
            spec_from_manifest(dict(man, rng_seed=seed), img)

    def test_numpy_selection_seed_round_trips(self):
        man, img = self.manifest()
        spec = spec_from_manifest(dict(man, rng_seed=np.int64(25)), img)
        assert type(spec.recipe["rng_seed"]) is int
        assert json.loads(json.dumps(spec_manifest(spec))) == man

    @pytest.mark.parametrize(
        "adversary, key, bad, match",
        [
            ("darkening", "min_darkening", -1.0, "must be positive, got -1.0"),
            ("darkening", "min_darkening", 0.0, "must be positive, got 0.0"),
            ("darkening", "min_darkening", "x", "must be a real number, got 'x'"),
            ("darkening", "min_darkening", None, "must be a real number, got None"),
            ("darkening", "intensity_threshold", np.nan, "must be finite, got nan"),
            ("darkening", "intensity_threshold", True, "must be a real number, got True"),
            ("darkening", "pixel_fraction", "1.0", "must be a real number, got '1.0'"),
            ("darkening", "pixel_fraction", -0.5, "must be positive, got -0.5"),
            ("ball", "radius", None, "must be a real number, got None"),
            ("ball", "radius", "0.1", "must be a real number, got '0.1'"),
            ("ball", "radius", True, "must be a real number, got True"),
            ("ball", "norm", "l3", "must be 'l2' or 'linf', got 'l3'"),
            ("ball", "norm", None, "must be 'l2' or 'linf', got None"),
        ],
    )
    def test_rejects_bad_adversary_field(self, adversary, key, bad, match):
        man, img = self.manifest()
        if adversary == "ball":
            man = spec_manifest(build_global_ball(img, "l2", 0.1))
        with pytest.raises(ValueError, match=f"^{key} {match}$"):
            spec_from_manifest(dict(man, **{key: bad}), img)

    @pytest.mark.parametrize(
        "adversary, key",
        [
            ("ball", "norm"),
            ("ball", "radius"),
            ("darkening", "pixel_fraction"),
            ("darkening", "intensity_threshold"),
            ("darkening", "min_darkening"),
            ("darkening", "rng_seed"),
            ("darkening", "image_shape"),
        ],
    )
    def test_rejects_missing_field(self, adversary, key):
        # a missing builder argument is named, not a KeyError
        man, img = self.manifest()
        if adversary == "ball":
            man = spec_manifest(build_global_ball(img, "l2", 0.1))
        del man[key]
        with pytest.raises(ValueError, match=f"^manifest has no {key}$"):
            spec_from_manifest(man, img)

    def test_edited_min_darkening_rebuilds_its_box(self):
        # the selected intensities are 0.9: an edit moves the box's lower
        # bound, or the darkening check rejects it
        man, img = self.manifest()
        spec = spec_from_manifest(dict(man, min_darkening=0.5), img)
        np.testing.assert_array_equal(spec.lambda_lower, np.full(3, 0.5 / 0.9))
        assert spec.recipe["min_darkening"] == 0.5
        with pytest.raises(ValueError, match="^min_darkening 0.95 exceeds intensity 0.9"):
            spec_from_manifest(dict(man, min_darkening=0.95), img)

    @pytest.mark.parametrize("adversary", ["l3-ball", "missing", "direct"])
    def test_rejects_unknown_adversary(self, adversary):
        man, img = self.manifest()
        if adversary == "missing":
            del man["adversary"]
            expected = None
        elif adversary == "direct":
            spec = spec_from_manifest(man, img)
            man = spec_manifest(PerturbationSpec(
                base_image=img, noise_index=spec.noise_index, noise_value=spec.noise_value,
                lambda_lower=spec.lambda_lower, lambda_upper=spec.lambda_upper,
            ))
            assert man == {"image_shape": [3, 3, 1], "adversary": None}
            expected = None
        else:
            man["adversary"] = expected = adversary
        with pytest.raises(
            ValueError, match=f"^adversary must be 'darkening' or 'ball', got {expected!r}$"
        ):
            spec_from_manifest(man, img)

    @pytest.mark.parametrize("builder", ["darkening", "l2-ball", "linf-ball"])
    def test_builder_manifest_records_its_call_and_rebuilds(self, builder):
        # a builder's spec records its recipe unchanged, and the recipe
        # makes the same input set again
        img = bright_2x2()
        spec = {
            "darkening": lambda: build_darkening(img, 1.0, min_darkening=0.05, rng_seed=1),
            "l2-ball": lambda: build_global_ball(img, "l2", 0.5),
            "linf-ball": lambda: build_global_ball(img, "linf", 0.1),
        }[builder]()
        man = spec_manifest(spec)
        assert man == {"image_shape": [2, 2, 1], **spec.recipe}
        rebuilt = spec_from_manifest(man, img)
        for field in ("noise_index", "noise_value", "lambda_lower", "lambda_upper", "radius"):
            np.testing.assert_array_equal(getattr(rebuilt, field), getattr(spec, field))

    @pytest.mark.parametrize("edit", ["l2-radius", "linf-to-l2", "darkening-bound"])
    def test_replaced_spec_records_no_adversary(self, edit):
        # dataclasses.replace keeps the builder's recipe, which no longer
        # makes the spec: recording it would rerun another input set
        img = bright_2x2()
        darkening = build_darkening(img, 1.0, min_darkening=0.05, rng_seed=1)
        spec = {
            "l2-radius": lambda: dataclasses.replace(build_global_ball(img, "l2", 0.5), radius=0.05),
            "linf-to-l2": lambda: dataclasses.replace(build_global_ball(img, "linf", 0.1), radius=0.1),
            "darkening-bound": lambda: dataclasses.replace(darkening, lambda_upper=np.full(2, 0.5)),
        }[edit]()
        assert spec_manifest(spec) == {"image_shape": [2, 2, 1], "adversary": None}
