import numpy as np
import pytest

from conformal_reach.model import ImageTensor
from conformal_reach.perturb import (
    UNIFORM_BOX,
    PerturbationSpec,
    apply,
    apply_batch,
    build_darkening,
    build_global_ball,
    sample,
    sample_lambdas,
    spec_from_manifest,
    spec_manifest,
)

from oracles import dense_darkening_matrix, synthetic_ssn_4x4

THRESH = 150.0 / 255.0


def bright_2x2():
    return ImageTensor.from_array(np.array([[0.9, 0.1], [0.8, 0.2]]))


class TestApply:
    def test_zero_lambda_is_base(self):
        img = bright_2x2()
        spec = build_global_ball(img, "linf", 0.25)
        out = apply(spec, np.zeros(spec.dim))
        np.testing.assert_array_equal(out.data, img.data)

    def test_full_darkening_zeroes_channel(self):
        img = bright_2x2()
        spec = build_darkening(img, 1e-9, min_darkening=0.01, rng_seed=1)
        assert spec.dim == 1  # fraction small enough for one pixel, nc=1
        (i, j) = spec.selected_pixels[0]
        out = apply(spec, np.ones(1)).as_array()
        assert out[i, j, 0] == 0.0

    def test_two_pixel_superposition(self):
        img = bright_2x2()
        spec = build_darkening(img, 1.0, min_darkening=0.05, rng_seed=2)
        lam = np.array([0.5, 0.25])
        out = apply(spec, lam).as_array()
        base = img.as_array()
        for k, (i, j) in enumerate(spec.selected_pixels):
            assert out[i, j, 0] == pytest.approx(base[i, j, 0] * (1 - lam[k]))

    def test_affine_in_lambda(self):
        img = bright_2x2()
        spec = build_darkening(img, 1.0, min_darkening=0.05, rng_seed=3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            l1 = rng.uniform(spec.lambda_lower, spec.lambda_upper)
            l2 = rng.uniform(spec.lambda_lower, spec.lambda_upper)
            a = rng.random()
            mix = apply(spec, a * l1 + (1 - a) * l2).data
            combo = a * apply(spec, l1).data + (1 - a) * apply(spec, l2).data
            np.testing.assert_allclose(mix, combo, rtol=1e-12, atol=1e-15)

    def test_lambda_outside_box_rejected(self):
        spec = build_darkening(bright_2x2(), 1.0, min_darkening=0.05, rng_seed=4)
        with pytest.raises(ValueError, match="outside"):
            apply(spec, spec.lambda_upper + 0.5)


class TestBuildDarkening:
    def test_eligible_set_by_hand(self):
        # [[0.9, 0.1], [0.8, 0.2]]: only 0.9 and 0.8 beat 150/255
        spec = build_darkening(bright_2x2(), 1.0, THRESH, 0.05, rng_seed=5)
        assert set(spec.selected_pixels) == {(0, 0), (1, 0)}
        assert spec.dim == 2
        base = bright_2x2().as_array()
        for k, (i, j) in enumerate(spec.selected_pixels):
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

    def test_untouched_pixels_stay_base(self):
        rng = np.random.default_rng(9)
        arr = rng.uniform(0.0, 1.0, size=(5, 4, 3))
        arr[1, 2] = arr[3, 0] = 0.95
        img = ImageTensor.from_array(arr)
        spec = build_darkening(img, 1.0, rng_seed=10)
        touched = set()
        for i, j in spec.selected_pixels:
            for ch in range(3):
                touched.add((i * 4 + j) * 3 + ch)
        lam = spec.lambda_upper.copy()
        out = apply(spec, lam)
        untouched = np.setdiff1d(np.arange(img.size), sorted(touched))
        np.testing.assert_array_equal(out.data[untouched], img.data[untouched])


class TestGlobalBall:
    def test_linf_membership(self):
        img = bright_2x2()
        spec = build_global_ball(img, "linf", 0.03)
        for lam, _ in sample(spec, 50, rng_seed=11):
            assert np.max(np.abs(lam)) <= 0.03
            assert spec.contains(lam)

    def test_l2_membership(self):
        img = bright_2x2()
        spec = build_global_ball(img, "l2", 0.1)
        lams = sample_lambdas(spec, 200, 12)
        assert np.all(np.linalg.norm(lams, axis=1) <= 0.1)

    def test_radius_to_zero_limit(self):
        img = bright_2x2()
        spec = build_global_ball(img, "l2", 1e-14)
        for _, pert in sample(spec, 5, rng_seed=13):
            np.testing.assert_allclose(pert.data, img.data, atol=1e-13)

    def test_implicit_basis_not_materialized(self):
        spec = build_global_ball(bright_2x2(), "linf", 0.1)
        assert spec.noise_matrix is None
        assert spec.dim == 4


class TestSample:
    def test_deterministic_from_seed(self):
        spec = build_darkening(bright_2x2(), 1.0, min_darkening=0.05, rng_seed=1)
        a = sample(spec, 3, rng_seed=42)
        b = sample(spec, 3, rng_seed=42)
        for (la, ia), (lb, ib) in zip(a, b):
            np.testing.assert_array_equal(la, lb)
            np.testing.assert_array_equal(ia.data, ib.data)

    def test_box_sampling_means(self):
        spec = build_darkening(bright_2x2(), 1.0, min_darkening=0.05, rng_seed=1)
        lams = sample_lambdas(spec, 10_000, 14)
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
            distribution=UNIFORM_BOX,
        )
        lams = sample_lambdas(frozen, 10, 15)
        np.testing.assert_array_equal(lams, np.tile(lo, (10, 1)))

    def test_every_sample_in_membership_set(self):
        spec = build_darkening(bright_2x2(), 1.0, min_darkening=0.05, rng_seed=1)
        lams = sample_lambdas(spec, 500, 16)
        assert all(spec.contains(l) for l in lams)


def test_manifest_round_trip():
    img = bright_2x2()
    spec = build_darkening(img, 1.0, min_darkening=0.05, rng_seed=17)
    man = spec_manifest(spec, "base.pgm")
    rebuilt = spec_from_manifest(man, img)
    np.testing.assert_array_equal(rebuilt.noise_matrix, spec.noise_matrix)
    np.testing.assert_array_equal(rebuilt.lambda_lower, spec.lambda_lower)
    np.testing.assert_array_equal(rebuilt.lambda_upper, spec.lambda_upper)
    assert rebuilt.selected_pixels == spec.selected_pixels

    ball = build_global_ball(img, "l2", 0.25)
    man2 = spec_manifest(ball, "base.pgm")
    rebuilt2 = spec_from_manifest(man2, img)
    assert rebuilt2.distribution == ball.distribution
    assert rebuilt2.radius == ball.radius
    # identical sampling after reconstruction
    np.testing.assert_array_equal(
        sample_lambdas(rebuilt2, 7, 18), sample_lambdas(ball, 7, 18)
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
    the oracle from the selected pixels alone."""

    @pytest.mark.parametrize(
        "shape, bright, fraction, r",
        [((2, 2, 1), None, 1.0, 2), ((16, 16, 1), 120, 0.05, 6), ((64, 64, 3), 820, 0.10, 246)],
    )
    def test_darkening(self, shape, bright, fraction, r):
        img = bright_2x2() if bright is None else darkening_image(*shape, bright, seed=r)
        spec = build_darkening(img, fraction, rng_seed=21)
        assert spec.dim == r
        dense = dense_darkening_matrix(img, spec.selected_pixels)
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
            distribution=UNIFORM_BOX,
        )
        lams = sample_lambdas(frozen, 5, 23)
        dense = dense_darkening_matrix(base, spec.selected_pixels)
        np.testing.assert_array_equal(apply_batch(frozen, lams), base.data + lams @ dense)

    def test_noise_matrix_is_the_dense_form(self):
        img = darkening_image(16, 16, 1, 120, seed=6)
        spec = build_darkening(img, 0.05, rng_seed=24)
        np.testing.assert_array_equal(
            spec.noise_matrix, dense_darkening_matrix(img, spec.selected_pixels)
        )


class TestSelectionValidation:
    def spec_with(self, index, value):
        return PerturbationSpec(
            base_image=bright_2x2(),
            noise_index=index,
            noise_value=value,
            lambda_lower=np.zeros(2),
            lambda_upper=np.ones(2),
            distribution=UNIFORM_BOX,
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
        ],
    )
    def test_rejects_bad_selection(self, index, value, match):
        with pytest.raises(ValueError, match=match):
            self.spec_with(index, value)


class TestManifestValidation:
    def manifest(self):
        arr = np.full((3, 3), 0.1)
        arr[0, 2] = arr[1, 1] = arr[2, 0] = 0.9
        img = ImageTensor.from_array(arr)
        spec = build_darkening(img, 1.0, min_darkening=0.05, rng_seed=25)
        assert spec.dim == 3
        return spec_manifest(spec, "base.pgm"), img

    def test_valid_manifest_loads(self):
        man, img = self.manifest()
        assert spec_from_manifest(man, img).selected_pixels == ((0, 2), (1, 1), (2, 0))

    @pytest.mark.parametrize(
        "pixels",
        [
            [[1, -1], [1, 1], [2, 0]],  # flat index 2 would alias pixel (0, 2)
            [[0, 2], [3, 0], [2, 0]],
            [[0, 2], [1, 3], [2, 0]],
            [[-1, 2], [1, 1], [2, 0]],
        ],
    )
    def test_rejects_pixel_outside_image(self, pixels):
        man, img = self.manifest()
        with pytest.raises(ValueError, match="selected_pixels: .* outside the 3x3 image"):
            spec_from_manifest(dict(man, selected_pixels=pixels), img)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (3, 3, 3)])
    def test_rejects_other_image_shape(self, shape):
        # pixels of the 3x3 manifest also fit these images
        man, _ = self.manifest()
        other = ImageTensor.from_array(np.full(shape, 0.9))
        with pytest.raises(ValueError, match=r"^image_shape \[3, 3, 1\] disagrees"):
            spec_from_manifest(man, other)
        ball = spec_manifest(build_global_ball(bright_2x2(), "l2", 0.1))
        with pytest.raises(ValueError, match="^image_shape"):
            spec_from_manifest(ball, other)

    def test_rejects_duplicate_pixel(self):
        man, img = self.manifest()
        with pytest.raises(ValueError, match=r"selected_pixels: pixel \(1, 1\) .* more than once"):
            spec_from_manifest(dict(man, selected_pixels=[[0, 2], [1, 1], [1, 1]]), img)

    @pytest.mark.parametrize("key", ["lambda_lower", "lambda_upper"])
    @pytest.mark.parametrize("length", [2, 4])
    def test_rejects_bound_of_wrong_length(self, key, length):
        man, img = self.manifest()
        bad = dict(man, **{key: (man[key] * 2)[:length]})
        with pytest.raises(ValueError, match=f"^{key} .* 3 pixels x 1 channels"):
            spec_from_manifest(bad, img)
