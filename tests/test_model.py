import numpy as np
import pytest

from conformal_reach.model import (
    ImageFormatError,
    ImageTensor,
    LogitTensor,
    MlpNetwork,
    ModelFormatError,
    infer,
    load_model,
    predict_mask,
    random_mlp,
    read_f64,
    read_image,
    save_model,
    write_f64,
    write_image,
)


def identity_net(n):
    return MlpNetwork((np.eye(n),), (np.zeros(n),))


class TestInfer:
    def test_identity_single_layer(self):
        # output layer has no ReLU, so negatives pass through
        out = infer(identity_net(2), np.array([0.3, -0.2]))
        np.testing.assert_array_equal(out, [0.3, -0.2])

    def test_zero_weights_return_bias(self):
        net = MlpNetwork(
            (np.zeros((3, 2)),), (np.array([1.0, -2.0, 0.5]),)
        )
        for x in ([0.0, 0.0], [5.0, -7.0]):
            np.testing.assert_array_equal(infer(net, np.array(x)), [1.0, -2.0, 0.5])

    def test_hand_built_two_layer(self):
        # [2,2,1]: ReLU([x1-0.5, x2]) then sum; input [1,-1] -> 0.5
        net = MlpNetwork(
            (np.eye(2), np.array([[1.0, 1.0]])),
            (np.array([-0.5, 0.0]), np.array([0.0])),
        )
        out = infer(net, np.array([1.0, -1.0]))
        # independent scalar trace: h = max([1-0.5, -1], 0) = [0.5, 0]
        assert out[0] == pytest.approx(0.5, abs=0)

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(0)
        net = random_mlp([6, 17, 9, 4], rng)
        xs = rng.uniform(-1, 1, size=(37, 6))
        batch = infer(net, xs)
        singles = np.stack([infer(net, x) for x in xs])
        # GEMM kernels are not bitwise partition-invariant; agreement at
        # 1e-12 relative is the contract (see notes), bitwise for re-runs
        np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(batch, infer(net, xs))

    def test_positive_homogeneity_of_hidden_layer(self):
        rng = np.random.default_rng(1)
        net = random_mlp([5, 8, 3], rng)
        for s in (0.5, 2.0, 7.25):
            scaled = MlpNetwork(
                (net.weights[0] * s, net.weights[1]),
                (net.biases[0] * s, net.biases[1]),
            )
            x = rng.uniform(-1, 1, size=5)
            h = np.maximum(net.weights[0] @ x + net.biases[0], 0.0)
            h_scaled = np.maximum(scaled.weights[0] @ x + scaled.biases[0], 0.0)
            np.testing.assert_allclose(h_scaled, s * h, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            infer(identity_net(3), np.zeros(4))

    def test_out_gives_the_same_bits(self):
        rng = np.random.default_rng(2)
        net = random_mlp([6, 17, 9, 4], rng)
        xs = rng.uniform(-1, 1, size=(2500, 6))  # two full chunks and a partial one
        out = np.full((2500, 4), np.nan)
        assert infer(net, xs, out=out) is out
        np.testing.assert_array_equal(out, infer(net, xs))
        one = np.empty((1, 4))
        np.testing.assert_array_equal(infer(net, xs[0], out=one), infer(net, xs[0]))

    @pytest.mark.parametrize(
        "out",
        [np.empty((5, 3)), np.empty((4, 5)), np.empty(5 * 4), np.empty((5, 4), np.float32)],
        ids=["rows", "columns", "flat", "float32"],
    )
    def test_out_of_wrong_shape_or_dtype(self, out):
        net = random_mlp([6, 4], np.random.default_rng(3))
        with pytest.raises(ValueError, match="out must be a float64 array of shape"):
            infer(net, np.zeros((5, 6)), out=out)


def logit_tensor(arr):
    """LogitTensor of an (h, w, L) array."""
    arr = np.asarray(arr, dtype=np.float64)
    return LogitTensor(*arr.shape, arr.reshape(-1))


class TestPredictMask:
    def test_single_pixel(self):
        logits = logit_tensor(np.array([[[0.1, 0.9, 0.3]]]))
        np.testing.assert_array_equal(predict_mask(logits), [[2]])

    def test_tie_breaks_to_lowest_class(self):
        logits = logit_tensor(np.full((2, 2, 4), 1.25))
        np.testing.assert_array_equal(predict_mask(logits), np.ones((2, 2)))

    def test_two_pixels(self):
        logits = logit_tensor(np.array([[[3.0, -1.0]], [[-2.0, 5.0]]]))
        np.testing.assert_array_equal(predict_mask(logits), [[1], [2]])

    def test_argmax_invariant_to_per_pixel_shift(self):
        rng = np.random.default_rng(2)
        arr = rng.normal(size=(4, 5, 6))
        base = predict_mask(logit_tensor(arr))
        shifted = arr + rng.normal(size=(4, 5, 1))  # one constant per pixel
        np.testing.assert_array_equal(
            predict_mask(logit_tensor(shifted)), base
        )


class TestModelIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        net = random_mlp([7, 11, 5, 2], rng)
        path = tmp_path / "net.mlp"
        save_model(net, path)
        loaded = load_model(path)
        assert loaded.layer_dims == net.layer_dims
        for w1, w2 in zip(net.weights, loaded.weights):
            np.testing.assert_array_equal(w1, w2)
        for b1, b2 in zip(net.biases, loaded.biases):
            np.testing.assert_array_equal(b1, b2)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(4)
        net = random_mlp([3, 4, 2], rng)
        path = tmp_path / "net.mlp"
        save_model(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ModelFormatError, match="truncated|trailing"):
            load_model(path)

    def test_header_layer_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(5)
        net = random_mlp([3, 4, 2], rng)
        path = tmp_path / "net.mlp"
        save_model(net, path)
        blob = path.read_bytes()
        # claim 3 weight layers while providing dims/payload for 2
        path.write_bytes(blob.replace(b"MLP v1 2 3 4 2", b"MLP v1 3 3 4 2", 1))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.mlp"
        path.write_bytes(b"")
        with pytest.raises(ModelFormatError, match="malformed header"):
            load_model(path)


class TestImageIO:
    def test_pgm_binary_round_trip(self, tmp_path):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4) / 255.0 * 20
        img = ImageTensor.from_array(arr)
        path = tmp_path / "img.pgm"
        write_image(img, path, binary=True)
        back = read_image(path)
        assert (back.height, back.width, back.channels) == (3, 4, 1)
        np.testing.assert_allclose(back.data, img.data, atol=0.5 / 255)

    def test_pgm_ascii_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        img = ImageTensor.from_array(rng.integers(0, 256, size=(5, 2)) / 255.0)
        path = tmp_path / "img_ascii.pgm"
        write_image(img, path, binary=False)
        np.testing.assert_array_equal(read_image(path).data, img.data)

    def test_ppm_three_channels(self, tmp_path):
        rng = np.random.default_rng(7)
        img = ImageTensor.from_array(rng.integers(0, 256, size=(4, 3, 3)) / 255.0)
        for binary in (True, False):
            path = tmp_path / f"img_{binary}.ppm"
            write_image(img, path, binary=binary)
            back = read_image(path)
            assert back.channels == 3
            np.testing.assert_array_equal(back.data, img.data)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# a comment\n2 1\n255\n0 255\n")
        img = read_image(path)
        np.testing.assert_array_equal(img.data, [0.0, 1.0])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P9\n1 1\n255\n0\n")
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_f64_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        arr = rng.normal(size=(3, 5))
        path = tmp_path / "t.f64"
        write_f64(arr, path)
        np.testing.assert_array_equal(read_f64(path, (3, 5)), arr)
        with pytest.raises(ImageFormatError):
            read_f64(path, (4, 5))

    def test_flatten_round_trip(self):
        rng = np.random.default_rng(9)
        arr = rng.uniform(size=(6, 7, 3))
        img = ImageTensor.from_array(arr)
        np.testing.assert_array_equal(img.as_array(), arr)
