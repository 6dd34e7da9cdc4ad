import re
from types import SimpleNamespace

import numpy as np
import pytest

from conformal_reach.model import (
    _ROW_BLOCK,
    _ROW_BYTES,
    BLOCK_BYTES,
    INFER_CHUNK,
    ImageTensor,
    LogitTensor,
    MlpNetwork,
    block_rows,
    infer,
    predict_mask,
    random_mlp,
    row_block,
    row_slices,
)


def identity_net(n):
    return MlpNetwork((np.eye(n),), (np.zeros(n),))


def layers(*shapes):
    """Zero weights and biases of the given (weight shape, bias length)s."""
    return (
        tuple(np.zeros(w) for w, _ in shapes),
        tuple(np.zeros(b) for _, b in shapes),
    )


@pytest.mark.parametrize(
    "weights, biases, match",
    [
        ((np.zeros((3, 2)),), (), "^weight/bias layer counts differ$"),
        ((), (), "^network needs at least one layer$"),
        (*layers(((3, 2), 3), ((4, 3), 5)), "^layer 1: weight/bias shapes disagree$"),
        (*layers(((3, 2), 3), ((4, 3, 1), 4)), "^layer 1: weight/bias shapes disagree$"),
        (*layers(((3, 2), (3, 1))), "^layer 0: weight/bias shapes disagree$"),
        (*layers(((3, 2), 3), ((4, 3), 4), ((2, 5), 2)), "^layer 2: input dim mismatch$"),
    ],
    ids=["layer-count", "no-layers", "bias-length", "weight-ndim", "bias-ndim", "input-dim"],
)
def test_network_shape_checks(weights, biases, match):
    with pytest.raises(ValueError, match=match) as info:
        MlpNetwork(weights, biases)
    assert info.type is ValueError


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

    @pytest.mark.parametrize("shape", [(2, 3, 1), (2, 3, 3), ()], ids=["column", "stack", "scalar"])
    def test_rejects_an_input_of_another_shape(self, shape):
        match = re.escape(f"x must have shape (3,) or (batch, 3) at input dim 3, got {shape}")
        with pytest.raises(ValueError, match=match):
            infer(identity_net(3), np.zeros(shape))

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


    @pytest.mark.parametrize("other", [2, 1024])
    def test_lone_last_row_takes_the_matrix_product(self, other):
        # 1025 rows leave one after a 1024-row block. Run alone, that row
        # took numpy's matrix-vector call and rounded otherwise (by about
        # 1e-15 here) than inside a block of 2 or 1024 rows.
        rng = np.random.default_rng(4)
        net = random_mlp([512, 1024], rng)
        xs = rng.uniform(-1, 1, size=(INFER_CHUNK + 1, 512))
        assert block_rows(net) == INFER_CHUNK
        np.testing.assert_array_equal(infer(net, xs)[-1], infer(net, xs[-other:])[-1])


def dims(n0, n):
    """Stand-in for a model of input width n0 and output width n."""
    return SimpleNamespace(input_dim=n0, output_dim=n)


class TestBlockSizes:
    @pytest.mark.parametrize(
        "n0, n", [(1, 1), (256, 768), (4000, 5000), (12288, 12288), (10**6, 4 * 10**7)]
    )
    def test_block_rows_is_capped_and_within_budget(self, n0, n):
        rows, row_bytes = block_rows(dims(n0, n)), 8 * (n0 + n)
        if INFER_CHUNK * row_bytes <= BLOCK_BYTES:
            assert rows == INFER_CHUNK
        elif 2 * row_bytes > BLOCK_BYTES:
            assert rows == 2
        else:
            assert rows * row_bytes <= BLOCK_BYTES < (rows + 1) * row_bytes

    @pytest.mark.parametrize("width", [1, 768, 5000, 12288, 10**6])
    def test_row_block_is_capped_and_within_budget(self, width):
        rows, row_bytes = row_block(width), 8 * width
        if _ROW_BLOCK * row_bytes <= _ROW_BYTES:
            assert rows == _ROW_BLOCK
        elif 2 * row_bytes > _ROW_BYTES:
            assert rows == 2
        else:
            assert rows * row_bytes <= _ROW_BYTES < (rows + 1) * row_bytes

    @pytest.mark.parametrize(
        "n0, n, stream, row",
        [(12288, 12288, 341, 21), (256, 768, 1024, 64), (3072, 4096, 1024, 64)],
        ids=["naive-dark64", "surrogate-dark16-n10", "surrogate-ball32-n5"],
    )
    def test_benchmark_shapes(self, n0, n, stream, row):
        # the benchmark's (n0, n): only the 64x64x3 model's blocks are cut
        # by the budgets, so the smaller workloads keep their partitions
        assert block_rows(dims(n0, n)) == stream
        assert row_block(n) == row

    @pytest.mark.parametrize(
        "count, rows, sizes",
        [(0, 4, []), (1, 4, [1]), (4, 4, [4]), (5, 4, [5]), (6, 4, [4, 2]), (9, 4, [4, 5]),
         (12, 4, [4, 4, 4])],
    )
    def test_row_slices_join_a_lone_last_row(self, count, rows, sizes):
        slices = list(row_slices(count, rows))
        assert [s.stop - s.start for s in slices] == sizes
        assert [s.start for s in slices] == list(np.cumsum([0, *sizes])[:-1])


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


class TestImageIO:
    def test_flatten_round_trip(self):
        rng = np.random.default_rng(9)
        arr = rng.uniform(size=(6, 7, 3))
        img = ImageTensor.from_array(arr)
        np.testing.assert_array_equal(img.as_array(), arr)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_integer_data_refused(self, dtype):
        # a darkening of uint8 [200, 10, 220, 5] would wrap -200 around to 56
        data = np.array([200, 10, 220, 5], dtype=dtype)
        with pytest.raises(ValueError, match=f"float64, got {np.dtype(dtype)}"):
            ImageTensor(2, 2, 1, data)

    def test_nonfinite_data_refused(self):
        with pytest.raises(ValueError, match="finite"):
            ImageTensor(2, 2, 1, np.array([0.5, np.nan, 0.5, 0.5]))

    @pytest.mark.parametrize("cls, names", [(ImageTensor, "h*w*nc"), (LogitTensor, "h*w*L")])
    def test_data_length_refused(self, cls, names):
        with pytest.raises(ValueError, match=re.escape(f"data length (3,) != {names} = 4")):
            cls(2, 2, 1, np.full(3, 0.5))

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 1, 1)])
    def test_from_array_refuses_other_ranks(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            ImageTensor.from_array(np.full(shape, 0.5))
