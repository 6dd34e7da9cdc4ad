"""Deterministic inference for flattened-input ReLU networks, plus the
image and logit tensor containers the pipelines pass around.

The network stands in for the black-box map from a flattened image to
flattened logits; synthetic segmentation models are MLPs whose output is
reshaped to (h, w, L). Only dense layers exist here on purpose: the
verification machinery never looks inside the network, so one architecture
exercises everything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MlpNetwork",
    "ImageTensor",
    "LogitTensor",
    "infer",
    "predict_mask",
    "random_mlp",
]

# Stream blocks: images and their outputs are formed ``block_rows(model)``
# rows at a time, at most INFER_CHUNK rows and at most BLOCK_BYTES for one
# (rows, n0 + n) float64 block, so one image block and one output buffer
# together stay near BLOCK_BYTES however wide a row is. The rows depend on
# the model alone, so the same GEMM calls run however work is scheduled.
# A BLAS may round a small product's rows otherwise at another row count,
# so changing either constant can move a small model's bits by an ulp.
INFER_CHUNK = 1024
BLOCK_BYTES = 64 << 20

# Row blocks: scores, row norms, miss tests and lifted points are formed
# ``row_block(width)`` rows at a time, at most _ROW_BLOCK rows and at most
# _ROW_BYTES per (rows, width) float64 block, so beside a stream's draw and
# output buffer only about _ROW_BYTES more is held, and a block fits a
# 2 MiB L2 cache.
_ROW_BLOCK = 64
_ROW_BYTES = 2 << 20


def block_rows(model) -> int:
    """Rows per stream block of ``model``: INFER_CHUNK, or fewer when a
    (rows, input_dim + output_dim) float64 block would pass BLOCK_BYTES;
    never fewer than 2."""
    row_bytes = 8 * (model.input_dim + model.output_dim)
    return max(2, min(INFER_CHUNK, BLOCK_BYTES // row_bytes))


def row_block(width: int) -> int:
    """Rows per row block of ``width`` float64 columns: _ROW_BLOCK, or
    fewer when the block would pass _ROW_BYTES; never fewer than 2."""
    return max(2, min(_ROW_BLOCK, _ROW_BYTES // (8 * width)))


def row_slices(count: int, rows: int):
    """Slices of ``rows`` consecutive rows covering ``count`` rows in
    order. A lone leftover row joins the block before it, so a block has
    at most ``rows + 1`` rows and a single row only when ``count`` is 1:
    numpy runs a one-row product as a matrix-vector call, whose bits can
    differ from the matrix product's."""
    start = 0
    while start < count:
        stop = start + rows
        if stop >= count - 1:
            stop = count
        yield slice(start, stop)
        start = stop


@dataclass(frozen=True)
class MlpNetwork:
    """Feedforward ReLU network: dense layers, ReLU on hidden, identity out.

    weights[k] has shape (n_{k+1}, n_k) and biases[k] length n_{k+1}, for
    layer widths n_0 (input) to n_K (output). Arrays are float64 and never mutated after
    construction, so concurrent read-only inference is safe.
    """

    weights: tuple
    biases: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weight/bias layer counts differ")
        if not self.weights:
            raise ValueError("network needs at least one layer")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {k}: weight/bias shapes disagree")
            if k > 0 and w.shape[1] != self.weights[k - 1].shape[0]:
                raise ValueError(f"layer {k}: input dim mismatch")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]


@dataclass(frozen=True)
class ImageTensor:
    """h x w x nc image with values nominally in [0, 1], row-major."""

    height: int
    width: int
    channels: int
    data: np.ndarray  # flat, length h*w*nc

    def __post_init__(self):
        expected = self.height * self.width * self.channels
        if self.data.shape != (expected,):
            raise ValueError(
                f"data length {self.data.shape} != h*w*nc = {expected}"
            )
        # perturbations subtract and scale pixel values: an integer image
        # would wrap around or truncate them
        if self.data.dtype != np.float64:
            raise ValueError(f"image data must be float64, got {self.data.dtype}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("image data must be finite")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "ImageTensor":
        """Build from an (h, w) or (h, w, nc) array."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim not in (2, 3):
            raise ValueError(f"image must be an (h, w) or (h, w, nc) array, got shape {arr.shape}")
        if arr.ndim == 2:
            arr = arr[:, :, None]
        h, w, nc = arr.shape
        return cls(h, w, nc, arr.reshape(-1).copy())

    def as_array(self) -> np.ndarray:
        return self.data.reshape(self.height, self.width, self.channels)

    @property
    def size(self) -> int:
        return self.data.shape[0]


# perfbench/replay.py reads it from outside the package, until ROADMAP
# direction 16 removes that import
@dataclass(frozen=True)
class LogitTensor:
    """h x w x L logits, flattened so that entry ((i-1)*w + (j-1))*L + l
    holds class l at pixel (i, j), both 1-based in that formula."""

    height: int
    width: int
    classes: int
    data: np.ndarray

    def __post_init__(self):
        expected = self.height * self.width * self.classes
        if self.data.shape != (expected,):
            raise ValueError(
                f"data length {self.data.shape} != h*w*L = {expected}"
            )

    def as_array(self) -> np.ndarray:
        return self.data.reshape(self.height, self.width, self.classes)


def infer(model: MlpNetwork, x: np.ndarray, out=None) -> np.ndarray:
    """Forward pass: ReLU on hidden layers, identity on the output layer.

    Accepts a single flat vector (n0,) or a batch (batch, n0). A batch is
    run in the stream's blocks of ``block_rows(model)`` rows, a lone last
    row joined to the block before it (``row_slices``), so the partition
    depends only on the model and the batch size; every row, a single
    vector's too, goes through a matrix product (``_forward``). ``out``, a
    (batch, n) float64 array (batch 1 for a single vector), receives the
    outputs block by block in place of a new array; the bits are the same
    either way.
    """
    x = np.asarray(x, dtype=np.float64)
    n0 = model.input_dim
    if x.ndim not in (1, 2) or x.shape[-1] != n0:
        raise ValueError(f"x must have shape ({n0},) or (batch, {n0}) at input dim {n0}, got {x.shape}")
    single = x.ndim == 1
    if single:
        x = x[None, :]
    shape = (x.shape[0], model.output_dim)
    if out is None:
        out = np.empty(shape)
    elif not isinstance(out, np.ndarray) or out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}")
    for rows in row_slices(x.shape[0], block_rows(model)):
        _forward(model, x[rows], out[rows])
    return out[0] if single else out


def _forward(model: MlpNetwork, x: np.ndarray, out: np.ndarray) -> None:
    """Outputs of the rows of ``x`` into ``out``; the last layer's product
    is formed in ``out`` itself, so no (rows, n) temporary exists. A lone
    row runs as two copies of itself, of which the first output is kept:
    numpy runs a one-row product as a matrix-vector call, whose bits can
    differ from the matrix product's that every other row takes."""
    if x.shape[0] == 1:
        pair = np.empty((2, model.output_dim))
        _forward(model, np.vstack([x, x]), pair)
        out[0] = pair[0]
        return
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = h @ w.T
        h += b
        np.maximum(h, 0.0, out=h)
    np.matmul(h, model.weights[-1].T, out=out)
    out += model.biases[-1]


def predict_mask(logits: LogitTensor) -> np.ndarray:
    """Per-pixel argmax class mask, 1-based; ties go to the lowest index."""
    arr = logits.as_array()
    return np.argmax(arr, axis=2).astype(np.int64) + 1


def random_mlp(layer_dims, rng) -> MlpNetwork:
    """He-initialized random network, depth/width from ``layer_dims``."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims, layer_dims[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_out, fan_in)))
        biases.append(rng.normal(0.0, 0.05, size=fan_out))
    return MlpNetwork(tuple(weights), tuple(biases))
