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

# Fixed row-chunk for batched inference. Chunking is constant so that the
# exact same GEMM calls run no matter how work is scheduled; output bits
# then never depend on thread or batch-partition choices.
INFER_CHUNK = 1024

# Rows whose elementwise temporaries (scores, row norms, miss tests,
# lifted points) are formed at once: a (64, n) block stays in cache for n
# up to about 16k, and beside a stream's draw and output buffer only
# O(64 x (r + n)) more is held. No output depends on it.
_ROW_BLOCK = 64


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

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "ImageTensor":
        """Build from an (h, w) or (h, w, nc) array."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        h, w, nc = arr.shape
        return cls(h, w, nc, arr.reshape(-1).copy())

    def as_array(self) -> np.ndarray:
        return self.data.reshape(self.height, self.width, self.channels)

    @property
    def size(self) -> int:
        return self.data.shape[0]


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

    Accepts a single flat vector (n0,) or a batch (batch, n0); batched
    samples are processed in fixed chunks of ``INFER_CHUNK`` rows and each
    sample's result is independent of every other row in the batch.
    ``out``, a (batch, n) float64 array (batch 1 for a single vector),
    receives the outputs chunk by chunk in place of a new array; the bits
    are the same either way.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.input_dim:
        raise ValueError(
            f"input dim {x.shape[1]} != network input dim {model.input_dim}"
        )
    shape = (x.shape[0], model.output_dim)
    if out is None:
        out = np.empty(shape)
    elif not isinstance(out, np.ndarray) or out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}")
    for start in range(0, x.shape[0], INFER_CHUNK):
        _forward(model, x[start : start + INFER_CHUNK], out[start : start + INFER_CHUNK])
    return out[0] if single else out


def _forward(model: MlpNetwork, x: np.ndarray, out: np.ndarray) -> None:
    """Outputs of the rows of ``x`` into ``out``; the last layer's product
    is formed in ``out`` itself, so no (rows, n) temporary exists."""
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
