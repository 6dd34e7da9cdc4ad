"""Deterministic inference for flattened-input ReLU networks, plus the
image/logit tensor containers and the on-disk formats they travel in.

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
    "save_model",
    "load_model",
    "random_mlp",
    "read_image",
    "write_image",
    "read_f64",
    "write_f64",
    "write_pgm_bytes",
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


class ModelFormatError(ValueError):
    """Raised for malformed, inconsistent, or truncated model files."""


@dataclass(frozen=True)
class MlpNetwork:
    """Feedforward ReLU network: dense layers, ReLU on hidden, identity out.

    weights[k] has shape (layer_dims[k+1], layer_dims[k]); biases[k] has
    length layer_dims[k+1]. Arrays are float64 and never mutated after
    construction, so concurrent read-only inference is safe.
    """

    weights: tuple
    biases: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ModelFormatError("weight/bias layer counts differ")
        if not self.weights:
            raise ModelFormatError("network needs at least one layer")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ModelFormatError(f"layer {k}: weight/bias shapes disagree")
            if k > 0 and w.shape[1] != self.weights[k - 1].shape[0]:
                raise ModelFormatError(f"layer {k}: input dim mismatch")

    @property
    def layer_dims(self) -> list:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

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


# ---------------------------------------------------------------------------
# Model file format: one ASCII header line
#     MLP v1 <num_weight_layers> <n0> <n1> ... <n>
# followed by little-endian float64 blocks, layer by layer, each block the
# row-major weight matrix then the bias vector. Round-trips are bit exact.
# ---------------------------------------------------------------------------


def save_model(model: MlpNetwork, path) -> None:
    dims = model.layer_dims
    header = "MLP v1 " + str(len(dims) - 1) + " " + " ".join(map(str, dims)) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_model(path) -> MlpNetwork:
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            parts = header.decode("ascii").split()
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"malformed header in {path}") from exc
        if len(parts) < 3 or parts[0] != "MLP" or parts[1] != "v1":
            raise ModelFormatError(f"malformed header in {path}")
        try:
            n_layers = int(parts[2])
            dims = [int(p) for p in parts[3:]]
        except ValueError as exc:
            raise ModelFormatError(f"malformed header in {path}") from exc
        if n_layers < 1 or len(dims) != n_layers + 1 or any(d < 1 for d in dims):
            raise ModelFormatError(
                f"dimension inconsistency in {path}: {n_layers} layers, dims {dims}"
            )
        payload = fh.read()
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        need = (fan_in * fan_out + fan_out) * 8
        if offset + need > len(payload):
            raise ModelFormatError(f"truncated payload in {path}")
        w = np.frombuffer(payload, dtype="<f8", count=fan_in * fan_out, offset=offset)
        offset += fan_in * fan_out * 8
        b = np.frombuffer(payload, dtype="<f8", count=fan_out, offset=offset)
        offset += fan_out * 8
        weights.append(w.reshape(fan_out, fan_in).copy())
        biases.append(b.copy())
    if offset != len(payload):
        raise ModelFormatError(f"trailing bytes in {path}")
    return MlpNetwork(tuple(weights), tuple(biases))


# ---------------------------------------------------------------------------
# Image formats: PGM (P2/P5, one channel) and PPM (P3/P6, three channels)
# with maxval 255 mapped onto [0, 1] by /255, and a raw .f64 row-major dump
# for synthetic tensors (shape supplied by the caller or a manifest).
# ---------------------------------------------------------------------------


class ImageFormatError(ValueError):
    """Raised for unreadable or unsupported image files."""


def _read_pnm_tokens(raw: bytes, count: int, start: int):
    """Pull whitespace/comment-separated ASCII tokens out of a PNM body."""
    tokens = []
    i = start
    while len(tokens) < count and i < len(raw):
        ch = raw[i : i + 1]
        if ch == b"#":
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(raw) and not raw[j : j + 1].isspace() and raw[j : j + 1] != b"#":
                j += 1
            tokens.append(raw[i:j])
            i = j
    if len(tokens) < count:
        raise ImageFormatError("unexpected end of PNM header/data")
    return tokens, i


def read_image(path) -> ImageTensor:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 2:
        raise ImageFormatError(f"not a PNM file: {path}")
    magic = raw[:2]
    if magic not in (b"P2", b"P5", b"P3", b"P6"):
        raise ImageFormatError(f"unsupported magic {magic!r} in {path}")
    channels = 3 if magic in (b"P3", b"P6") else 1
    (w_tok, h_tok, maxval_tok), pos = _read_pnm_tokens(raw, 3, 2)
    try:
        w, h, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except ValueError as exc:
        raise ImageFormatError(f"bad PNM header in {path}") from exc
    if maxval != 255:
        raise ImageFormatError(f"only maxval 255 supported, got {maxval}")
    n = h * w * channels
    if magic in (b"P2", b"P3"):
        tokens, _ = _read_pnm_tokens(raw, n, pos)
        values = np.array([int(t) for t in tokens], dtype=np.float64)
    else:
        pos += 1  # single whitespace byte after maxval
        if len(raw) - pos < n:
            raise ImageFormatError(f"truncated pixel data in {path}")
        values = np.frombuffer(raw, dtype=np.uint8, count=n, offset=pos).astype(np.float64)
    if values.min() < 0 or values.max() > 255:
        raise ImageFormatError(f"pixel value outside [0, 255] in {path}")
    return ImageTensor(h, w, channels, values / 255.0)


def write_image(img: ImageTensor, path, binary: bool = True) -> None:
    levels = np.rint(np.clip(img.data, 0.0, 1.0) * 255.0).astype(np.uint8)
    if img.channels == 1:
        magic = b"P5" if binary else b"P2"
    elif img.channels == 3:
        magic = b"P6" if binary else b"P3"
    else:
        raise ImageFormatError(f"PNM supports 1 or 3 channels, got {img.channels}")
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    with open(path, "wb") as fh:
        fh.write(header)
        if binary:
            fh.write(levels.tobytes())
        else:
            fh.write(b"\n".join(b"%d" % v for v in levels) + b"\n")


def write_pgm_bytes(values: np.ndarray) -> bytes:
    """Binary PGM bytes for an (h, w) uint8 array; used for status masks."""
    h, w = values.shape
    return b"P5\n%d %d\n255\n" % (w, h) + values.astype(np.uint8).tobytes()


def read_f64(path, shape) -> np.ndarray:
    arr = np.fromfile(path, dtype="<f8")
    expected = int(np.prod(shape))
    if arr.size != expected:
        raise ImageFormatError(
            f"{path}: {arr.size} float64 values, expected {expected} for shape {shape}"
        )
    return arr.reshape(shape)


def write_f64(arr: np.ndarray, path) -> None:
    np.ascontiguousarray(arr, dtype="<f8").tofile(path)
