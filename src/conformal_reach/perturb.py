"""Adversarial perturbation sets and their samplers.

A perturbation set is a base image plus noise directions with a coefficient
box: adversarial images are x + sum_i lambda(i) * noise_i. Three builders
are provided: the darkening adversary (dim bright pixels channel-wise), and
global l2 / l-inf balls whose noise basis is the identity and therefore
never materialized. A darkening noise image has exactly one nonzero, so the
set is stored as a signed selection, one (flat input index, value) pair per
coefficient, and applied by scatter: memory and work grow with r, never
with r * n0. Perturbed intensities are deliberately not clamped to [0, 1]:
the darkening construction is in-range by design, and clamping would
destroy the affine structure the surrogate model relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ImageTensor

__all__ = [
    "PerturbationSpec",
    "apply",
    "apply_batch",
    "build_darkening",
    "build_global_ball",
    "sample",
    "sample_lambdas",
    "spec_manifest",
    "DEFAULT_INTENSITY_THRESHOLD",
]

UNIFORM_BOX = "uniform-box"
UNIFORM_L2_BALL = "uniform-l2-ball"
UNIFORM_LINF_BALL = "uniform-linf-ball"

DEFAULT_INTENSITY_THRESHOLD = 150.0 / 255.0


@dataclass(frozen=True)
class PerturbationSpec:
    """Immutable description of the input set I and its sampling law.

    Noise image i is zero except at flat input index ``noise_index[i]``,
    where it equals ``noise_value[i]``; indices are distinct, so image k of
    a batch is x plus ``lambda_k[i] * noise_value[i]`` at ``noise_index[i]``.
    Both are ``None`` for the implicit identity basis of a global ball
    (r = n0). Bounds are the componentwise coefficient box; for balls the
    box is the enclosing [-e, e] cube and membership additionally requires
    the norm constraint.
    """

    base_image: ImageTensor
    noise_index: Optional[np.ndarray]
    noise_value: Optional[np.ndarray]
    lambda_lower: np.ndarray
    lambda_upper: np.ndarray
    distribution: str
    radius: Optional[float] = None
    intensity_threshold: Optional[float] = None
    min_darkening: Optional[float] = None
    selected_pixels: Optional[tuple] = None
    selection_seed: Optional[int] = None

    def __post_init__(self):
        if self.lambda_lower.shape != self.lambda_upper.shape:
            raise ValueError("lambda bound shapes differ")
        if np.any(self.lambda_lower > self.lambda_upper):
            raise ValueError("lambda_lower must be <= lambda_upper componentwise")
        idx, val = self.noise_index, self.noise_value
        if (idx is None) != (val is None):
            raise ValueError("give both noise_index and noise_value, or neither")
        if idx is None:
            return
        r = (self.dim,)
        if idx.shape != r or val.shape != r:
            raise ValueError(
                f"noise_index {idx.shape} and noise_value {val.shape} "
                f"must have shape {r}"
            )
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"noise_index must be integer, got {idx.dtype}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.base_image.size):
            raise ValueError(f"noise_index outside [0, {self.base_image.size})")
        if np.unique(idx).size != idx.size:
            raise ValueError("noise_index entries must be distinct")
        if not np.all(np.isfinite(val)):
            raise ValueError("noise_value must be finite")

    @property
    def dim(self) -> int:
        """Number of perturbation coefficients r."""
        return self.lambda_lower.shape[0]

    def contains(self, lam: np.ndarray, atol: float = 0.0) -> bool:
        """Membership predicate of the coefficient set (box or ball)."""
        lam = np.asarray(lam, dtype=np.float64)
        if self.distribution == UNIFORM_L2_BALL:
            return bool(np.linalg.norm(lam) <= self.radius + atol)
        if self.distribution == UNIFORM_LINF_BALL:
            return bool(np.max(np.abs(lam)) <= self.radius + atol)
        return bool(
            np.all(lam >= self.lambda_lower - atol)
            and np.all(lam <= self.lambda_upper + atol)
        )

    @property
    def noise_matrix(self) -> Optional[np.ndarray]:
        """Dense (r, n0) noise images, built on every access for readers
        that want the explicit form; ``None`` for the implicit basis."""
        if self.noise_index is None:
            return None
        dense = np.zeros((self.dim, self.base_image.size))
        dense[np.arange(self.dim), self.noise_index] = self.noise_value
        return dense


def apply(spec: PerturbationSpec, lam: np.ndarray) -> ImageTensor:
    """Adversarial image x + sum_i lambda(i) noise_i for one coefficient
    vector inside the box; raw superposition, no clamping."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (spec.dim,):
        raise ValueError(f"lambda must have shape ({spec.dim},), got {lam.shape}")
    if np.any(lam < spec.lambda_lower) or np.any(lam > spec.lambda_upper):
        raise ValueError("lambda outside the coefficient box")
    flat = apply_batch(spec, lam[None, :])[0]
    img = spec.base_image
    return ImageTensor(img.height, img.width, img.channels, flat)


def apply_batch(spec: PerturbationSpec, lams: np.ndarray) -> np.ndarray:
    """Vectorized superposition: (k, r) coefficients -> (k, n0) flat images.

    Each selected index gets base + lambda * value and every other index
    keeps base, which is exactly ``base + lams @ noise_matrix``: the dense
    product adds only exact zeros to the one nonzero term."""
    base = spec.base_image.data
    if spec.noise_index is None:
        return base[None, :] + lams
    idx = spec.noise_index
    X = np.repeat(base[None, :], lams.shape[0], axis=0)
    X[:, idx] = base[idx] + lams * spec.noise_value
    return X


def build_darkening(
    x: ImageTensor,
    pixel_fraction: float,
    intensity_threshold: float = DEFAULT_INTENSITY_THRESHOLD,
    min_darkening: float = 5.0 / 255.0,
    rng_seed: int = 0,
) -> PerturbationSpec:
    """Darkening adversary: dim randomly chosen bright pixels channel-wise.

    Eligible pixels exceed ``intensity_threshold`` in every channel;
    ceil(pixel_fraction * #eligible) of them are drawn without replacement
    from the seeded generator, in sorted row-major order for
    reproducibility. Each selected (pixel, channel) pair yields one noise
    image equal to minus that channel value at that pixel, so the
    coefficient 1 blacks the channel out (full darkening) while the lower
    bound dims it by exactly ``min_darkening``.
    """
    if not (0.0 < pixel_fraction <= 1.0):
        raise ValueError(f"pixel_fraction must lie in (0, 1], got {pixel_fraction!r}")
    if min_darkening <= 0:
        raise ValueError("min_darkening must be positive")
    arr = x.as_array()
    eligible = np.argwhere(np.all(arr > intensity_threshold, axis=2))
    if eligible.shape[0] == 0:
        raise ValueError("no eligible pixel above the intensity threshold")
    # argwhere already yields row-major sorted coordinates
    n_eligible = eligible.shape[0]
    r_pix = int(np.ceil(pixel_fraction * n_eligible))
    rng = np.random.default_rng(rng_seed)
    chosen = eligible[np.sort(rng.choice(n_eligible, size=r_pix, replace=False))]

    values = arr[chosen[:, 0], chosen[:, 1]]  # (r_pix, nc)
    too_dark = np.argwhere(min_darkening > values)
    if too_dark.size:
        p, ch = too_dark[0]
        raise ValueError(
            f"min_darkening {min_darkening} exceeds intensity {values[p, ch]} "
            f"at pixel ({chosen[p, 0]}, {chosen[p, 1]}) channel {ch}"
        )
    return _darkening(
        x,
        chosen,
        lambda_lower=min_darkening / values.reshape(-1),
        lambda_upper=np.ones(values.size),
        intensity_threshold=intensity_threshold,
        min_darkening=min_darkening,
        selection_seed=rng_seed,
    )


def _darkening(x: ImageTensor, pixels, **fields) -> PerturbationSpec:
    """Box spec with one noise image per (pixel, channel) of ``pixels``,
    pixel-major: minus that channel's value at that pixel, zero elsewhere."""
    pixels = np.asarray(pixels, dtype=np.int64).reshape(-1, 2)
    nc = x.channels
    flat_pixels = pixels[:, 0] * x.width + pixels[:, 1]
    cols = (flat_pixels[:, None] * nc + np.arange(nc)).reshape(-1)
    return PerturbationSpec(
        base_image=x,
        noise_index=cols,
        noise_value=-x.data[cols],
        distribution=UNIFORM_BOX,
        selected_pixels=tuple((int(i), int(j)) for i, j in pixels),
        **fields,
    )


def build_global_ball(x: ImageTensor, norm: str, radius: float) -> PerturbationSpec:
    """Whole-image perturbation ball of the given radius around x.

    The noise basis is the identity (one unit direction per input
    coordinate) kept implicit, so nothing quadratic in n0 is stored.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    if norm == "l2":
        dist = UNIFORM_L2_BALL
    elif norm == "linf":
        dist = UNIFORM_LINF_BALL
    else:
        raise ValueError(f"norm must be 'l2' or 'linf', got {norm!r}")
    n0 = x.size
    e = float(radius)
    return PerturbationSpec(
        base_image=x,
        noise_index=None,
        noise_value=None,
        lambda_lower=np.full(n0, -e),
        lambda_upper=np.full(n0, e),
        distribution=dist,
        radius=e,
    )


def sample_lambdas(spec: PerturbationSpec, count: int, rng) -> np.ndarray:
    """(count, r) i.i.d. coefficient draws from the spec's distribution.

    ``rng`` is an integer seed or a numpy Generator; pass derived
    sub-generators to parallelize shards deterministically.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    r = spec.dim
    if spec.distribution == UNIFORM_BOX or spec.distribution == UNIFORM_LINF_BALL:
        return rng.uniform(spec.lambda_lower, spec.lambda_upper, size=(count, r))
    if spec.distribution == UNIFORM_L2_BALL:
        g = rng.standard_normal((count, r))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = spec.radius * rng.random(count) ** (1.0 / r)
        return g * radii[:, None]
    raise ValueError(f"unknown distribution {spec.distribution!r}")


def sample(spec: PerturbationSpec, count: int, rng_seed: int):
    """List of (lambda, ImageTensor) pairs, reproducible from the seed."""
    lams = sample_lambdas(spec, count, rng_seed)
    flats = apply_batch(spec, lams)
    img = spec.base_image
    return [
        (lams[i].copy(), ImageTensor(img.height, img.width, img.channels, flats[i]))
        for i in range(count)
    ]


def spec_manifest(spec: PerturbationSpec, base_image_path: str = "") -> dict:
    """JSON-ready description sufficient to rebuild the exact input set."""
    return {
        "base_image": base_image_path,
        "image_shape": [
            spec.base_image.height,
            spec.base_image.width,
            spec.base_image.channels,
        ],
        "distribution": spec.distribution,
        "radius": spec.radius,
        "intensity_threshold": spec.intensity_threshold,
        "min_darkening": spec.min_darkening,
        "selected_pixels": [list(p) for p in spec.selected_pixels]
        if spec.selected_pixels is not None
        else None,
        "selection_seed": spec.selection_seed,
        "lambda_lower": spec.lambda_lower.tolist(),
        "lambda_upper": spec.lambda_upper.tolist(),
    }


def spec_from_manifest(manifest: dict, base_image: ImageTensor) -> PerturbationSpec:
    """Rebuild a spec from its manifest plus the base image it references.

    The manifest's image shape must be the base image's, and a darkening
    manifest must select distinct pixels inside the image and give one
    coefficient bound per selected (pixel, channel); otherwise a ValueError
    names the offending field.
    """
    shape = [base_image.height, base_image.width, base_image.channels]
    if list(manifest["image_shape"]) != shape:
        raise ValueError(
            f"image_shape {manifest['image_shape']} disagrees with "
            f"the base image {shape}"
        )
    dist = manifest["distribution"]
    if dist in (UNIFORM_L2_BALL, UNIFORM_LINF_BALL):
        norm = "l2" if dist == UNIFORM_L2_BALL else "linf"
        return build_global_ball(base_image, norm, manifest["radius"])
    h, w = shape[:2]
    pixels = np.asarray(manifest["selected_pixels"], dtype=np.int64)
    if pixels.ndim != 2 or pixels.shape[0] < 1 or pixels.shape[1] != 2:
        raise ValueError("selected_pixels must be a non-empty list of [row, col] pairs")
    outside = (pixels < 0).any(axis=1) | (pixels[:, 0] >= h) | (pixels[:, 1] >= w)
    if outside.any():
        i, j = pixels[np.argmax(outside)]
        raise ValueError(
            f"selected_pixels: pixel ({i}, {j}) lies outside the {h}x{w} image"
        )
    flat, counts = np.unique(pixels[:, 0] * w + pixels[:, 1], return_counts=True)
    if np.any(counts > 1):
        i, j = divmod(int(flat[np.argmax(counts > 1)]), w)
        raise ValueError(
            f"selected_pixels: pixel ({i}, {j}) is selected more than once"
        )
    r = pixels.shape[0] * base_image.channels
    bounds = {}
    for key in ("lambda_lower", "lambda_upper"):
        bounds[key] = np.asarray(manifest[key], dtype=np.float64)
        if bounds[key].shape != (r,):
            raise ValueError(
                f"{key} has shape {bounds[key].shape}, but {pixels.shape[0]} pixels "
                f"x {base_image.channels} channels need ({r},)"
            )
    return _darkening(
        base_image,
        pixels,
        **bounds,
        intensity_threshold=manifest["intensity_threshold"],
        min_darkening=manifest["min_darkening"],
        selection_seed=manifest["selection_seed"],
    )
