"""Adversarial perturbation sets and their samplers.

A perturbation set is a base image plus noise directions with a coefficient
box: adversarial images are x + sum_i lambda(i) * noise_i, lambda uniform
on the box, or, for a set with a radius, on the global l2 ball of that
radius. ``build_darkening`` dims bright pixels channel-wise;
``build_global_ball`` makes a global l2 or l-inf ball (the box [-e, e]^n0,
with no radius) whose identity noise basis is never materialized. A
darkening noise image has exactly one nonzero, so the set is stored as a
signed selection, one (flat input index, value) pair per coefficient, and
applied by scatter: no (r, n0) noise matrix is ever formed.

A spec records the builder call that made it as its ``recipe``. The run
manifest writes that call (``spec_manifest``) if making it again rebuilds
the spec, and a rerun makes it again (``spec_from_manifest``), so the
builders hold the only checks on an adversary's arguments.

The pipelines draw their samples from one stream, ``stage_outputs``,
which cuts each PIPELINE_CHUNK of a stage's seeded stream into
``model.block_rows``-row blocks. Every law draws in place (``_draw``)
behind a pad in one stage buffer, taken before the first draw, and each
block's outputs overwrite the buffer's start; the law decides only when
the stream draws: a uniform box each block, the l2 ball, whose radii
follow all of its normals, each (k, n0) chunk. A box holds about
``model.BLOCK_BYTES``, and ``model._ROW_BYTES`` more per row block.
``apply_batch`` forms one batch of images with the stream's image helper.
Perturbed intensities are deliberately not clamped to [0, 1]: the
darkening construction is in-range by design, and clamping would destroy
the affine structure the surrogate model relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ImageTensor, MlpNetwork, block_rows, infer, row_block, row_slices
from ._seeds import check_integer, check_number, stage_rng

__all__ = [
    "PerturbationSpec",
    "apply_batch",
    "build_darkening",
    "build_global_ball",
    "sample_lambdas",
    "spec_manifest",
    "spec_from_manifest",
    "stage_outputs",
    "DEFAULT_INTENSITY_THRESHOLD",
]

DEFAULT_INTENSITY_THRESHOLD = 150.0 / 255.0

# Sampling happens in fixed-size blocks so that a run is reproducible from
# its seed regardless of sizes requested downstream.
PIPELINE_CHUNK = 8192


@dataclass(frozen=True)
class PerturbationSpec:
    """Immutable description of the input set I and its sampling law.

    Noise image i is zero except at flat input index ``noise_index[i]``,
    where it equals ``noise_value[i]``; indices are distinct, so image k of
    a batch is x plus ``lambda_k[i] * noise_value[i]`` at ``noise_index[i]``.
    Both are ``None`` for the implicit identity basis of a global ball,
    which has r = n0. Bounds are the componentwise coefficient box: two
    finite vectors of shape (r,).
    A spec with a ``radius`` (positive) is the global uniform l2 ball of
    that radius, on the implicit basis, whose bounds no draw reads
    (``build_global_ball`` sets the [-e, e] cube around it); a spec
    without one is the uniform box of its bounds (an l-inf ball is one).
    ``recipe`` holds the JSON-ready arguments of the builder call that
    made the spec, under its ``adversary`` name, and is ``None`` for a
    spec built directly.
    """

    base_image: ImageTensor
    noise_index: Optional[np.ndarray]
    noise_value: Optional[np.ndarray]
    lambda_lower: np.ndarray
    lambda_upper: np.ndarray
    radius: Optional[float] = None
    recipe: Optional[dict] = None

    def __post_init__(self):
        lower, upper = self.lambda_lower.shape, self.lambda_upper.shape
        if len(lower) != 1 or upper != lower:
            raise ValueError(f"lambda bounds must both have shape (r,), got {lower} and {upper}")
        if self.radius is not None:
            check_number("radius", self.radius, positive=True)
            if self.noise_index is not None:
                raise ValueError("a radius makes the global l2 ball, which takes no noise_index")
        for name in ("lambda_lower", "lambda_upper"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.lambda_lower > self.lambda_upper):
            raise ValueError("lambda_lower must be <= lambda_upper componentwise")
        idx, val = self.noise_index, self.noise_value
        if (idx is None) != (val is None):
            raise ValueError("give both noise_index and noise_value, or neither")
        if idx is None:
            n0 = self.base_image.size
            if self.dim != n0:
                raise ValueError(f"an implicit basis needs r = n0, got r = {self.dim}, n0 = {n0}")
            return
        r = (self.dim,)
        if idx.shape != r or val.shape != r:
            raise ValueError(f"noise_index {idx.shape} and noise_value {val.shape} need shape {r}")
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

    @property
    def noise_matrix(self) -> Optional[np.ndarray]:
        """Dense (r, n0) noise images, built on every access for readers
        that want the explicit form; ``None`` for the implicit basis."""
        if self.noise_index is None:
            return None
        dense = np.zeros((self.dim, self.base_image.size))
        dense[np.arange(self.dim), self.noise_index] = self.noise_value
        return dense


def _images(spec: PerturbationSpec, lams: np.ndarray, buf) -> np.ndarray:
    """Flat images of the (k, r) float64 coefficients ``lams``; the only
    place images form.

    Each selected index gets base + lambda * value and every other index
    keeps base, which is exactly ``base + lams @ noise_matrix``: the dense
    product adds only exact zeros to the one nonzero term. Both forms add
    the base into ``lams`` in place (IEEE addition commutes, so the bits
    equal ``base + lams``); a selection first scales them by the values,
    then writes them over the r selected columns of the first k rows of
    ``buf``, whose rows hold the base. The implicit basis takes no buffer.
    """
    base = spec.base_image.data
    if spec.noise_index is None:
        lams += base
        return lams
    lams *= spec.noise_value
    lams += base[spec.noise_index]
    X = buf[: lams.shape[0]]
    X[:, spec.noise_index] = lams
    return X


def _base_rows(spec: PerturbationSpec, size: int):
    """``_images``' buffer: ``size`` rows of the base image for a
    selection, ``None`` for the implicit basis."""
    if spec.noise_index is None:
        return None
    return np.repeat(spec.base_image.data[None, :], size, axis=0)


def apply_batch(spec: PerturbationSpec, lams: np.ndarray) -> np.ndarray:
    """Vectorized superposition: (k, r) coefficients -> (k, n0) flat images,
    formed by ``_images`` from a copy of ``lams``, which is left as it
    was. Coefficients of any other shape raise ``ValueError``."""
    lams = np.array(lams, dtype=np.float64)
    if lams.ndim != 2 or lams.shape[1] != spec.dim:
        raise ValueError(f"lams must have shape (k, {spec.dim}), got {lams.shape}")
    return _images(spec, lams, _base_rows(spec, lams.shape[0]))


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
    check_integer("rng_seed", rng_seed, 0)
    check_number("pixel_fraction", pixel_fraction, positive=True)
    if pixel_fraction > 1:
        raise ValueError(f"pixel_fraction must lie in (0, 1], got {pixel_fraction!r}")
    check_number("intensity_threshold", intensity_threshold, positive=False)
    check_number("min_darkening", min_darkening, positive=True)
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
    # one noise image per (pixel, channel), pixel-major
    nc = x.channels
    flat_pixels = chosen[:, 0] * x.width + chosen[:, 1]
    cols = (flat_pixels[:, None] * nc + np.arange(nc)).reshape(-1)
    return PerturbationSpec(
        base_image=x,
        noise_index=cols,
        noise_value=-x.data[cols],
        lambda_lower=min_darkening / values.reshape(-1),
        lambda_upper=np.ones(values.size),
        recipe=dict(
            adversary="darkening", pixel_fraction=float(pixel_fraction),
            intensity_threshold=float(intensity_threshold),
            min_darkening=float(min_darkening), rng_seed=int(rng_seed),
        ),
    )


def build_global_ball(x: ImageTensor, norm: str, radius: float) -> PerturbationSpec:
    """Whole-image perturbation ball of the given radius around x.

    The noise basis is the identity (one unit direction per input
    coordinate) kept implicit, so nothing quadratic in n0 is stored. An l2
    ball's spec has the radius; an l-inf ball is the uniform box
    [-e, e]^n0, and only its recipe has one.
    """
    check_number("radius", radius, positive=True)
    if norm not in ("l2", "linf"):
        raise ValueError(f"norm must be 'l2' or 'linf', got {norm!r}")
    n0 = x.size
    e = float(radius)
    return PerturbationSpec(
        base_image=x,
        noise_index=None,
        noise_value=None,
        lambda_lower=np.full(n0, -e),
        lambda_upper=np.full(n0, e),
        radius=e if norm == "l2" else None,
        recipe=dict(adversary="ball", norm=norm, radius=e),
    )


def sample_lambdas(spec: PerturbationSpec, count: int, rng) -> np.ndarray:
    """(count, r) i.i.d. draws of the spec's law from the numpy Generator
    ``rng``, taken by ``_draw`` into a new array."""
    check_integer("count", count, 1)
    return _draw(spec, rng, np.empty((count, spec.dim)))


def _draw(spec: PerturbationSpec, rng, out: np.ndarray) -> np.ndarray:
    """Fill the (k, r) float64 buffer ``out`` with k draws from ``rng``, and
    return it. A box is ``rng.uniform(lower, upper)`` bit for bit (IEEE
    products and sums commute) and refuses an overflowing upper - lower as
    it does. A ball scales its normals to unit rows a row block at a time
    (a row's norm does not depend on its block), then by radii drawn last."""
    if spec.radius is None:
        with np.errstate(over="ignore"):
            span = spec.lambda_upper - spec.lambda_lower
        if not np.all(np.isfinite(span)):
            raise OverflowError("lambda_upper - lambda_lower overflows float64")
        rng.random(out=out)
        out *= span
        out += spec.lambda_lower
        return out
    rng.standard_normal(out=out)
    for rows in row_slices(len(out), row_block(spec.dim)):
        out[rows] /= np.linalg.norm(out[rows], axis=1, keepdims=True)
    out *= (spec.radius * rng.random(len(out)) ** (1.0 / spec.dim))[:, None]
    return out


def stage_outputs(
    model: MlpNetwork, spec: PerturbationSpec, seed: int, stage: str, count: int
):
    """Network outputs on ``count`` fresh samples of one pipeline stage,
    yielded in order in blocks of ``block_rows(model)`` rows (a lone last
    row of a PIPELINE_CHUNK joins the block before it, ``model.row_slices``)
    from the stage's seeded stream.

    A block's coefficients are the rows that ``sample_lambdas`` would give
    its PIPELINE_CHUNK, bit for bit. One stage buffer, taken before the
    first draw, holds a pad of size * max(0, n - r) floats, size =
    min(rows + 1, count), and behind it D draw rows of r floats, which
    ``_draw`` fills in place: a box draws each block when it is requested
    (numpy fills a uniform draw one value at a time), D = size, and the l2
    ball each chunk, D = min(PIPELINE_CHUNK, count). A block's m outputs
    are the buffer's first m * n floats: m rows ending at draw row e write
    m * n <= pad + e * r floats (a box's e is m), over rows ``infer`` has
    read, in one product, before it writes. A block is valid only until
    the next one is requested: a consumer may write into it, and one that
    keeps rows copies them. The last block stays valid after the stream
    has ended, so a stage of one block may be kept without a copy.
    ``count`` must be a positive integer; the first ``next()`` checks it."""
    check_integer("count", count, 1)
    rng = stage_rng(seed, stage)
    rows = block_rows(model)
    size = min(rows + 1, count)
    r, n = spec.dim, model.output_dim
    buf = _base_rows(spec, size)
    ball = spec.radius is not None
    pad = size * max(0, n - r)
    stage_buf = np.empty(pad + (min(PIPELINE_CHUNK, count) if ball else size) * r)
    out, draws = stage_buf[: size * n].reshape(size, n), stage_buf[pad:]
    for start in range(0, count, PIPELINE_CHUNK):
        k = min(PIPELINE_CHUNK, count - start)
        if ball:
            chunk = _draw(spec, rng, draws[: k * r].reshape(k, r))
        for block in row_slices(k, rows):
            m = block.stop - block.start
            lams = chunk[block] if ball else _draw(spec, rng, draws[: m * r].reshape(m, r))
            yield infer(model, _images(spec, lams, buf), out=out[:m])


def spec_manifest(spec: PerturbationSpec) -> dict:
    """JSON-ready record of the builder call that made ``spec``: the image
    shape, the ``adversary`` and the builder's arguments, from which
    ``spec_from_manifest`` and the base image rebuild the exact input set.
    The call is made again: a spec it does not rebuild, such as one built
    directly or by ``dataclasses.replace``, records ``adversary: None``."""
    image = spec.base_image
    manifest = {"image_shape": [image.height, image.width, image.channels], "adversary": None}
    try:
        rebuilt = spec_from_manifest({**manifest, **(spec.recipe or {})}, image)
    except ValueError:
        return manifest
    fields = ("noise_index", "noise_value", "lambda_lower", "lambda_upper", "radius")
    same = all(np.array_equal(getattr(spec, f), getattr(rebuilt, f)) for f in fields)
    return {**manifest, **spec.recipe} if same else manifest


def spec_from_manifest(manifest: dict, base_image: ImageTensor) -> PerturbationSpec:
    """Rebuild a spec by making again the builder call its manifest records.

    The manifest's image shape must be the base image's, its
    ``adversary`` must be ``"darkening"`` or ``"ball"``, and it must hold
    each of that builder's arguments; otherwise a ValueError names the
    field. Every other fault is found by the builder the fields are passed
    to, ``build_darkening`` or ``build_global_ball``.
    """

    def fields(*keys):
        missing = [key for key in keys if key not in manifest]
        if missing:
            raise ValueError(f"manifest has no {', '.join(missing)}")
        return [manifest[key] for key in keys]

    shape = [base_image.height, base_image.width, base_image.channels]
    (image_shape,) = fields("image_shape")
    if not isinstance(image_shape, (list, tuple)) or list(image_shape) != shape:
        raise ValueError(f"image_shape {image_shape} disagrees with the base image {shape}")
    adversary = manifest.get("adversary")
    if adversary == "darkening":
        fraction, threshold, darkening, seed = fields(
            "pixel_fraction", "intensity_threshold", "min_darkening", "rng_seed"
        )
        return build_darkening(base_image, fraction, threshold, darkening, seed)
    if adversary == "ball":
        norm, radius = fields("norm", "radius")
        return build_global_ball(base_image, norm, radius)
    raise ValueError(f"adversary must be 'darkening' or 'ball', got {adversary!r}")
