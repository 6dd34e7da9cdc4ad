"""Adversarial perturbation sets and their samplers.

A perturbation set is a base image plus noise directions with a coefficient
box: adversarial images are x + sum_i lambda(i) * noise_i, lambda uniform
on the box, or on the l2 ball of the set's radius if it has one.
``build_darkening`` dims bright pixels channel-wise; ``build_global_ball``
makes a global l2 or l-inf ball (the box [-e, e]^n0, with no radius) whose
identity noise basis is never materialized. A darkening noise image has
exactly one nonzero, so the set is stored as a signed selection, one (flat
input index, value) pair per coefficient, and applied by scatter: no
(r, n0) noise matrix is ever formed.

A spec records the builder call that made it as its ``recipe``. The run
manifest writes that call (``spec_manifest``) and a rerun makes it again
(``spec_from_manifest``), so the builders hold the only checks on an
adversary's arguments.

The pipelines draw their samples from one stream, ``stage_outputs``. It
cuts each PIPELINE_CHUNK of a stage's seeded stream into blocks of
``model.block_rows`` rows, forms each block's images in one reused buffer
and infers them into one reused output buffer, so the image block and the
output buffer together take at most about ``model.BLOCK_BYTES``. A uniform
box is drawn one block at a time, so the stream holds one
block's draw, one image block (for the implicit basis, the draw itself), one
output buffer and about ``model._ROW_BYTES`` more per row block. Only an
l2 ball holds a whole (k, r) draw, since its radii are drawn after all of
its normals; it has r = n0, so there the draw is a (k, n0) array.
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
    A spec with a ``radius`` (positive) is the uniform l2 ball of that
    radius over its r coefficients, whose bounds no draw reads
    (``build_global_ball`` sets the [-e, e] cube around the ball); a spec
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
    product adds only exact zeros to the one nonzero term. A selection
    rewrites only the r selected columns of the first k rows of ``buf``,
    whose rows hold the base. The implicit basis takes no buffer and adds
    the base into ``lams`` in place (IEEE addition commutes, so the bits
    equal ``base + lams``).
    """
    base = spec.base_image.data
    if spec.noise_index is None:
        lams += base
        return lams
    X = buf[: lams.shape[0]]
    X[:, spec.noise_index] = base[spec.noise_index] + lams * spec.noise_value
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
    was."""
    lams = np.array(lams, dtype=np.float64)
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
    """(count, r) i.i.d. coefficient draws, taken from the numpy Generator
    ``rng``: uniform on the l2 ball of the spec's radius if it has one, and
    on its box [lambda_lower, lambda_upper] otherwise."""
    check_integer("count", count, 1)
    r = spec.dim
    if spec.radius is None:
        return rng.uniform(spec.lambda_lower, spec.lambda_upper, size=(count, r))
    # normalized and scaled in place, row norms one row block at a time
    # (each row's norm has the same bits however rows are blocked), so no
    # second (count, r) array forms beside the draw
    g = rng.standard_normal((count, r))
    for rows in row_slices(count, row_block(r)):
        g[rows] /= np.linalg.norm(g[rows], axis=1, keepdims=True)
    radii = spec.radius * rng.random(count) ** (1.0 / r)
    g *= radii[:, None]
    return g


def stage_outputs(
    model: MlpNetwork, spec: PerturbationSpec, seed: int, stage: str, count: int
):
    """Network outputs on ``count`` fresh samples of one pipeline stage,
    yielded in order in blocks of ``block_rows(model)`` rows (a lone last
    row of a PIPELINE_CHUNK joins the block before it, ``model.row_slices``)
    from the stage's seeded stream.

    A block's coefficients are the rows that ``sample_lambdas`` would give
    its PIPELINE_CHUNK, bit for bit: numpy fills a uniform draw one value at
    a time from the stream, so a box draws each block only when it is
    requested, while an l2 ball draws its whole chunk, whose blocks are
    views of it. Each block is a view of one (min(rows + 1, count), n)
    output buffer, valid only until the next one is requested: a consumer
    that keeps rows copies them."""
    rng = stage_rng(seed, stage)
    rows = block_rows(model)
    size = min(rows + 1, count)
    out = None
    for start in range(0, count, PIPELINE_CHUNK):
        k = min(PIPELINE_CHUNK, count - start)
        chunk = None if spec.radius is None else sample_lambdas(spec, k, rng)
        for block in row_slices(k, rows):
            if chunk is None:
                lams = sample_lambdas(spec, block.stop - block.start, rng)
            else:
                lams = chunk[block]
            if out is None:
                # both buffers are taken after the first draw, so that a
                # ball's (k, n0) draw can reuse memory the previous stage
                # freed; taken first, they often left the draw none, and
                # peak RSS hung on heap layout
                buf = _base_rows(spec, size)
                out = np.empty((size, model.output_dim))
            X = _images(spec, lams, buf)
            yield infer(model, X, out=out[: X.shape[0]])
            # the images may be the draw itself: free it before the next draw
            del lams, X
        # an l2 chunk's draw goes before the next chunk's draw is taken
        del chunk


def spec_manifest(spec: PerturbationSpec) -> dict:
    """JSON-ready record of the builder call that made ``spec``: the image
    shape, the ``adversary`` and the builder's arguments, from which
    ``spec_from_manifest`` and the base image rebuild the exact input set.
    A spec built directly records ``adversary: None`` and cannot be
    rebuilt."""
    image = spec.base_image
    recipe = spec.recipe if spec.recipe is not None else {"adversary": None}
    return {"image_shape": [image.height, image.width, image.channels], **recipe}


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
