"""The fused sampling stream: ``stage_outputs`` builds each INFER_CHUNK of
images in reused memory and infers it straight into the block's outputs.
It must give the bits of the unfused sample -> apply -> infer chain, and
hold no (PIPELINE_CHUNK, n0) input array."""

import tracemalloc

import numpy as np
import pytest

from conformal_reach._seeds import stage_rng
from conformal_reach.hull import PIPELINE_CHUNK, stage_outputs
from conformal_reach.model import INFER_CHUNK, ImageTensor, infer, random_mlp
from conformal_reach.perturb import (
    apply_batch,
    build_darkening,
    build_global_ball,
    sample_lambdas,
)


def _image(h, w, nc, seed):
    # most pixels clear the darkening threshold in every channel
    rng = np.random.default_rng(seed)
    return ImageTensor.from_array(rng.uniform(0.5, 1.0, size=(h, w, nc)))


SPECS = {
    "darkening": lambda img: build_darkening(img, 0.2, rng_seed=5),
    "l2-ball": lambda img: build_global_ball(img, "l2", 0.3),
    "linf-ball": lambda img: build_global_ball(img, "linf", 0.05),
}


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize(
    "count",
    [INFER_CHUNK - 1, 2 * INFER_CHUNK + 300, PIPELINE_CHUNK + 1500],
    ids=["below-infer-chunk", "partial-slice", "two-chunks"],
)
def test_matches_unfused_chain(kind, count):
    img = _image(6, 6, 3, seed=1)
    spec = SPECS[kind](img)
    model = random_mlp([img.size, 12, 9], np.random.default_rng(2))
    rng = stage_rng(11, "calib")
    sizes = []
    for Y in stage_outputs(model, spec, 11, "calib", count):
        ref = infer(model, apply_batch(spec, sample_lambdas(spec, Y.shape[0], rng)))
        np.testing.assert_array_equal(Y, ref)
        sizes.append(Y.shape[0])
    assert sizes == [min(PIPELINE_CHUNK, count - s) for s in range(0, count, PIPELINE_CHUNK)]


def test_memory_grows_with_infer_chunk():
    # Traced numpy buffers of one full PIPELINE_CHUNK of a darkening stream
    # on a 32x32x1 image: at most two (INFER_CHUNK, n0) input blocks plus
    # the (count, n) outputs. One (PIPELINE_CHUNK, n0) input matrix alone
    # is 67 MB, about four times the budget.
    img = _image(32, 32, 1, seed=3)
    spec = build_darkening(img, 0.02, rng_seed=4)
    model = random_mlp([img.size, 32, 16], np.random.default_rng(5))
    count = PIPELINE_CHUNK
    budget = 2 * INFER_CHUNK * img.size * 8 + count * model.output_dim * 8
    tracemalloc.start()
    try:
        for Y in stage_outputs(model, spec, 6, "train", count):
            assert Y.shape == (count, model.output_dim)
        del Y
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget, f"traced peak {peak / 2**20:.1f} MiB >= {budget / 2**20:.1f} MiB"
