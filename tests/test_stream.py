"""The fused sampling stream: ``stage_outputs`` cuts each PIPELINE_CHUNK
into blocks of ``block_rows(model)`` rows, draws a uniform law's
coefficients block by block, builds each block of images in reused memory
and infers it into the start of one stage buffer, in which every law
draws behind a pad, over draw rows already read. It must give the bits of
the unfused sample -> apply -> infer chain, and hold no (PIPELINE_CHUNK,
n0) input array, no (PIPELINE_CHUNK, n) output array and, for a uniform
law, no (PIPELINE_CHUNK, r) draw; its blocks stay within the
``BLOCK_BYTES`` budget. Its consumers (the l2 sampler, the surrogate's
residual and lift bounds, the audit) work in row blocks beside the stage
buffer, with the bits of their whole-array forms."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conformal_reach._seeds import stage_rng
from conformal_reach.calibrate import center_and_scales, stream_calibration
from conformal_reach.hull import clip_batch
from conformal_reach import hull as hull_module
from conformal_reach import model as model_module
from conformal_reach import verify as verify_module
from conformal_reach.model import _ROW_BLOCK, INFER_CHUNK, ImageTensor, block_rows, infer, random_mlp
from conformal_reach.perturb import (
    PIPELINE_CHUNK,
    apply_batch,
    build_darkening,
    build_global_ball,
    sample_lambdas,
    stage_outputs,
)
from conformal_reach.verify import (
    conservatism_audit,
    run_naive_pipeline,
    run_surrogate_pipeline,
)

from oracles import dense_darkening_matrix, surrogate_fit
from test_golden import RTOL, ball_inputs, golden_inputs
from test_perturb import selected_pixels


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
    "count, rows, sizes",
    [
        (INFER_CHUNK - 1, None, [INFER_CHUNK - 1]),
        (2 * INFER_CHUNK + 300, None, [INFER_CHUNK, INFER_CHUNK, 300]),
        (PIPELINE_CHUNK + 1500, None, [INFER_CHUNK] * 9 + [1500 - INFER_CHUNK]),
        (11, 5, [5, 6]),
        (PIPELINE_CHUNK + 1, 5, [5] * 1638 + [2, 1]),
    ],
    ids=["below-infer-chunk", "partial-slice", "two-chunks", "block-bytes-lone-row-join", "block-bytes-lone-draw"],
)
def test_matches_unfused_chain(monkeypatch, kind, count, rows, sizes):
    # ``rows`` given, BLOCK_BYTES cuts the stream to blocks of that many
    # rows: a uniform law is drawn in those blocks, the last block of a
    # draw may take a lone leftover row, and a draw may be one row alone.
    # Each case runs three models: one narrower than its input; one wider
    # (n = 160 > n0 = 108), so that an l2 ball's outputs start in the pad
    # before its draw; and one layer, whose one product reads images that
    # overlap the outputs it writes
    img = _image(6, 6, 3, seed=1)
    spec = SPECS[kind](img)
    for layers in ([img.size, 12, 9], [img.size, 12, 160], [img.size, 160]):
        model = random_mlp(layers, np.random.default_rng(2))
        if rows is not None:
            monkeypatch.setattr(model_module, "BLOCK_BYTES", rows * 8 * (img.size + layers[-1]))
            assert block_rows(model) == rows
        blocks, last = [], None
        for Y in stage_outputs(model, spec, 11, "calib", count):
            # every block is a view of the one buffer the stage owns
            assert last is None or np.shares_memory(Y, last)
            blocks.append(Y.copy())
            last = Y
        assert [b.shape[0] for b in blocks] == sizes
        want = _unfused_outputs(model, spec, 11, count)
        np.testing.assert_array_equal(np.vstack(blocks), want, err_msg=str(layers))


def _unfused_outputs(model, spec, seed, count):
    """The calib stage's outputs from the unfused chain: ``sample_lambdas``
    per PIPELINE_CHUNK, the oracle's images and ``infer``."""
    img = spec.base_image
    rng = stage_rng(seed, "calib")
    dense = None if spec.noise_index is None else dense_darkening_matrix(img, selected_pixels(spec))
    ref = []
    for s in range(0, count, PIPELINE_CHUNK):
        lams = sample_lambdas(spec, min(PIPELINE_CHUNK, count - s), rng)
        ref.append(infer(model, img.data + (lams if dense is None else lams @ dense)))
    return np.vstack(ref)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_consumer_may_overwrite_each_block(monkeypatch, kind):
    # a consumer that writes NaN over every block it is given sees the
    # blocks of one that copies them: its writes reach no row the stream
    # has yet to infer, in two chunks of 5-row blocks ending in a lone draw
    img = _image(6, 6, 3, seed=1)
    spec = SPECS[kind](img)
    count = PIPELINE_CHUNK + 1
    for layers in ([img.size, 12, 160], [img.size, 160]):
        model = random_mlp(layers, np.random.default_rng(2))
        monkeypatch.setattr(model_module, "BLOCK_BYTES", 5 * 8 * (img.size + layers[-1]))
        kept = [Y.copy() for Y in stage_outputs(model, spec, 11, "calib", count)]
        spoiled = []
        for Y in stage_outputs(model, spec, 11, "calib", count):
            spoiled.append(Y.copy())
            Y[:] = np.nan
        np.testing.assert_array_equal(np.vstack(spoiled), np.vstack(kept), err_msg=str(layers))


def traced_peak(fn):
    """Peak traced bytes while ``fn()`` runs, and its result."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_memory_grows_with_infer_chunk():
    # Traced numpy buffers of one full PIPELINE_CHUNK of a darkening stream
    # on a 32x32x1 image through a 1024-output model: at most two
    # (INFER_CHUNK, n0 + n) blocks. One (PIPELINE_CHUNK, n) output block
    # alone is 67 MB, twice the budget.
    img = _image(32, 32, 1, seed=3)
    spec = build_darkening(img, 0.02, rng_seed=4)
    model = random_mlp([img.size, 32, 1024], np.random.default_rng(5))
    budget = 2 * INFER_CHUNK * (img.size + model.output_dim) * 8
    peak, _ = traced_peak(lambda: sum(1 for _ in stage_outputs(model, spec, 6, "train", PIPELINE_CHUNK)))
    assert peak < budget, f"traced peak {peak / 2**20:.1f} MiB >= {budget / 2**20:.1f} MiB"


def test_pipeline_and_audit_memory_grow_with_infer_chunk():
    # train, calib and audit streams longer than INFER_CHUNK on a 16x16x1
    # image with 4 classes (n0 = 256, n = 1024): the traced peak is at most
    # two (INFER_CHUNK, n0 + n) blocks. The (t, n) train outputs alone are
    # 32 MiB and one (PIPELINE_CHUNK, n) output block is 67 MB, both over
    # the 20 MiB budget.
    img = _image(16, 16, 1, seed=7)
    spec = build_darkening(img, 0.1, rng_seed=8)
    model = random_mlp([img.size, 32, 4 * img.size], np.random.default_rng(9))
    n, t, m = model.output_dim, 4 * INFER_CHUNK, PIPELINE_CHUNK + 808
    budget = 2 * INFER_CHUNK * (img.size + n) * 8
    assert t * n * 8 > budget

    def certify_and_audit():
        reachset, _, _ = run_naive_pipeline(
            model, spec, train_size=t, calib_size=m, epsilon=0.05,
            rank_ell=m - 10, seed=10,
        )
        return conservatism_audit(model, spec, *reachset.project_intervals(), m, seed=11)

    peak, _ = traced_peak(certify_and_audit)
    assert peak < budget, f"traced peak {peak / 2**20:.1f} MiB >= {budget / 2**20:.1f} MiB"


def test_memory_grows_with_block_bytes(monkeypatch):
    # a 1 MiB block budget on a 16x16x1 image through a 4096-output model
    # (n0 = 256, n = 4096) cuts the stream to 30-row blocks, so one full
    # PIPELINE_CHUNK of it holds at most two budgets, its darkening draw
    # included. One (INFER_CHUNK, n) output buffer alone is 32 MiB, and one
    # (PIPELINE_CHUNK, r) draw is over the budget too.
    monkeypatch.setattr(model_module, "BLOCK_BYTES", 1 << 20)
    img = _image(16, 16, 1, seed=16)
    spec = build_darkening(img, 0.25, rng_seed=17)
    model = random_mlp([img.size, 32, 4096], np.random.default_rng(18))
    assert block_rows(model) == 30
    budget = 2 * model_module.BLOCK_BYTES
    assert PIPELINE_CHUNK * spec.dim * 8 > budget
    peak, _ = traced_peak(lambda: sum(1 for _ in stage_outputs(model, spec, 19, "train", PIPELINE_CHUNK)))
    assert peak < budget, f"traced peak {peak / 2**20:.2f} MiB >= {budget / 2**20:.2f} MiB"


PIPELINES = {"naive": run_naive_pipeline, "surrogate": run_surrogate_pipeline}
# (train, aux, calib, audit) sample counts: even ones, and odd ones that
# leave every row-block loop a lone last row to join the block before it
SIZES = [(300, 150, 400, 300), (301, 151, 401, 301)]


def certify_and_audit(model, spec, kinds=tuple(PIPELINES), sizes=SIZES[0]):
    """Intervals and labels of each pipeline in ``kinds``, and the audit of
    each, as a flat dict of arrays."""
    train, aux, calib, audit_count = sizes
    out = {}
    for kind in kinds:
        extra = dict(aux_size=aux, num_components=4) if kind == "surrogate" else {}
        reachset, mask, _ = PIPELINES[kind](
            model, spec, train_size=train, calib_size=calib, epsilon=0.05, rank_ell=390,
            seed=25, **extra,
        )
        lo, hi = reachset.project_intervals()
        audit = conservatism_audit(model, spec, lo, hi, audit_count, seed=26)
        out.update({
            f"{kind}.lo": lo, f"{kind}.hi": hi, f"{kind}.status": mask.status,
            f"{kind}.eps_hat": np.array(audit.eps_hat),
            f"{kind}.empirical_lo": audit.empirical_lo,
            f"{kind}.empirical_hi": audit.empirical_hi,
        })
    return out


INPUTS = pytest.mark.parametrize("inputs", [golden_inputs, ball_inputs], ids=["darkening", "l2-ball"])


@INPUTS
@pytest.mark.parametrize("row_bytes", [1, 4096])
def test_row_budget_keeps_every_byte(monkeypatch, inputs, row_bytes):
    # row blocks of 2 to 4 rows for scores, l2 row norms, deflation, clip
    # LPs, miss tests and lifted points, at both size sets: each row's
    # result is computed on its own, and the lift's (rows, N) x (N, n)
    # product has N = 4 terms a row. The one patch of model._ROW_BYTES
    # cuts the clip LP's lockstep blocks too, which the spy records.
    want = [certify_and_audit(*inputs(), sizes=sizes) for sizes in SIZES]
    monkeypatch.setattr(model_module, "_ROW_BYTES", row_bytes)
    clip_rows = []
    build = hull_module._ClipProblem.__init__

    def spy(problem, points):
        build(problem, points)
        clip_rows.append(problem.rows)

    monkeypatch.setattr(hull_module._ClipProblem, "__init__", spy)
    for sizes, expected in zip(SIZES, want):
        got = certify_and_audit(*inputs(), sizes=sizes)
        for key in expected:
            assert got[key].tobytes() == expected[key].tobytes(), (sizes, key)
    assert clip_rows and set(clip_rows) == {2}, clip_rows


def test_stream_budget_keeps_every_byte_of_a_wide_model(monkeypatch):
    # the naive pipeline and its audit on a 16x16x2 image through one
    # 512 -> 1024 layer, in 37-row and 2-row stream blocks: every product
    # is at least 2 x 512 x 1024, like the 64x64x3 workload's, and each of
    # its rows is rounded the same at any row count
    img = _image(16, 16, 2, seed=27)
    wide = random_mlp([img.size, 4 * 256], np.random.default_rng(28))
    spec = build_darkening(img, 0.1, rng_seed=29)
    want = certify_and_audit(wide, spec, ["naive"])
    for rows in (37, 2):
        monkeypatch.setattr(model_module, "BLOCK_BYTES", rows * 8 * (img.size + 1024))
        assert block_rows(wide) == rows
        got = certify_and_audit(wide, spec, ["naive"])
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), (rows, key)


@INPUTS
def test_stream_budget_keeps_labels_of_small_models(monkeypatch, inputs):
    # in 7-row stream blocks the small models' products (say 7 x 36 x 64
    # in the first layer) take another BLAS kernel than in one block of
    # the stage, and rows can round otherwise: labels and audit misses
    # stay, and intervals agree within the golden tolerance
    model, spec = inputs()
    want = certify_and_audit(model, spec)
    monkeypatch.setattr(model_module, "BLOCK_BYTES", 7 * 8 * (model.input_dim + model.output_dim))
    assert block_rows(model) == 7
    got = certify_and_audit(model, spec)
    for key in want:
        if key.endswith((".status", ".eps_hat")):
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)
        else:
            np.testing.assert_allclose(got[key], want[key], rtol=RTOL, atol=0, err_msg=key)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_audit_matches_the_stacked_stream(monkeypatch, kind):
    # 21 samples in 5-row stream blocks, so the last block takes the lone
    # 21st row (5, 5, 5, 6), each read in 2-row blocks: the miss count and
    # the envelope equal those of the stacked stream
    img = _image(4, 4, 3, seed=31)
    spec = SPECS[kind](img)
    model = random_mlp([img.size, 12, 9], np.random.default_rng(32))
    monkeypatch.setattr(model_module, "BLOCK_BYTES", 5 * 8 * (img.size + 9))
    monkeypatch.setattr(model_module, "_ROW_BYTES", 2 * 8 * 9)
    count = 21
    blocks = [Y.copy() for Y in stage_outputs(model, spec, 33, "audit", count)]
    assert [b.shape[0] for b in blocks] == [5, 5, 5, 6]
    stack = np.vstack(blocks)
    # the stream's own envelope, cut to the median on two outputs
    y_lo, y_hi = stack.min(axis=0), stack.max(axis=0)
    y_lo[0], y_hi[1] = np.median(stack[:, 0]), np.median(stack[:, 1])
    report = conservatism_audit(model, spec, y_lo, y_hi, count, seed=33)
    misses = int(np.sum(np.any((stack < y_lo) | (stack > y_hi), axis=1)))
    assert 0 < misses < count
    assert report.eps_hat == misses / count
    assert np.array_equal(report.empirical_lo, stack.min(axis=0))
    assert np.array_equal(report.empirical_hi, stack.max(axis=0))


def _audit_blocks(monkeypatch, blocks):
    """The audit's report against [-1, 1] on a fake stream that yields
    ``blocks`` in turn from one reused buffer, as ``stage_outputs`` does."""
    count = sum(len(block) for block in blocks)

    def stream(model, spec, seed, stage, n):
        assert (stage, n) == ("audit", count)
        out = np.empty_like(max(blocks, key=len))
        for block in blocks:
            out[: block.shape[0]] = block
            yield out[: block.shape[0]]

    monkeypatch.setattr(verify_module, "stage_outputs", stream)
    model = random_mlp([4, 5, 4], np.random.default_rng(34))
    spec = build_global_ball(ImageTensor(1, 2, 2, np.full(4, 0.5)), "linf", 0.1)
    return conservatism_audit(model, spec, np.full(4, -1.0), np.full(4, 1.0), count, seed=35)


def _miss_blocks():
    # in the middle block rows 1 and 2 miss in columns 0 and 2, and row 3
    # in both columns 1 and 3; the last block holds a value on the bound,
    # which is no miss
    return [
        np.array([[0.0, 0.5, -0.5, 1.0], [-1.0, 0.0, 0.0, 0.0], [0.2, 0.2, 0.2, 0.2]]),
        np.array([
            [0.0, 0.0, 0.0, 0.0],
            [-1.5, 0.0, 0.0, 0.0],
            [0.0, 0.0, 2.0, 0.0],
            [0.0, 1.5, 0.0, -3.0],
            [0.0, 0.0, 0.5, 0.0],
            [0.9, -0.9, 0.9, -0.9],
        ]),
        np.array([[0.3, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
    ]


def test_audit_counts_misses_in_tested_columns(monkeypatch):
    # the audit tests only the columns where a row block's envelope leaves
    # [-1, 1]
    blocks = _miss_blocks()
    stack = np.vstack(blocks)
    report = _audit_blocks(monkeypatch, blocks)
    misses = np.any(np.abs(stack) > 1.0, axis=1).sum()
    assert misses == 3
    assert report.eps_hat == misses / stack.shape[0]
    assert np.array_equal(report.empirical_lo, stack.min(0))
    assert np.array_equal(report.empirical_hi, stack.max(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_audit_rejects_a_non_finite_output(monkeypatch, bad):
    # a non-finite output is refused, not counted as covered: row 4 of the
    # middle block turns NaN or infinite in column 2, where row 2 misses
    blocks = _miss_blocks()
    blocks[1][4, 2] = bad
    with pytest.raises(ValueError, match="^audit outputs must be finite: an audit output is NaN or infinite$"):
        _audit_blocks(monkeypatch, blocks)


def test_l2_draw_holds_one_draw():
    # the rows are normalized and scaled in place: beside the (count, r)
    # draw only O(_ROW_BLOCK x r) is traced, where the whole-array form
    # held a second draw-sized array
    r, count = 768, 1000
    spec = build_global_ball(ImageTensor.from_array(np.full((16, 16, 3), 0.5)), "l2", 0.3)
    budget = (count + 4 * _ROW_BLOCK) * r * 8
    assert 2 * count * r * 8 > budget
    peak, _ = traced_peak(lambda: sample_lambdas(spec, count, np.random.default_rng(1)))
    assert peak < budget, f"traced peak {peak / 2**20:.2f} MiB >= {budget / 2**20:.2f} MiB"


@pytest.mark.parametrize("norm", ["l2", "linf"])
def test_ball_stream_holds_one_draw(norm):
    # three PIPELINE_CHUNKs of a ball on a 16x16x1 image: an l2 chunk's
    # draw is let go before the next chunk is drawn, and an l-inf ball is
    # drawn one (INFER_CHUNK, n0) block at a time
    img = ImageTensor.from_array(np.full((16, 16, 1), 0.5))
    spec = build_global_ball(img, norm, 0.3)
    model = random_mlp([img.size, 8, 4], np.random.default_rng(34))
    draw = PIPELINE_CHUNK * img.size * 8
    budget = (1.5 if norm == "l2" else 0.25) * draw
    peak, _ = traced_peak(lambda: sum(1 for _ in stage_outputs(model, spec, 35, "calib", 3 * PIPELINE_CHUNK)))
    assert peak < budget, f"traced peak {peak / 2**20:.2f} MiB >= {budget / 2**20:.2f} MiB"


@pytest.mark.parametrize("law", ["darkening", "linf", "l2"])
def test_stream_holds_one_stage_buffer(law):
    # 1000 rows of each law, one block, on a 16x16x3 image (n0 = 768)
    # through a 256-output model: every law draws behind its outputs in
    # one stage buffer of size * max(n, r) floats, beside a selection's
    # size image rows, with a slack of one (_ROW_BLOCK, n0 + n) block. An
    # l-inf ball's (size, r) draw beside a (size, n) output buffer holds
    # size * n more floats, 1.95 MiB, which is over the slack
    img = _image(16, 16, 3, seed=12)
    spec = {
        "darkening": lambda: build_darkening(img, 0.02, rng_seed=5),
        "linf": lambda: build_global_ball(img, "linf", 0.05),
        "l2": lambda: build_global_ball(img, "l2", 0.3),
    }[law]()
    model = random_mlp([img.size, 8, 256], np.random.default_rng(13))
    size, n, r = 1000, model.output_dim, spec.dim
    assert block_rows(model) > size
    images = 0 if spec.noise_index is None else size * img.size * 8
    budget = size * max(n, r) * 8 + images + _ROW_BLOCK * (img.size + n) * 8
    peak, _ = traced_peak(lambda: sum(1 for _ in stage_outputs(model, spec, 35, "calib", size)))
    assert peak < budget, f"traced peak {peak / 2**20:.2f} MiB >= {budget / 2**20:.2f} MiB"


def test_selection_forms_its_images_in_the_draw_rows():
    # 1000 rows of a darkening with r = 84 on a 16x16x3 image through a
    # 256-output model, one block: the draw rows are scaled and offset in
    # place before their scatter into the image rows, so beside the stage
    # buffer and the image rows only 0.25 MiB is traced. Two (size, r)
    # temporaries, the scaled draw and its sum with the base, are 1.28 MiB
    img = _image(16, 16, 3, seed=12)
    spec = build_darkening(img, 0.2, rng_seed=5)
    model = random_mlp([img.size, 8, 256], np.random.default_rng(13))
    size, n, r = 1000, model.output_dim, spec.dim
    assert r == 84 and block_rows(model) > size
    slack = 1 << 18
    assert 2 * size * r * 8 > slack
    budget = size * max(n, r) * 8 + size * img.size * 8 + slack
    peak, _ = traced_peak(lambda: sum(1 for _ in stage_outputs(model, spec, 35, "calib", size)))
    assert peak < budget, f"traced peak {peak / 2**20:.2f} MiB >= {budget / 2**20:.2f} MiB"


@pytest.mark.parametrize("law", ["darkening", "l2"])
def test_audit_holds_the_stream_and_row_blocks(law):
    # 2000 audit rows on a 16x16x3 image (n0 = 768) through a 4-class
    # model (n = 1024), with bounds 0.05 either side of the clean output,
    # so that most row blocks take the miss test. Beside the stream's stage
    # buffer (a pad of size * max(0, n - r) floats, then D draw rows: D =
    # size for a box, the whole chunk for the l2 ball) and a selection's
    # size image rows, the audit holds its row blocks, within one
    # _ROW_BYTES. A separate (size, n) output block would pass it
    img = _image(16, 16, 3, seed=12)
    spec = {
        "darkening": lambda: build_darkening(img, 0.2, rng_seed=5),
        "l2": lambda: build_global_ball(img, "l2", 0.3),
    }[law]()
    model = random_mlp([img.size, 8, 4 * 256], np.random.default_rng(13))
    m, n, r = 2000, model.output_dim, spec.dim
    size = block_rows(model) + 1
    assert size < m and size * n * 8 > model_module._ROW_BYTES
    draws = m if law == "l2" else size
    images = 0 if law == "l2" else size * img.size
    budget = 8 * (size * max(0, n - r) + draws * r + images) + model_module._ROW_BYTES
    y = infer(model, img.data)
    peak, report = traced_peak(lambda: conservatism_audit(model, spec, y - 0.05, y + 0.05, m, seed=3))
    assert report.eps_hat > 0
    assert peak < budget, f"traced peak {peak / 2**20:.2f} MiB >= {budget / 2**20:.2f} MiB"


def test_surrogate_pipeline_and_audit_hold_draw_and_output_buffer():
    # l2 ball on a 16x16x3 image (r = n0 = 768) through a 4-class model
    # (n = 1024), with calib and audit streams of m = 3000 rows. Each
    # block's outputs are written over the draw's inferred rows and a pad
    # before them, so the budget is the largest draw D, that pad P of
    # min(INFER_CHUNK + 1, m) rows of n - n0 floats, the train stage (T:
    # its (t, n) cloud, and at t <= n the t x t Gram, its eigenvectors and
    # LAPACK's workspace, about 6 t^2 floats), and a slack of two
    # (_ROW_BLOCK, r + n) blocks: 22.57 MiB. A separate (INFER_CHUNK, n)
    # output buffer B beside the draw is over it. The train stage is not
    # this test's peak, so a second cloud copy in deflation passes here:
    # tests/test_pca.py's memory test guards deflation.
    img = _image(16, 16, 3, seed=12)
    spec = build_global_ball(img, "l2", 0.3)
    model = random_mlp([img.size, 16, 4 * 256], np.random.default_rng(13))
    n0, n, t, m = img.size, model.output_dim, 100, 3000
    D, B = m * n0 * 8, INFER_CHUNK * n * 8
    P = min(INFER_CHUNK + 1, m) * (n - n0) * 8
    T = t * n * 8 + 6 * t * t * 8
    budget = D + P + T + 2 * _ROW_BLOCK * (n0 + n) * 8
    assert D + B > budget

    def certify_and_audit():
        reachset, _, _ = run_surrogate_pipeline(
            model, spec, train_size=t, calib_size=m, aux_size=t, num_components=3,
            epsilon=0.05, rank_ell=m - 10, seed=14,
        )
        return conservatism_audit(model, spec, *reachset.project_intervals(), m, seed=15)

    peak, _ = traced_peak(certify_and_audit)
    assert peak < budget, f"traced peak {peak / 2**20:.1f} MiB >= {budget / 2**20:.1f} MiB"


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize(
    "count, rows", [(300, None), (11, 5), (PIPELINE_CHUNK + 7, 5)],
    ids=["one-block", "lone-row-join", "two-chunks"],
)
def test_last_block_outlives_the_stream(monkeypatch, kind, count, rows):
    # the last block a stream yields keeps its rows once the stream has
    # ended: nothing is written into the stage buffer after it
    img = _image(6, 6, 3, seed=1)
    spec = SPECS[kind](img)
    model = random_mlp([img.size, 12, 160], np.random.default_rng(2))
    if rows is not None:
        monkeypatch.setattr(model_module, "BLOCK_BYTES", rows * 8 * (img.size + 160))
    stream = stage_outputs(model, spec, 11, "calib", count)
    for block in stream:
        kept = block.copy()
    with pytest.raises(StopIteration):
        next(stream)
    np.testing.assert_array_equal(block, kept)


def test_one_block_train_stage_is_the_stream_buffer(monkeypatch):
    # 1000 train rows of a darkening on a 16x16x3 image (n0 = 768) through
    # a 4-class model (n = 1024), one stream block: up to deflation the
    # surrogate holds the stream's stage buffer of t * n floats, its t
    # image rows and one (t, 16) hidden block, with a slack of one
    # (_ROW_BLOCK, n0 + n) block. A (t, n) copy of the cloud is over it.
    # When deflation starts the stream has ended, so the cloud is the
    # stage buffer (a view) and the image rows are freed
    img = _image(16, 16, 3, seed=12)
    spec = build_darkening(img, 0.02, rng_seed=5)
    model = random_mlp([img.size, 16, 4 * 256], np.random.default_rng(13))
    n0, n, t, m = img.size, model.output_dim, 1000, 200
    assert t <= block_rows(model) + 1 and spec.dim < n
    stage, slack = t * n * 8, _ROW_BLOCK * (n0 + n) * 8
    budget = stage + t * n0 * 8 + t * 16 * 8 + slack
    assert stage > slack
    seen = []
    deflate = verify_module.deflate

    def spy(Y, num_components):
        seen.append((tracemalloc.get_traced_memory(), Y.flags.owndata))
        return deflate(Y, num_components)

    monkeypatch.setattr(verify_module, "deflate", spy)
    traced_peak(lambda: run_surrogate_pipeline(
        model, spec, train_size=t, calib_size=m, aux_size=100, num_components=3,
        epsilon=0.05, rank_ell=m - 10, seed=14,
    ))
    [((current, peak), owndata)] = seen
    assert peak < budget, f"traced peak {peak / 2**20:.2f} MiB >= {budget / 2**20:.2f} MiB"
    assert not owndata
    assert current < stage + slack, f"{current / 2**20:.2f} MiB held at deflation"


@INPUTS
@pytest.mark.parametrize("rows", [None, 100], ids=["one-block", "three-blocks"])
def test_train_cloud_gives_the_oracle_hull(monkeypatch, inputs, rows):
    # 301 train rows, in one stream block or in blocks of 100, 100 and 101
    # rows: the pipeline's hull points (the cloud in the stage buffer, or
    # gathered block by block) are those of the oracle's stacked copies at
    # the same block size, bit for bit
    model, spec = inputs()
    t = 301
    if rows is not None:
        monkeypatch.setattr(model_module, "BLOCK_BYTES", rows * 8 * (model.input_dim + model.output_dim))
    assert (t <= block_rows(model) + 1) == (rows is None)
    hulls = []

    def from_points(points):
        hulls.append(hull_module.HullModel.from_points(points))
        return hulls[-1]

    monkeypatch.setattr(verify_module, "HullModel", SimpleNamespace(from_points=from_points))
    run_surrogate_pipeline(
        model, spec, train_size=t, calib_size=200, aux_size=100, num_components=4,
        epsilon=0.05, rank_ell=190, seed=24,
    )
    _, hull = surrogate_fit(model, spec, 24, t, 4)
    (got,) = hulls
    assert got.points.tobytes() == hull.points.tobytes()


@pytest.mark.parametrize("inputs", [golden_inputs, ball_inputs], ids=["darkening", "l2-ball"])
def test_blocked_residual_and_lift_match_whole_arrays(inputs):
    # every stage leaves one row after its last full row block (65, 129 and
    # INFER_CHUNK + 65 rows): numpy multiplies a lone row by another BLAS
    # call than a block of rows, which can round differently
    model, spec = inputs()
    t, aux, m, ell, seed = _ROW_BLOCK + 1, INFER_CHUNK + _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1, 120, 23
    reachset, _, _ = run_surrogate_pipeline(
        model, spec, train_size=t, calib_size=m, aux_size=aux, num_components=4,
        epsilon=0.05, rank_ell=ell, seed=seed,
    )
    basis, hull = surrogate_fit(model, spec, seed, t, 4)
    A = basis.matrix
    Y = np.vstack([Y.copy() for Y in stage_outputs(model, spec, seed, "train", t)])
    lifted = (Y @ A) @ A.T
    np.testing.assert_array_equal(reachset.lift_lb, lifted.min(axis=0))
    np.testing.assert_array_equal(reachset.lift_ub, lifted.max(axis=0))

    def residuals(stage, count):
        for Y in stage_outputs(model, spec, seed, stage, count):
            yield Y - clip_batch(Y @ A, hull)[0] @ A.T

    cs = center_and_scales(residuals("aux", aux))
    calib = stream_calibration(residuals("calib", m), cs)
    np.testing.assert_array_equal(reachset.center, cs.center)
    np.testing.assert_array_equal(reachset.sigma, cs.tau * calib.rank_score(ell))


@pytest.mark.parametrize("norm", ["l_inf"])
@pytest.mark.parametrize("inputs", [golden_inputs, ball_inputs], ids=["darkening", "l2-ball"])
def test_clip_batch_on_infer_chunks_matches_whole(inputs, norm):
    # the surrogate clips each INFER_CHUNK of residual rows apart, so LP
    # rows share lockstep blocks with other neighbours than in one call on
    # the whole, and every product runs on other row counts
    model, spec = inputs()
    basis, hull = surrogate_fit(model, spec, 22, 200, 4)
    V = np.vstack([Y @ basis.matrix for Y in stage_outputs(model, spec, 22, "calib", 5000)])
    V_hat, residuals = clip_batch(V, hull, norm)
    parts = [clip_batch(V[s : s + INFER_CHUNK], hull, norm) for s in range(0, 5000, INFER_CHUNK)]
    np.testing.assert_array_equal(np.vstack([p[0] for p in parts]), V_hat)
    np.testing.assert_array_equal(np.concatenate([p[1] for p in parts]), residuals)


def test_lone_row_of_a_draw_takes_the_matrix_product():
    # PIPELINE_CHUNK + 1 rows leave a one-row draw, which row_slices cannot
    # join to the block before: that block was already yielded. Through one
    # 512 -> 1024 layer, numpy's matrix-vector call rounds that row
    # otherwise (by about 4e-15) than a batch of two rows does.
    img = _image(16, 16, 2, seed=30)
    wide = random_mlp([img.size, 4 * 256], np.random.default_rng(31))
    spec = build_darkening(img, 0.1, rng_seed=32)
    *_, last = stage_outputs(wide, spec, 33, "calib", PIPELINE_CHUNK + 1)
    assert last.shape[0] == 1
    rng = stage_rng(33, "calib")
    first = sample_lambdas(spec, PIPELINE_CHUNK, rng)
    lams = np.vstack([first[-1:], sample_lambdas(spec, 1, rng)])
    assert last[0].tobytes() == infer(wide, apply_batch(spec, lams))[1].tobytes()


@pytest.mark.parametrize("law", ["darkening-box", "linf-ball", "implicit-l2"])
@pytest.mark.parametrize("count", [0, -3, 2.5, True])
def test_count_is_checked_at_the_first_block(law, count):
    # every law refuses a count that is not a positive integer with the
    # same error, raised when the first block is requested
    img = _image(4, 4, 1, seed=36)
    darkening = build_darkening(img, 0.2, rng_seed=37)
    spec = {
        "darkening-box": darkening,
        "linf-ball": build_global_ball(img, "linf", 0.1),
        "implicit-l2": build_global_ball(img, "l2", 0.1),
    }[law]
    model = random_mlp([img.size, 5, 3], np.random.default_rng(38))
    stream = stage_outputs(model, spec, 39, "calib", count)
    with pytest.raises(ValueError, match=f"^count must be a positive integer, got {count!r}$"):
        next(stream)
