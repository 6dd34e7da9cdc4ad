"""Independent brute-force oracles shared by the unit and acceptance tests.

Everything here is deliberately naive: grids, exhaustive enumeration and
dense eigendecompositions, kept free of the code paths they check. The
inputs the tests share (a hand-built 4x4 model, benchmark instances), a
reader of the clip LP's weights and a refit of the surrogate's basis and
hull are built here too.
"""

from itertools import combinations
from math import comb

import numpy as np


def _compositions(parts: int, total: int) -> np.ndarray:
    """Every nonnegative integer row of length ``parts`` summing to
    ``total``, in lexicographic order. Built one leading column at a time:
    a row with ``left`` still to place expands into left + 1 rows."""
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        counts = left + 1
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        first = np.arange(starts.size, dtype=np.int64) - starts
        rows = np.hstack([np.repeat(rows, counts, axis=0), first[:, None]])
        left = np.repeat(left, counts) - first
    return np.hstack([rows, left[:, None]])


def barycentric_grid(parts: int, resolution: int) -> np.ndarray:
    """(count, parts) array of simplex grid points, count = C(res+parts-1, parts-1)."""
    return _compositions(parts, resolution) / float(resolution)


def grid_resolution_for_cap(parts: int, node_cap: int) -> int:
    """Largest resolution whose simplex grid stays under the node cap."""
    res = 1
    while comb(res + 1 + parts - 1, parts - 1) <= node_cap:
        res += 1
    return res


def grid_clip_residual(points: np.ndarray, v: np.ndarray, resolution: int) -> float:
    """Brute-force min over the alpha grid of ||v - P alpha||_inf."""
    grid = barycentric_grid(points.shape[0], resolution)
    best = np.inf
    chunk = 200_000
    for start in range(0, grid.shape[0], chunk):
        alphas = grid[start : start + chunk]
        cand = alphas @ points  # (k, N)
        res = np.max(np.abs(cand - v), axis=1)
        best = min(best, float(res.min()))
    return best


def box_score(y: np.ndarray, center: np.ndarray, tau: np.ndarray) -> float:
    """Nonconformity of one output: max_k |y(k) - c(k)| / tau_k."""
    return float(np.max(np.abs(y - center) / tau))


def center_deviations(y: np.ndarray):
    """Center, per-coordinate max absolute deviation and mean absolute
    deviation of the whole stacked (t, n) cloud, in three plain passes."""
    c = y.mean(axis=0)
    dev = np.abs(y - c)
    return c, dev.max(axis=0), float(dev.mean())


def clip_weights(hull, V):
    """Convex weights (k, t) over the hull points and residuals (k,) of the
    clip LP for the rows of V, read from the final basis and basic solution
    of ``_ClipProblem.solve_block``. Not an oracle: it reads the solver the
    clip tests check, for the weights ``clip_batch`` does not return."""
    from conformal_reach.hull import _ClipProblem

    basis, xB, residuals = _ClipProblem(hull.points).solve_block(np.atleast_2d(V))
    alpha = np.zeros((basis.shape[0], hull.size))
    rows, pos = np.nonzero(basis < hull.size)
    alpha[rows, basis[rows, pos]] = xB[rows, pos]
    return alpha, residuals


def surrogate_fit(model, spec, seed, train_size, num_components):
    """(basis, hull) of ``run_surrogate_pipeline``'s surrogate, refitted
    from its seeded ``train`` stage: deflation and the hull of the reduced
    cloud, which give the pipeline's bits. Not an oracle: it calls the code
    the surrogate runs, for the parts its reachset does not keep."""
    from conformal_reach.hull import HullModel
    from conformal_reach.pca import deflate
    from conformal_reach.perturb import stage_outputs

    Y = np.vstack([B.copy() for B in stage_outputs(model, spec, seed, "train", train_size)])
    basis = deflate(Y, num_components)
    return basis, HullModel.from_points(Y @ basis.matrix)


def synthetic_ssn_4x4():
    """Deterministic affine 4x4, 3-class "segmentation" model plus its base
    image, built so ground truth is provable by hand:

    - pixel 0 is non-robust: its class-1 logit 20*(x00 - 0.79) is positive
      at the base intensity 0.8 but negative for every darkened value
      (x00 <= 0.8 - 5/255 under the darkening box), so class 2 wins on the
      entire perturbation set;
    - pixels 5 and 15 are unknown: their winning logits change sign inside
      the box (4*(x11 - 0.44) and 2*(x00 + x11 - 0.9));
    - the other 13 pixels are robust with margin >= 3 (constant logits) or
      >= 3.7 (weakly input-dependent logits at pixel 2).

    The darkening adversary with fraction 1.0 selects exactly the two
    bright pixels (0,0) and (1,1), giving the 2-dimensional lambda box the
    grid oracle sweeps.
    """
    from conformal_reach.model import ImageTensor, MlpNetwork

    base = np.full((4, 4), 0.3)
    base[0, 0] = 0.8
    base[1, 1] = 0.9
    W = np.zeros((48, 16))
    b = np.zeros(48)

    def rows(p):
        return 3 * p, 3 * p + 1, 3 * p + 2

    # pixel 0: non-robust flip driven by input x00 (index 0)
    r1, r2, r3 = rows(0)
    W[r1, 0] = 20.0
    b[r1] = -0.79 * 20.0
    b[r3] = -2.0
    # pixel 5: unknown, sign change of 4*(x11 - 0.44), x11 at index 5
    r1, r2, r3 = rows(5)
    W[r1, 5] = 4.0
    b[r1] = -0.44 * 4.0
    b[r3] = -2.0
    # pixel 15: unknown, depends on both perturbed inputs
    r1, r2, r3 = rows(15)
    W[r1, 0] = 2.0
    W[r1, 5] = 2.0
    b[r1] = -1.8
    b[r3] = -2.0
    # pixel 2: robust but input-dependent (class 2 wins by >= 3.7)
    r1, r2, r3 = rows(2)
    W[r1, 5] = 0.3
    W[r2, 0] = 0.5
    b[r2] = 4.0
    # remaining pixels: constant logits, winner rotates with the pixel index
    for p in [1, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14]:
        winner = p % 3
        r = rows(p)
        b[r[winner]] += 3.0
        b[r[(winner + 2) % 3]] += -1.0
    model = MlpNetwork((W,), (b,))
    return model, ImageTensor.from_array(base)


def dark16_instance(instance_seed: int):
    """(image, model, spec) of one surrogate-dark16-n10 benchmark instance,
    rebuilt from its instance seed by the benchmark's recipe: a dim 16x16
    grey image with 120 bright pixels, a 256-256-768 network and a 5%
    darkening. The pipeline of that instance runs with the same seed."""
    from conformal_reach.model import ImageTensor, random_mlp
    from conformal_reach.perturb import build_darkening

    rng = np.random.default_rng(instance_seed)
    arr = rng.uniform(0.0, 0.55, size=(16, 16, 1))
    flat = arr.reshape(256, 1)
    bright = rng.choice(256, size=120, replace=False)
    flat[bright] = rng.uniform(0.65, 1.0, size=(120, 1))
    image = ImageTensor.from_array(arr)
    model = random_mlp([256, 256, 768], rng)
    return image, model, build_darkening(image, 0.05, rng_seed=instance_seed)


def darkening_grid_rv(model, spec, h, w, L, grid_n=101):
    """Exhaustive lambda-grid ground truth for a 2-dim darkening box.

    Returns (rv_percent, robust_bool_mask): a pixel is robust iff its
    argmax class equals the baseline class at every grid point.
    """
    from conformal_reach.model import LogitTensor, infer, predict_mask
    from conformal_reach.perturb import apply_batch

    assert spec.dim == 2
    g1 = np.linspace(spec.lambda_lower[0], spec.lambda_upper[0], grid_n)
    g2 = np.linspace(spec.lambda_lower[1], spec.lambda_upper[1], grid_n)
    lams = np.stack(np.meshgrid(g1, g2, indexing="ij"), axis=-1).reshape(-1, 2)
    logits = infer(model, apply_batch(spec, lams)).reshape(-1, h, w, L)
    masks = np.argmax(logits, axis=3) + 1
    baseline = predict_mask(
        LogitTensor(h, w, L, infer(model, spec.base_image.data))
    )
    robust = np.all(masks == baseline[None, :, :], axis=0)
    return 100.0 * float(robust.sum()) / (h * w), robust


def dense_darkening_matrix(image, pixels) -> np.ndarray:
    """(r, n0) darkening noise matrix written out entry by entry: one row
    per (pixel, channel), pixel-major, holding minus that channel's value
    at that pixel and zero everywhere else."""
    arr = image.as_array()
    rows = []
    for i, j in pixels:
        for ch in range(arr.shape[2]):
            row = np.zeros(arr.shape)
            row[i, j, ch] = -arr[i, j, ch]
            rows.append(row.reshape(-1))
    return np.array(rows)


def l2_ball_draw(radius: float, count: int, r: int, rng) -> np.ndarray:
    """(count, r) uniform draws from the radius ball in R^r, in whole-array
    form: Gaussian directions over their row norms, times radius * U^(1/r),
    with the sampler's RNG calls in the sampler's order."""
    g = rng.standard_normal((count, r))
    radii = radius * rng.random(count) ** (1.0 / r)
    return g / np.linalg.norm(g, axis=1, keepdims=True) * radii[:, None]


def enumerate_lp_minimum(c, a_ub, b_ub) -> float:
    """Exhaustive vertex enumeration for min c'x, a_ub x <= b_ub, x >= 0.

    Treats the nonnegativity constraints as additional rows and solves
    every n-subset of constraints as equalities, keeping the best feasible
    point. The caller must supply a bounded feasible problem.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    rows = np.vstack([np.asarray(a_ub, dtype=float), -np.eye(n)])
    rhs = np.concatenate([np.asarray(b_ub, dtype=float), np.zeros(n)])
    best = np.inf
    for subset in combinations(range(rows.shape[0]), n):
        M = rows[list(subset)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, rhs[list(subset)])
        if np.all(rows @ x <= rhs + 1e-9):
            best = min(best, float(c @ x))
    return best


def zspace_deflate(Z, num_components, step_size=10.0, max_iters=10_000, tol=1e-10):
    """Deflation power ascent carried out directly on the (t, n) cloud.

    Reference for ``pca.deflate``, which runs the same ascent in the
    eigenbasis of the t x t Gram matrix when t <= n and, projecting the
    found directions out of each gradient instead of out of a copy, on the
    read-only cloud when t > n or the column sums vanish: same start vector
    (normalized cloud sum, else the first
    Cartesian direction with a residual against the found ones), same
    step, stopping test, re-orthogonalization and sign convention, but
    every product is taken against Z itself. Returns
    (matrix, rayleigh, iterations, converged).
    """
    Z = np.array(Z, dtype=np.float64)
    t, n = Z.shape

    def objective(a):
        w = Z @ a
        return float(w @ w) / t

    cols = []
    rayleigh = np.empty(num_components)
    iterations = np.zeros(num_components, dtype=np.int64)
    converged = np.zeros(num_components, dtype=bool)
    for index in range(num_components):
        a = Z.sum(axis=0)
        if np.linalg.norm(a) >= 1e-14:
            a = a / np.linalg.norm(a)
        else:
            for k in range(n):
                a = np.zeros(n)
                a[k] = 1.0
                for prev in cols:
                    a = a - (prev @ a) * prev
                if np.linalg.norm(a) >= 1e-8:
                    break
            a = a / np.linalg.norm(a)
        j_prev = objective(a)
        for it in range(1, max_iters + 1):
            grad = 2.0 * (Z.T @ (Z @ a)) / t
            a = a + step_size * grad / max(2.0 * j_prev, 1e-300)
            a /= np.linalg.norm(a)
            j_cur = objective(a)
            if j_cur - j_prev <= tol * max(j_prev, 1e-300):
                converged[index] = True
                iterations[index] = it
                break
            j_prev = j_cur
        else:
            iterations[index] = max_iters
        for prev in cols:
            a = a - (prev @ a) * prev
        a /= np.linalg.norm(a)
        if a[np.argmax(np.abs(a))] < 0:
            a = -a
        rayleigh[index] = objective(a)
        cols.append(a)
        Z -= np.outer(Z @ a, a)
    return np.stack(cols, axis=1), rayleigh, iterations, converged
