"""Convex-hull surrogate: the hull and its LP clipping.

The surrogate g replaces the network f by projecting reduced logits onto
the convex hull of reduced training logits; its deterministic reachset is
the hull itself. A conformal hyper-rectangle over the residual q = f - g
then inflates the lifted hull (a Minkowski sum realized per component as
interval addition, ``calibrate.ReachSet``), giving intervals on every
logit with the full guarantee. ``verify.run_surrogate_pipeline`` fits and
calibrates it, and is the one place g is formed: ``clip_batch`` of the
reduced logits, lifted back by the basis. This module holds the hull and
the clip LP.

The projection finds the hull point nearest in l-inf norm: a small-row LP
whose objective is one variable, the distance s, in basis slot 1 of a
feasible basis written down at the nearest hull point. The solver is a
dense phase-2 revised simplex with no phase 1 and no cost vector; its
duals are s's row of the basis inverse (``_ClipProblem``). Queries are
solved in lockstep blocks sized by bytes, a row's result not depending on
its block. Every row takes the LP; ``clip_batch``, the one entry point,
forms each clipped point from its row's weights on the simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .model import row_block, row_slices
# not used here: perfbench/replay.py imports it from this module, until
# ROADMAP direction 16 removes that import
from .perturb import PIPELINE_CHUNK

__all__ = [
    "LpError",
    "HullModel",
    "clip_batch",
]

_RED_COST_TOL = 1e-10
_PIVOT_TOL = 1e-11
_STALL_LIMIT = 24
# Pivots between refactorizations of the clip simplex's basis inverses.
_REFACTOR_EVERY = 16
# A pivot this small next to its column's largest entry may be noise.
_SMALL_PIVOT = 1e-9
# Largest scale of hull and queries that the clip LP solves at.
_MAX_SCALE = 1024.0


class LpError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Hull model and the clipping block
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HullModel:
    """Convex hull of the t reduced training logits (rows of ``points``).

    Keeps every training point as a generator. ``degenerate`` flags clouds
    whose affine rank is below N, a flat hull in the reduced space;
    clipping works on them all the same.
    """

    points: np.ndarray  # (t, N)
    degenerate: bool

    # ``basis`` is read by no one: perfbench/replay.py passes it, until
    # ROADMAP direction 16 removes it
    @classmethod
    def from_points(cls, points: np.ndarray, basis=None) -> "HullModel":
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or 0 in points.shape:
            raise ValueError("hull needs a non-empty (t, N) point array")
        if not np.all(np.isfinite(points)):
            raise ValueError("hull points must be finite")
        t, N = points.shape
        flat = t <= N or np.linalg.matrix_rank(points[1:] - points[0]) < N
        return cls(points=points, degenerate=bool(flat))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    # read by no one: perfbench/replay.py counts its hits, until ROADMAP
    # direction 16 removes that span
    def interior_mask(self, V: np.ndarray) -> np.ndarray:
        """No row: every row takes the clip LP."""
        return np.zeros(V.shape[0], dtype=bool)


class _ClipProblem:
    """Prebuilt standard-form arrays for projecting onto the hull of ``points``.

    Standard form (P is N x t, columns = hull points):

        [ P   -1  I  0 ] [alpha]   [ v]
        [-P   -1  0  I ] [  s  ] = [-v]
        [1^T   0  0  0 ] [slack]   [ 1]

    with everything nonnegative; minimize the l-inf epigraph variable s,
    column t. Only the right-hand side depends on the query point, and a
    feasible basis can be written down directly from the nearest hull
    point, with s in slot 1, so each solve starts in phase 2 a few pivots
    from optimal. A pivot overwrites only the slot that leaves: while s is
    basic the objective is xB[1] and the duals are row 1 of B^-1, and once
    a pivot drives s out at 0 every price is 0 and the row is optimal.

    ``solve_block`` runs the primal revised simplex on a block of queries
    in lockstep, one row each. Every row follows its own pivot rules
    (Dantzig pricing, Bland's rule after a stall, ratio-test ties to the
    lowest variable index), so its result does not depend on the other
    rows; only the linear algebra is shared. The basis inverses are kept
    as a stacked (k, M, M) array that each pivot updates with a rank-one
    eta step instead of solving with the basis. They are refactorized from
    A[:, basis] every _REFACTOR_EVERY passes, and every live row pivots
    on every pass. The ratio test skips entries below _SMALL_PIVOT of
    their column's largest, which may be eta noise and would make the
    basis singular. Rows leave the block when optimal; each one's
    reported point is then solved afresh from its final basis.

    A block has ``rows`` queries (one more if it takes a lone last
    row), as many as keep each (k, t) pricing array and the (k, M, M)
    inverses within ``model._ROW_BYTES`` (read when the problem is built):
    a pass costs some fifty numpy calls whatever k is, and the block runs
    until its slowest row is optimal.
    """

    def __init__(self, points: np.ndarray):
        P = points.T.copy()
        N, t = P.shape
        self.P = P
        self.N, self.t = N, t
        M = 2 * N + 1
        cols = t + 1 + 2 * N
        A = np.zeros((M, cols))
        A[:N, :t] = P
        A[N : 2 * N, :t] = -P
        A[: 2 * N, t] = -1.0
        A[: 2 * N, t + 1 :] = np.eye(2 * N)
        A[2 * N, :t] = 1.0
        self.columns = A.T.copy()  # row j is column j of A
        self.max_iters = 50 * (cols + M) + 200
        self.rows = max(2, model._ROW_BYTES // (8 * max(t, M * M)))

    def initial_basis(self, V: np.ndarray) -> np.ndarray:
        """Feasible bases (k, M) at the hull vertex nearest to each row of V."""
        P, t, N = self.P, self.t, self.N
        k = V.shape[0]
        # l-inf distance to every hull point, one row block and one
        # coordinate at a time into two (row_block(t), t) buffers, so the
        # pricing array stays the block's one (k, t) array; max(0, |x|) is
        # |x| exactly, so each row's distances and j0 keep their bits
        j0 = np.empty(k, dtype=np.int64)
        dist, gap = np.empty((2, min(row_block(t) + 1, k), t))
        for rows in row_slices(k, row_block(t)):
            d, g = dist[: rows.stop - rows.start], gap[: rows.stop - rows.start]
            d.fill(0.0)
            for i in range(N):
                np.subtract(V[rows, i : i + 1], P[i], out=g)
                np.abs(g, out=g)
                np.maximum(d, g, out=d)
            j0[rows] = np.argmin(d, axis=1)
        r = V - P[:, j0].T
        i0 = np.argmax(np.abs(r), axis=1)
        binding = r[np.arange(k), i0] <= 0
        # the inf-norm row that binds contributes no slack to the basis
        keep = np.ones((k, 2 * N), dtype=bool)
        keep[np.arange(k), np.where(binding, i0, N + i0)] = False
        slacks = t + 1 + np.nonzero(keep)[1].reshape(k, -1)
        return np.hstack([j0[:, None], np.full((k, 1), t), slacks])

    def entering(self, y: np.ndarray, basis: np.ndarray, bland: np.ndarray):
        """Entering column of each row under duals y (k, M), and each row's
        least reduced cost c - y A. Dantzig pricing takes the most negative
        column; rows flagged in ``bland`` take the first negative one."""
        N, t = self.N, self.t
        red = np.empty((y.shape[0], t + 2 * N + 1))
        # alpha columns (P; -P; 1^T) have cost 0
        np.matmul(y[:, N : 2 * N] - y[:, :N], self.P, out=red[:, :t])
        red[:, :t] -= y[:, 2 * N :]
        # the epigraph column has cost 1 and -1 in every row it bounds
        red[:, t] = 1.0 + y[:, : 2 * N].sum(axis=1)
        # slack columns are the identity
        red[:, t + 1 :] = -y[:, : 2 * N]
        # basic columns price at exactly zero
        np.put_along_axis(red, basis, 0.0, axis=1)
        # equal minima go to the lower index, an alpha column before the rest
        q = red.argmin(axis=1)
        low = np.take_along_axis(red, q[:, None], axis=1)[:, 0]
        if bland.any():
            q[bland] = np.argmax(red[bland] < -_RED_COST_TOL, axis=1)
        return q, low

    def solve_block(self, V: np.ndarray):
        """Clip the rows of V (k, N). Returns each row's optimal basis (k, M),
        its basic solution (k, M) and its residual (k,)."""
        k, t = V.shape[0], self.t
        rhs = np.hstack([V, -V, np.ones((k, 1))])
        final = np.empty((k, 2 * self.N + 1), dtype=np.int64)
        live = np.arange(k)  # query row of each row still in the block
        basis = self.initial_basis(V)
        b = rhs
        stall = np.zeros(k, dtype=np.int64)
        last_obj = np.full(k, np.inf)
        age = _REFACTOR_EVERY  # eta steps since the last refactorization
        for it in range(self.max_iters):
            if age >= _REFACTOR_EVERY:
                try:
                    Binv = np.linalg.inv(self.columns[basis].transpose(0, 2, 1))
                except np.linalg.LinAlgError as exc:
                    raise LpError(f"singular basis at iteration {it}") from exc
                age = 0
            xB = (Binv @ b[:, :, None])[:, :, 0]
            # the objective s is basic in slot 1 until a pivot drives it
            # to 0; then every price is 0 and the row is optimal
            on = basis[:, 1] == t
            y = np.where(on[:, None], Binv[:, 1], 0.0)
            q, low = self.entering(y, basis, stall >= _STALL_LIMIT)
            done = low >= -_RED_COST_TOL
            if done.any():
                final[live[done]] = basis[done]
                go = ~done
                if not go.any():
                    break
                live, basis, b, Binv, xB, on, q, stall, last_obj = (
                    a[go] for a in (live, basis, b, Binv, xB, on, q, stall, last_obj)
                )
            d = (Binv @ self.columns[q][:, :, None])[:, :, 0]
            # eta and rounding error can lift an exact zero of d over
            # _PIVOT_TOL; a pivot on it makes the basis near singular
            floor = np.maximum(_PIVOT_TOL, _SMALL_PIVOT * np.abs(d).max(axis=1))
            positive = d > floor[:, None]
            if not positive.any(axis=1).all():
                raise LpError("objective unbounded below")
            ratios = np.full(d.shape, np.inf)
            ratios[positive] = np.maximum(xB[positive], 0.0) / d[positive]
            ties = ratios <= ratios.min(axis=1, keepdims=True) + 1e-15
            # leaving tie-break by lowest variable index (Bland-safe)
            p = np.argmin(np.where(ties, basis, np.iinfo(np.int64).max), axis=1)
            rows = np.arange(live.size)
            obj = np.where(on, xB[:, 1], 0.0)
            stalled = obj >= last_obj - 1e-12 * (1.0 + np.abs(obj))
            stall = np.where(stalled, stall + 1, 0)
            last_obj = np.minimum(last_obj, obj)
            basis[rows, p] = q
            pivot_row = Binv[rows, p] / d[rows, p][:, None]
            Binv -= d[:, :, None] * pivot_row[:, None, :]
            Binv[rows, p] = pivot_row
            age += 1
        else:
            raise LpError(f"simplex did not terminate within {self.max_iters} iterations")
        # each point is solved afresh from its final basis
        B = self.columns[final].transpose(0, 2, 1)
        try:
            xB = np.maximum(np.linalg.solve(B, rhs[:, :, None])[:, :, 0], 0.0)
        except np.linalg.LinAlgError as exc:
            raise LpError(f"singular basis at iteration {it}") from exc
        return final, xB, np.where(final[:, 1] == t, xB[:, 1], 0.0)


def clip_batch(V: np.ndarray, hull: HullModel, norm: str = "l_inf"):
    """Project (k, N) points onto the hull in l-inf norm; returns (V_hat,
    residuals).

    Every row goes through the LP, in lockstep blocks of
    ``_ClipProblem.rows`` rows cut by ``row_slices``. A row's result
    does not depend on its block: the stacked inverses and solves are
    formed matrix by matrix, and the one product across rows, the
    (k, N) @ (N, t) pricing, gave each row the same bits at every block
    size tried (1, 2, 64, 262 and 1024 rows of surrogate-dark16-n10, two
    instances of which a test in ``tests/test_hull.py`` checks). Each
    row's point is formed from its basic weights (the solve clips them at
    0) divided by their sum, so it is a convex combination of hull points
    even where rounding in the final solve moves the weights off the
    simplex.

    ``norm`` is only checked: the LP has the one l-inf form, and anything
    but "l_inf" raises ValueError. It stays because the benchmark's replay
    still passes it.
    """
    if norm != "l_inf":
        raise ValueError(f"norm must be 'l_inf', got {norm!r}")
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2 or V.shape[1] != hull.dim:
        raise ValueError(f"points must have shape (k, {hull.dim}), got {V.shape}")
    bad = np.nonzero(~np.all(np.isfinite(V), axis=1))[0]
    if bad.size:
        raise ValueError(f"points must be finite; row {bad[0]} is {V[bad[0]]}")
    # the LP's tolerances are absolute, so a hull and queries below scale 1
    # are solved at scale 1 and those above _MAX_SCALE at _MAX_SCALE; the
    # l-inf projection commutes with scaling
    top = max(np.abs(hull.points).max(), np.abs(V).max(initial=0.0))
    scale = top / min(max(top, 1.0), _MAX_SCALE) or 1.0
    problem = _ClipProblem(hull.points / scale)
    out = np.empty_like(V)
    residuals = np.empty(V.shape[0])
    for rows in row_slices(V.shape[0], problem.rows):
        basis, xB, residuals[rows] = problem.solve_block(V[rows] / scale)
        residuals[rows] *= scale
        # basic alpha columns weigh their hull points; the others weigh 0
        weights = np.where(basis < hull.size, xB, 0.0)
        weights /= weights.sum(axis=1, keepdims=True)
        points = hull.points[np.minimum(basis, hull.size - 1)]
        out[rows] = np.einsum("km,kmn->kn", weights, points)
    return out, residuals
