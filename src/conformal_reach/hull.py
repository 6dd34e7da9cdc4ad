"""Convex-hull surrogate: LP clipping, error inflation, interval bounds.

The surrogate g replaces the network f by projecting reduced logits onto
the convex hull of reduced training logits; its deterministic reachset is
the hull itself. A conformal hyper-rectangle over the residual q = f - g
then inflates the hull (a Minkowski sum realized per component as interval
addition), giving intervals on every logit with the full guarantee. The
pipeline that fits and calibrates it is ``verify.run_surrogate_pipeline``;
this module holds the hull, the clip LP, the inflated set and its files.

The projection is a small-row linear program (the hull may have thousands
of generators but the reduced space has N dimensions). Its feasible basis
can be written down at the nearest hull point, so the solver here is a
dense phase-2 revised simplex from that basis, with no phase 1: Dantzig
pricing, switching to Bland's anti-cycling rule under stalling. Queries
are solved in blocks, in lockstep: each row keeps its own basis and pivot
rules, while the pricing and the basis-inverse updates run on the whole
block at once (see ``_ClipProblem``); a single point is a block of one.
The clipping hot loop skips the LP whenever a point certifies as interior via
barycentric coordinates against a greedily chosen inscribed simplex of
hull points; the certificate is exact containment in a sub-hull, so it
never loosens results, and the hull itself always keeps every training
point.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .guarantees import GuaranteeSpec, guarantee_confidence
from .model import MlpNetwork, infer
from .pca import ProjectionBasis, load_basis, save_basis
from .perturb import PerturbationSpec, apply_batch, sample_lambdas
from ._seeds import stage_rng

__all__ = [
    "LpError",
    "HullModel",
    "SurrogateReachSet",
    "clip",
    "clip_batch",
    "surrogate_predict",
    "stage_outputs",
    "save_surrogate",
    "load_surrogate",
]

_RED_COST_TOL = 1e-10
_PIVOT_TOL = 1e-11
_STALL_LIMIT = 24
_INTERIOR_MARGIN = 1e-9
# Queries the clip simplex solves in lockstep, and pivots between
# refactorizations of their stacked basis inverses.
_CLIP_BLOCK = 64
_REFACTOR_EVERY = 16
# A pivot this small next to its column's largest entry may be eta noise.
_SMALL_PIVOT = 1e-9

# Sampling happens in fixed-size blocks so that a run is reproducible from
# its seed regardless of sizes requested downstream.
PIPELINE_CHUNK = 8192


def stage_outputs(
    model: MlpNetwork, spec: PerturbationSpec, seed: int, stage: str, count: int
):
    """Network outputs on ``count`` fresh samples of one pipeline stage,
    yielded in blocks of at most PIPELINE_CHUNK rows from the stage's
    seeded stream."""
    rng = stage_rng(seed, stage)
    for start in range(0, count, PIPELINE_CHUNK):
        k = min(PIPELINE_CHUNK, count - start)
        yield infer(model, apply_batch(spec, sample_lambdas(spec, k, rng)))


class LpError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Hull model and the clipping block
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HullModel:
    """Convex hull of the t reduced training logits (rows of ``points``).

    Keeps every training point as a generator. A max-volume inscribed
    simplex of them certifies interior points cheaply; ``degenerate`` flags
    clouds too flat to build one (clipping still works, every query just
    takes the LP route).
    """

    points: np.ndarray  # (t, N)
    basis: Optional[ProjectionBasis] = None
    _bary_solver: Optional[tuple] = None

    @classmethod
    def from_points(cls, points: np.ndarray, basis=None) -> "HullModel":
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("hull needs a non-empty (t, N) point array")
        if not np.all(np.isfinite(points)):
            raise ValueError("hull points must be finite")
        return cls(points=points, basis=basis, _bary_solver=_inscribed_simplex(points))

    @property
    def degenerate(self) -> bool:
        return self._bary_solver is None

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def interior_mask(self, V: np.ndarray) -> np.ndarray:
        """True where the inscribed simplex certifies containment."""
        if self._bary_solver is None:
            return np.zeros(V.shape[0], dtype=bool)
        origin, inv_T = self._bary_solver
        W = (V - origin) @ inv_T.T  # barycentric coordinates (minus first)
        w0 = 1.0 - W.sum(axis=1)
        return (
            np.all(W >= _INTERIOR_MARGIN, axis=1) & (w0 >= _INTERIOR_MARGIN)
        )


def _inscribed_simplex(points: np.ndarray):
    """Barycentric solver (origin, inverse edge matrix) of a greedy
    max-volume simplex of hull points; None when degenerate."""
    t, N = points.shape
    if t < N + 1:
        return None
    centroid = points.mean(axis=0)
    first = int(np.argmax(np.linalg.norm(points - centroid, axis=1)))
    chosen = [first]
    # grow by farthest point from the current affine hull
    Q = np.zeros((N, 0))
    for _ in range(N):
        rel = points - points[chosen[0]]
        resid = rel - (rel @ Q) @ Q.T
        dist = np.linalg.norm(resid, axis=1)
        nxt = int(np.argmax(dist))
        scale = max(np.linalg.norm(points[chosen[0]]), 1.0)
        if dist[nxt] <= 1e-12 * scale:
            return None
        chosen.append(nxt)
        q = resid[nxt] / dist[nxt]
        Q = np.column_stack([Q, q])
    origin = points[chosen[0]]
    T = (points[chosen[1:]] - origin).T  # (N, N)
    try:
        inv_T = np.linalg.inv(T)
    except np.linalg.LinAlgError:
        return None
    return origin, inv_T


class _ClipProblem:
    """Prebuilt standard-form arrays for projecting points onto one hull.

    Standard form for the l-inf variant (P is N x t, columns = hull points):

        [ P   -1  I  0 ] [alpha]   [ v]
        [-P   -1  0  I ] [  s  ] = [-v]
        [1^T   0  0  0 ] [slack]   [ 1]

    with everything nonnegative; minimize s. The l1 variant replaces the
    single epigraph variable by N of them. Only the right-hand side
    depends on the query point, and a feasible basis can be written down
    directly from the nearest hull point, so each solve starts in phase 2
    a few pivots from optimal.

    ``solve_block`` runs the primal revised simplex on a block of queries
    in lockstep, one row each. Every row follows its own pivot rules
    (Dantzig pricing, Bland's rule after a stall, ratio-test ties to the
    lowest variable index), so its result does not depend on the other
    rows; only the linear algebra is shared. The basis inverses are kept
    as a stacked (k, M, M) array that each pivot updates with a rank-one
    eta step instead of solving with the basis. They are refactorized from
    A[:, basis] every _REFACTOR_EVERY pivots, and at once when a chosen
    pivot is small enough to be eta noise (_SMALL_PIVOT), which would
    otherwise make the basis singular. Rows leave the block when optimal;
    each one's reported point is then solved afresh from its final basis.
    """

    def __init__(self, hull: HullModel, norm: str):
        P = hull.points.T.copy()
        N, t = P.shape
        self.P = P
        self.N, self.t = N, t
        self.norm = norm
        if norm == "l_inf":
            n_epi = 1
            epi_block = -np.ones((2 * N, 1))
        elif norm == "l_1":
            n_epi = N
            epi_block = -np.vstack([np.eye(N), np.eye(N)])
        else:
            raise ValueError(f"norm must be 'l_inf' or 'l_1', got {norm!r}")
        M = 2 * N + 1
        cols = t + n_epi + 2 * N
        A = np.zeros((M, cols))
        A[:N, :t] = P
        A[N : 2 * N, :t] = -P
        A[: 2 * N, t : t + n_epi] = epi_block
        A[: 2 * N, t + n_epi :] = np.eye(2 * N)
        A[2 * N, :t] = 1.0
        c = np.zeros(cols)
        c[t : t + n_epi] = 1.0
        self.columns = A.T.copy()  # row j is column j of A
        self.c = c
        self.n_epi = n_epi
        self.max_iters = 50 * (cols + M) + 200

    def initial_basis(self, V: np.ndarray) -> np.ndarray:
        """Feasible bases (k, M) at the hull vertex nearest to each row of V."""
        P, t, N, n_epi = self.P, self.t, self.N, self.n_epi
        k = V.shape[0]
        # distance to every hull point, one coordinate at a time into two
        # (k, t) buffers, so the block never holds a (k, N, t) array
        dist = np.abs(V[:, :1] - P[0])
        gap = np.empty_like(dist)
        for i in range(1, N):
            np.subtract(V[:, i : i + 1], P[i], out=gap)
            np.abs(gap, out=gap)
            if self.norm == "l_inf":
                np.maximum(dist, gap, out=dist)
            else:
                dist += gap
        j0 = np.argmin(dist, axis=1)
        r = V - P[:, j0].T
        if self.norm == "l_inf":
            i0 = np.argmax(np.abs(r), axis=1)
            binding = r[np.arange(k), i0] <= 0
            # the inf-norm row that binds contributes no slack to the basis
            keep = np.ones((k, 2 * N), dtype=bool)
            keep[np.arange(k), np.where(binding, i0, N + i0)] = False
        else:
            # all epigraph vars basic; per coordinate, the binding side's slack leaves
            keep = np.hstack([r > 0, r <= 0])
        slacks = t + n_epi + np.nonzero(keep)[1].reshape(k, -1)
        epi = np.broadcast_to(np.arange(t, t + n_epi), (k, n_epi))
        return np.hstack([j0[:, None], epi, slacks])

    def entering(self, y: np.ndarray, basis: np.ndarray, bland: np.ndarray):
        """Entering column of each row under duals y (k, M), and each row's
        least reduced cost c - y A. Dantzig pricing takes the most negative
        column; rows flagged in ``bland`` take the first negative one."""
        N, t, n_epi = self.N, self.t, self.n_epi
        k = y.shape[0]
        # alpha columns (P; -P; 1^T) have cost 0 and are priced apart from
        # the epigraph and slack columns, so no (k, cols) array is formed
        red_a = (y[:, N : 2 * N] - y[:, :N]) @ self.P
        red_a -= y[:, 2 * N :]
        red_s = np.empty((k, n_epi + 2 * N))
        # epigraph columns have cost 1 and -1 in the rows they bound
        if self.norm == "l_inf":
            red_s[:, 0] = 1.0 + y[:, : 2 * N].sum(axis=1)
        else:
            red_s[:, :N] = 1.0 + y[:, :N] + y[:, N : 2 * N]
        # slack columns are the identity
        red_s[:, n_epi:] = -y[:, : 2 * N]
        # basic columns price at exactly zero
        row, pos = np.nonzero(basis < t)
        red_a[row, basis[row, pos]] = 0.0
        row, pos = np.nonzero(basis >= t)
        red_s[row, basis[row, pos] - t] = 0.0
        rows = np.arange(k)
        q_a, q_s = red_a.argmin(axis=1), red_s.argmin(axis=1)
        low_a, low_s = red_a[rows, q_a], red_s[rows, q_s]
        # equal minima go to the alpha column, the lower index
        q = np.where(low_s < low_a, t + q_s, q_a)
        if bland.any():
            negative = np.hstack([red_a[bland], red_s[bland]]) < -_RED_COST_TOL
            q[bland] = np.argmax(negative, axis=1)
        return q, np.minimum(low_a, low_s)

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
            cB = self.c[basis]
            y = (cB[:, None, :] @ Binv)[:, 0, :]
            q, low = self.entering(y, basis, stall >= _STALL_LIMIT)
            done = low >= -_RED_COST_TOL
            if done.any():
                final[live[done]] = basis[done]
                go = ~done
                if not go.any():
                    break
                live, basis, b, Binv, xB, cB, q, stall, last_obj = (
                    a[go] for a in (live, basis, b, Binv, xB, cB, q, stall, last_obj)
                )
            d = (Binv @ self.columns[q][:, :, None])[:, :, 0]
            positive = d > _PIVOT_TOL
            if not positive.any(axis=1).all():
                raise LpError("objective unbounded below")
            ratios = np.full(d.shape, np.inf)
            ratios[positive] = np.maximum(xB[positive], 0.0) / d[positive]
            ties = ratios <= ratios.min(axis=1, keepdims=True) + 1e-15
            # leaving tie-break by lowest variable index (Bland-safe)
            p = np.argmin(np.where(ties, basis, np.iinfo(np.int64).max), axis=1)
            rows = np.arange(live.size)
            if age and np.any(d[rows, p] < _SMALL_PIVOT * np.abs(d).max(axis=1)):
                # eta error can lift an exact zero of d over _PIVOT_TOL;
                # redo the pass with freshly factorized inverses
                age = _REFACTOR_EVERY
                continue
            obj = (cB * xB).sum(axis=1)
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
        return final, xB, (self.c[final] * xB).sum(axis=1)


def clip(v: np.ndarray, hull: HullModel, norm: str = "l_inf"):
    """Project one reduced point onto the hull.

    Returns (v_hat, alpha, residual): the projection, its convex
    coefficients over the hull points, and the attained norm distance.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (hull.dim,):
        raise ValueError(f"point must have shape ({hull.dim},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"point must be finite, got {v}")
    basis, xB, residual = _ClipProblem(hull, norm).solve_block(v[None, :])
    alpha = np.zeros(hull.size)
    is_alpha = basis[0] < hull.size
    alpha[basis[0, is_alpha]] = xB[0, is_alpha]
    v_hat = hull.points.T @ alpha
    return v_hat, alpha, float(residual[0])


def clip_batch(V: np.ndarray, hull: HullModel, norm: str = "l_inf"):
    """Project (k, N) points; returns (V_hat, residuals) without alphas.

    Interior points certified by the inscribed simplex keep their exact
    coordinates with residual zero; the remainder go through the LP in
    blocks of _CLIP_BLOCK rows, in input order.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2 or V.shape[1] != hull.dim:
        raise ValueError(f"points must have shape (k, {hull.dim}), got {V.shape}")
    bad = np.nonzero(~np.all(np.isfinite(V), axis=1))[0]
    if bad.size:
        raise ValueError(f"points must be finite; row {bad[0]} is {V[bad[0]]}")
    problem = _ClipProblem(hull, norm)
    out = V.copy()
    residuals = np.zeros(V.shape[0])
    todo = np.nonzero(~hull.interior_mask(V))[0]
    for start in range(0, todo.size, _CLIP_BLOCK):
        rows = todo[start : start + _CLIP_BLOCK]
        basis, xB, residuals[rows] = problem.solve_block(V[rows])
        # basic alpha columns weigh their hull points; the others weigh 0
        weights = np.where(basis < hull.size, xB, 0.0)
        points = hull.points[np.minimum(basis, hull.size - 1)]
        out[rows] = np.einsum("km,kmn->kn", weights, points)
    return out, residuals


# ---------------------------------------------------------------------------
# Surrogate model and its inflated reachset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurrogateReachSet:
    """Lifted hull inflated by the conformal error box.

    Component k of the reachset projects to the interval
    [error_center(k) + lift_lb(k) - sigma(k),
     error_center(k) + lift_ub(k) + sigma(k)].
    """

    hull: HullModel
    basis: ProjectionBasis
    error_center: np.ndarray
    error_sigma: np.ndarray
    lift_lb: np.ndarray
    lift_ub: np.ndarray
    guarantee: GuaranteeSpec

    def __post_init__(self):
        n, N = self.basis.input_dim, self.basis.num_components
        if self.hull.dim != N:
            raise ValueError(f"hull dimension {self.hull.dim} != basis components {N}")
        for name in ("error_center", "error_sigma", "lift_lb", "lift_ub"):
            value = getattr(self, name)
            if np.shape(value) != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {np.shape(value)}")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if np.any(self.lift_lb > self.lift_ub):
            raise ValueError("lift_lb must be <= lift_ub")
        if np.any(self.error_sigma < 0):
            raise ValueError("error_sigma must be non-negative")

    def project_intervals(self):
        return (
            self.error_center + self.lift_lb - self.error_sigma,
            self.error_center + self.lift_ub + self.error_sigma,
        )


def surrogate_predict(
    model: MlpNetwork,
    basis: ProjectionBasis,
    hull: HullModel,
    x: np.ndarray,
    norm: str = "l_inf",
) -> np.ndarray:
    """g(x) = A clip(A^T f(x)): reduce the logits, project onto the hull,
    lift back. Accepts (n0,) or (k, n0)."""
    y = infer(model, x)
    single = y.ndim == 1
    Y = y[None, :] if single else y
    V = Y @ basis.matrix
    V_hat, _ = clip_batch(V, hull, norm)
    G = V_hat @ basis.matrix.T
    return G[0] if single else G


# ---------------------------------------------------------------------------
# Persistence: basis container + raw hull points + JSON sidecar
# ---------------------------------------------------------------------------


# Version of the surrogate.json layout; a loader accepts only its own.
SURROGATE_FORMAT = 1


def save_surrogate(sr: SurrogateReachSet, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    save_basis(sr.basis, os.path.join(directory, "basis.pca"))
    np.ascontiguousarray(sr.hull.points, dtype="<f8").tofile(
        os.path.join(directory, "hull_points.f64")
    )
    sidecar = {
        "format": SURROGATE_FORMAT,
        "hull_shape": list(sr.hull.points.shape),
        "error_center": sr.error_center.tolist(),
        "error_sigma": sr.error_sigma.tolist(),
        "lift_lb": sr.lift_lb.tolist(),
        "lift_ub": sr.lift_ub.tolist(),
        "guarantee": sr.guarantee.as_dict(),
    }
    with open(os.path.join(directory, "surrogate.json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


def load_surrogate(directory) -> SurrogateReachSet:
    sidecar_path = os.path.join(directory, "surrogate.json")
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    if sidecar.get("format") != SURROGATE_FORMAT:
        raise ValueError(
            f"{sidecar_path}: format {sidecar.get('format')!r}, "
            f"expected {SURROGATE_FORMAT}"
        )
    basis = load_basis(os.path.join(directory, "basis.pca"))
    t, N = sidecar["hull_shape"]
    points_path = os.path.join(directory, "hull_points.f64")
    size = os.path.getsize(points_path)
    if min(t, N) < 1 or size != 8 * t * N:
        raise ValueError(
            f"{points_path}: {size} bytes, but hull_shape {t}x{N} needs {8 * t * N}"
        )
    points = np.fromfile(points_path, dtype="<f8").reshape(t, N)
    try:
        g = sidecar["guarantee"]
        guarantee = guarantee_confidence(g["epsilon"], g["rank_ell"], g["calib_size_m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{sidecar_path}: bad guarantee: {exc!r}") from exc
    return SurrogateReachSet(
        hull=HullModel.from_points(points, basis=basis),
        basis=basis,
        error_center=np.array(sidecar["error_center"]),
        error_sigma=np.array(sidecar["error_sigma"]),
        lift_lb=np.array(sidecar["lift_lb"]),
        lift_ub=np.array(sidecar["lift_ub"]),
        guarantee=guarantee,
    )
