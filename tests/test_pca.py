import tracemalloc

import numpy as np
import pytest

from conformal_reach import pca
from conformal_reach.model import row_block
from conformal_reach.pca import deflate
from oracles import dark16_instance, surrogate_fit, zspace_deflate
from test_hull import CLIP_LP_CASES


def set_ascent(monkeypatch, **constants):
    """Set constants that ``deflate``'s ascent reads, for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(pca, name, value)


def ascent_constants():
    """The constants ``deflate`` reads now, as the oracle's arguments."""
    return dict(step_size=pca._STEP_SIZE, max_iters=pca._MAX_ITERS, tol=pca._TOL)


def principal_angles(A, B):
    """Angles between the column spans of two orthonormal-ish matrices."""
    qa, _ = np.linalg.qr(A)
    qb, _ = np.linalg.qr(B)
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))


def top_eigvecs(Z, N):
    """Dense eigendecomposition oracle of the uncentered second moment."""
    C = Z.T @ Z / Z.shape[0]
    w, V = np.linalg.eigh(C)
    return V[:, np.argsort(w)[::-1][:N]], np.sort(w)[::-1]


def controlled_cloud(rng, n, t, N, min_rel_gap=0.05):
    """Random cloud with a guaranteed relative eigengap in the top block."""
    while True:
        evals = np.sort(10.0 ** rng.uniform(-1, 1, size=n))[::-1]
        gaps = (evals[:-1] - evals[1:]) / evals[0]
        if np.all(gaps[: N + 1] > min_rel_gap):
            break
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    Z = rng.normal(size=(t, n)) @ (Q * np.sqrt(evals)).T
    return Z


class TestDeflate:
    @pytest.mark.parametrize("cloud", [np.zeros((0, 3)), np.zeros(3)], ids=["no-rows", "vector"])
    def test_rejects_empty_cloud(self, cloud):
        with pytest.raises(ValueError, match=r"^train_vectors must be a non-empty \(t, n\) array$"):
            deflate(cloud, 1)

    def test_axis_aligned_cloud(self):
        Z = np.zeros((3, 4))
        Z[:, 0] = [1.0, -2.0, 3.0]
        basis = deflate(Z, 1)
        a = basis.matrix[:, 0]
        np.testing.assert_allclose(np.abs(a), [1, 0, 0, 0], atol=1e-10)
        assert basis.rayleigh[0] == pytest.approx((1 + 4 + 9) / 3)

    def test_two_point_diagonal_cloud(self):
        # {(1,1), (-1,-1)}: top direction (1,1)/sqrt(2) with J = 2, then
        # the orthogonal direction with J = 0
        Z = np.array([[1.0, 1.0], [-1.0, -1.0]])
        basis = deflate(Z, 2)
        d = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(abs(basis.matrix[:, 0] @ d) - 1.0) < 1e-10
        assert basis.rayleigh[0] == pytest.approx(2.0)
        assert basis.rayleigh[1] == pytest.approx(0.0, abs=1e-12)
        assert abs(basis.matrix[:, 0] @ basis.matrix[:, 1]) < 1e-10

    def test_matches_dense_eigen_oracle(self, monkeypatch):
        rng = np.random.default_rng(0)
        Z = controlled_cloud(rng, n=10, t=300, N=4)
        set_ascent(monkeypatch, _STEP_SIZE=100.0, _MAX_ITERS=20_000, _TOL=0.0)
        basis = deflate(Z, 4)
        V, evals = top_eigvecs(Z, 4)
        angles = principal_angles(basis.matrix, V)
        assert np.max(angles) < 1e-6
        np.testing.assert_allclose(basis.rayleigh, evals[:4], rtol=1e-9)

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(1)
        Z = rng.normal(size=(50, 12))
        basis = deflate(Z, 6)
        G = basis.matrix.T @ basis.matrix
        np.testing.assert_allclose(np.diag(G), 1.0, atol=1e-10)
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 1e-8

    def test_deflation_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        Z = rng.normal(size=(40, 8))
        basis = deflate(Z, 3)
        residual = Z.copy()
        for k in range(3):
            a = basis.matrix[:, k]
            residual = residual - np.outer(residual @ a, a)
            assert np.max(np.abs(residual @ a)) < 1e-8

    def test_rayleigh_non_increasing(self):
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(60, 9))
        basis = deflate(Z, 9)
        assert np.all(np.diff(basis.rayleigh) <= 1e-10)

    def test_rayleigh_matches_stage_operator(self, monkeypatch):
        rng = np.random.default_rng(4)
        Z = rng.normal(size=(30, 5))
        set_ascent(monkeypatch, _STEP_SIZE=100.0, _MAX_ITERS=20_000, _TOL=0.0)
        basis = deflate(Z, 3)
        stage = Z.copy()
        for k in range(3):
            a = basis.matrix[:, k]
            J = np.sum((stage @ a) ** 2) / stage.shape[0]
            assert basis.rayleigh[k] == pytest.approx(J, rel=1e-9)
            stage = stage - np.outer(stage @ a, a)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(25, 7))
        basis = deflate(Z, 4)
        for k in range(4):
            a = basis.matrix[:, k]
            assert a[np.argmax(np.abs(a))] > 0

    def test_num_components_out_of_range(self):
        Z = np.ones((4, 6))
        with pytest.raises(ValueError):
            deflate(Z, 0)
        with pytest.raises(ValueError):
            deflate(Z, 5)  # exceeds t = 4
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="^num_components must be a positive integer"):
                deflate(Z, bad)
        assert deflate(Z, np.int64(2)).num_components == 2

    @pytest.mark.parametrize("t, n", [(300, 4000), (1000, 768)])
    def test_memory_is_the_copy_one_row_block_and_a_gram_only_if_t_le_n(self, t, n):
        # deflation never copies the cloud. At t <= n it holds the Gram and
        # its eigenvectors (LAPACK's workspace is not traced), so a (t, n)
        # copy beside them is over the budget. At t > n (surrogate-dark16-n10's
        # train cloud) it holds the finiteness check's (t, n) bool mask and
        # vectors, so a float copy of the cloud alone is over the budget
        rng = np.random.default_rng(26)
        Z = rng.normal(size=(t, n)) + 1.0
        if t <= n:
            budget = 8 * (3 * t * t + 16 * (t + n))
            assert budget <= 8 * (t * n + t * t + row_block(n) * n + 16 * (t + n))
            assert 8 * (t * n + 2 * t * t) > budget
        else:
            budget = t * n + 128 * (t + n)
            assert 8 * t * n > budget
        tracemalloc.start()
        try:
            deflate(Z, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, f"traced peak {peak / 2**20:.2f} MiB >= {budget / 2**20:.2f} MiB"

    @pytest.mark.parametrize("shape", [(20, 40), (12, 30), (30, 12)], ids=["t<n", "t<n-zero-sums", "t>n"])
    def test_read_only_cloud_is_left_unchanged(self, shape):
        # both forms read the cloud itself
        rng = np.random.default_rng(27)
        Z = rng.normal(size=shape) * np.linspace(3.0, 0.2, shape[1]) + 0.4
        if shape == (12, 30):
            Z = np.stack([Z[:6] - 0.4, 0.4 - Z[:6]], axis=1).reshape(12, 30)
            assert np.all(Z.sum(axis=0) == 0.0)
        before = Z.tobytes()
        Z.flags.writeable = False
        basis = deflate(Z, 4)
        assert Z.tobytes() == before
        np.testing.assert_allclose(basis.matrix.T @ basis.matrix, np.eye(4), atol=1e-10)

    def test_dark16_basis_within_rounding_of_the_gram_form(self):
        # surrogate-dark16-n10 instance seed 3990686019 (t = 1000 > n = 768):
        # deflation of its live train cloud takes the iterations, and the
        # basis to 1e-12, of the Gram-form ascent stored from commit 4383880
        _, model, spec = dark16_instance(3990686019)
        basis, _ = surrogate_fit(model, spec, 3990686019, 1000, 10)
        with np.load(CLIP_LP_CASES) as stored:
            np.testing.assert_array_equal(basis.iterations, stored["iterations_3990686019"])
            np.testing.assert_allclose(basis.matrix, stored["basis_3990686019"], rtol=0, atol=1e-12)
        assert np.all(basis.converged)

    @pytest.mark.parametrize(
        "Z",
        [np.ones((4, 6)), np.ones((3, 3)), 1e3 * np.outer([1.0, 2.0], [1.0, -1.0, 2.0, 0.0, 1.0, 1.0])],
        ids=["ones-4x6", "ones-3x3", "outer-2x6"],
    )
    def test_rank_one_cloud_gives_orthonormal_columns(self, Z):
        # the second direction has only rounding noise to ascend, which can
        # climb back into the first (the ones clouds) or, in the Gram's
        # eigenbasis, leave no eigenvalue above rounding (the outer product)
        basis = deflate(Z, 2)
        np.testing.assert_allclose(basis.matrix.T @ basis.matrix, np.eye(2), rtol=0, atol=1e-10)
        assert np.all(np.isfinite(basis.rayleigh))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("t, n, r, N", [(20, 40, 3, 6), (12, 12, 2, 5), (30, 12, 3, 6), (8, 50, 1, 4)])
    def test_rank_r_cloud_gives_orthonormal_columns(self, t, n, r, N, scale):
        # N > r directions asked, on both sides of t = n: those past the
        # rank come from rounding noise and must still be orthonormal
        rng = np.random.default_rng(28)
        Z = scale * rng.normal(size=(t, r)) @ rng.normal(size=(r, n))
        basis = deflate(Z, N)
        np.testing.assert_allclose(basis.matrix.T @ basis.matrix, np.eye(N), rtol=0, atol=1e-10)
        assert np.all(np.isfinite(basis.rayleigh))
        assert np.all(basis.rayleigh[r:] < 1e-20 * basis.rayleigh[0])

    def test_nonfinite_rejected(self):
        Z = np.ones((3, 3))
        Z[1, 1] = np.nan
        with pytest.raises(ValueError):
            deflate(Z, 1)


class TestEigenAscentMatchesZSpace:
    """The oracle runs the ascent on a deflated copy of the t x n cloud,
    passed the constants that ``deflate`` reads. ``deflate`` copies nothing:
    at t > n, and at t <= n when the column sums vanish, it ascends on the
    read-only cloud with the found directions projected out of each
    gradient, and otherwise at t <= n in the eigenbasis of the t x t Gram
    matrix. Either way it must take the same steps, with the basis equal
    to 1e-12 and the Rayleigh values to 1e-12 relative."""

    def assert_matches_oracle(self, Z, N):
        basis = deflate(Z, N)
        matrix, rayleigh, iterations, converged = zspace_deflate(Z, N, **ascent_constants())
        np.testing.assert_array_equal(basis.iterations, iterations)
        np.testing.assert_array_equal(basis.converged, converged)
        np.testing.assert_allclose(basis.matrix, matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(basis.rayleigh, rayleigh, rtol=1e-12)
        return basis

    def test_fewer_samples_than_dimensions(self):
        rng = np.random.default_rng(20)
        Z = rng.normal(size=(25, 60)) * np.linspace(3.0, 0.2, 60) + 0.4
        self.assert_matches_oracle(Z, 5)

    def test_decaying_spectrum_many_steps(self):
        # t = 200 <= n = 800, five directions that take from 19 to 330 steps
        rng = np.random.default_rng(29)
        Z = rng.normal(size=(200, 800)) * 0.98 ** np.arange(800) + 0.05
        basis = self.assert_matches_oracle(Z, 5)
        assert basis.iterations.min() < 25 and basis.iterations.max() > 300

    def test_more_samples_than_dimensions(self):
        rng = np.random.default_rng(21)
        Z = rng.normal(size=(200, 12)) * np.linspace(3.0, 0.2, 12) + 0.4
        self.assert_matches_oracle(Z, 6)

    def test_vanishing_sum_uses_cartesian_start(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(10, 8)) * np.linspace(3.0, 0.2, 8)
        Z = np.stack([X, -X], axis=1).reshape(20, 8)  # x1, -x1, x2, -x2, ...
        assert np.all(Z.sum(axis=0) == 0.0)
        self.assert_matches_oracle(Z, 4)

    def test_iteration_cap_with_cartesian_start(self, monkeypatch):
        # stopped after three short steps, the start vector's share of each
        # direction is still large
        rng = np.random.default_rng(24)
        X = rng.normal(size=(6, 30)) * np.linspace(3.0, 0.2, 30)
        Z = np.stack([X, -X], axis=1).reshape(12, 30)
        set_ascent(monkeypatch, _STEP_SIZE=0.5, _MAX_ITERS=3)
        assert Z.shape[0] <= Z.shape[1] and not np.any(Z.sum(axis=0))
        basis = self.assert_matches_oracle(Z, 3)  # the cloud form from the start
        assert not np.any(basis.converged)

    def test_rank_deficient_cloud(self):
        # rank 3, six directions asked: the last three come from a cloud
        # that deflation has reduced to rounding noise
        rng = np.random.default_rng(23)
        Z = rng.normal(size=(30, 3)) @ rng.normal(size=(3, 12))
        basis = deflate(Z, 6)
        assert np.all(np.isfinite(basis.matrix))
        assert np.all(np.isfinite(basis.rayleigh))
        np.testing.assert_allclose(basis.matrix.T @ basis.matrix, np.eye(6), atol=1e-10)
        assert np.all(basis.rayleigh[3:] < 1e-20 * basis.rayleigh[0])
        # t = 30 > n = 12: the first three directions are the oracle's
        matrix, rayleigh, iterations, converged = zspace_deflate(Z, 3, **ascent_constants())
        np.testing.assert_array_equal(basis.iterations[:3], iterations)
        np.testing.assert_array_equal(basis.converged[:3], converged)
        np.testing.assert_allclose(basis.matrix[:, :3], matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(basis.rayleigh[:3], rayleigh, rtol=1e-12)
