import math

import numpy as np
import pytest

from ridgeproj import DesignMatrix, exact_pcr, exact_projection, svd_small
from ridgeproj.synthetic import haar_orthonormal
from helpers import random_dense


@pytest.fixture(scope="module")
def seeded_factors():
    A = random_dense(np.random.default_rng(5), 50, 30)
    return A, svd_small(A)


class TestSvdSmall:
    def test_diagonal(self):
        F = svd_small(DesignMatrix.from_dense(np.diag([3.0, 1.0])))
        assert np.allclose(F.singular_values, [3.0, 1.0])
        assert np.allclose(F.U, np.eye(2))
        assert np.allclose(F.V, np.eye(2))

    def test_identity(self):
        F = svd_small(DesignMatrix.from_dense(np.eye(5)))
        assert np.allclose(F.singular_values, np.ones(5))

    def test_reconstruction_oracle(self, seeded_factors):
        A, F = seeded_factors
        dense = A.toarray()
        err = np.linalg.norm(F.reconstruct() - dense)
        assert err <= 1e-8 * np.linalg.norm(dense)

    def test_orthonormal_columns(self, seeded_factors):
        _, F = seeded_factors
        r = F.rank
        assert np.abs(F.U.T @ F.U - np.eye(r)).max() <= 1e-10
        assert np.abs(F.V.T @ F.V - np.eye(r)).max() <= 1e-10

    def test_descending_positive(self, seeded_factors):
        _, F = seeded_factors
        s = F.singular_values
        assert np.all(s[:-1] >= s[1:])
        assert np.all(s > 0)

    def test_matches_prescribed_factors(self):
        # Independent reference: A = U diag(s) V^T with Haar-random U, V.
        rng = np.random.default_rng(11)
        s = np.geomspace(10.0, 0.1, 12)
        U, V = haar_orthonormal(rng, 40, 12), haar_orthonormal(rng, 25, 12)
        F = svd_small(DesignMatrix.from_dense((U * s) @ V.T))
        assert F.rank == 12
        assert np.all(np.abs(F.singular_values - s) <= 1e-12 * s)
        # Same columns up to sign, with the sign rule fixing which one.
        signs = np.sign(V[np.argmax(np.abs(V), axis=0), np.arange(12)])
        assert np.abs(F.V - V * signs).max() <= 1e-10
        assert np.abs(F.U - U * signs).max() <= 1e-10

    def test_deterministic_signs(self, seeded_factors):
        _, F = seeded_factors
        V = F.V
        assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(F.rank)] > 0)

    def test_wide_matrix(self):
        A = random_dense(np.random.default_rng(8), 12, 40)
        F = svd_small(A)
        assert F.rank == 12
        assert np.linalg.norm(F.reconstruct() - A.toarray()) <= 1e-10

    def test_rank_deficient(self):
        rng = np.random.default_rng(2)
        low = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 20))
        F = svd_small(DesignMatrix.from_dense(low))
        assert F.rank == 4
        assert np.linalg.norm(F.reconstruct() - low) <= 1e-10 * np.linalg.norm(low)

    def test_zero_matrix_raises(self):
        for shape in ((3, 3), (0, 3), (3, 0)):  # an empty matrix is a zero matrix
            with pytest.raises(ValueError, match="rank zero"):
                svd_small(DesignMatrix.from_dense(np.zeros(shape)))

    def test_desk_scale_guard(self):
        class Fake:
            n_rows = n_cols = 3000
        with pytest.raises(ValueError, match="2000"):
            svd_small(Fake())


class TestExactProjection:
    def test_diagonal_threshold(self):
        F = svd_small(DesignMatrix.from_dense(np.diag([2.0, 0.5])))
        assert np.allclose(exact_projection(F, 1.0, [3.0, 4.0]), [3.0, 0.0])

    def test_empty_projection(self):
        F = svd_small(DesignMatrix.from_dense(np.diag([2.0, 0.5])))
        assert np.all(exact_projection(F, 5.0, [3.0, 4.0]) == 0.0)

    def test_full_projection(self, seeded_factors):
        _, F = seeded_factors
        y = np.random.default_rng(1).standard_normal(30)
        lam = 0.5 * F.singular_values[-1] ** 2
        assert np.allclose(exact_projection(F, lam, y), y, atol=1e-12)

    def test_idempotent(self, seeded_factors):
        _, F = seeded_factors
        y = np.random.default_rng(4).standard_normal(30)
        lam = float(np.median(F.singular_values) ** 2)
        once = exact_projection(F, lam, y)
        twice = exact_projection(F, lam, once)
        assert np.abs(twice - once).max() <= 1e-10

    def test_kept_subspace_and_residual(self, seeded_factors):
        _, F = seeded_factors
        y = np.random.default_rng(9).standard_normal(30)
        lam = float(np.median(F.singular_values) ** 2)
        k = F.top_index(lam)
        Vk = F.V[:, :k]
        proj = exact_projection(F, lam, y)
        assert np.abs(Vk.T @ proj - Vk.T @ y).max() <= 1e-9
        assert np.abs(Vk.T @ (proj - y)).max() <= 1e-9

    def test_lambda_validation(self, seeded_factors):
        _, F = seeded_factors
        with pytest.raises(ValueError, match="positive"):
            exact_projection(F, 0.0, np.zeros(30))
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                F.top_index(lam)


class TestExactPcr:
    def test_diagonal(self):
        F = svd_small(DesignMatrix.from_dense(np.diag([2.0, 0.5])))
        assert np.allclose(exact_pcr(F, 1.0, [4.0, 1.0]), [2.0, 0.0])

    def test_empty(self):
        F = svd_small(DesignMatrix.from_dense(np.diag([2.0, 0.5])))
        assert np.all(exact_pcr(F, 9.0, [4.0, 1.0]) == 0.0)

    def test_orthogonal_rhs_annihilated(self, seeded_factors):
        _, F = seeded_factors
        lam = float(np.median(F.singular_values) ** 2)
        k = F.top_index(lam)
        rng = np.random.default_rng(12)
        b = rng.standard_normal(50)
        b -= F.U[:, :k] @ (F.U[:, :k].T @ b)
        assert np.abs(exact_pcr(F, lam, b)).max() <= 1e-12 * np.linalg.norm(b)

    def test_minimizer_property(self, seeded_factors):
        A, F = seeded_factors
        lam = float(np.median(F.singular_values) ** 2)
        k = F.top_index(lam)
        a_lam = (F.U[:, :k] * F.singular_values[:k]) @ F.V[:, :k].T
        rng = np.random.default_rng(3)
        b = rng.standard_normal(50)
        x = exact_pcr(F, lam, b)
        base = np.linalg.norm(a_lam @ x - b)
        for i in range(0, 30, 7):
            for h in (1e-4, -1e-4):
                xp = x.copy()
                xp[i] += h
                assert np.linalg.norm(a_lam @ xp - b) >= base - 1e-9
