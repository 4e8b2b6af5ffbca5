import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import ridgeproj.spectral as spectral
from ridgeproj import (
    ConvergenceFailure,
    DesignMatrix,
    MatrixStats,
    gen_synthetic,
    matrix_stats,
    spectral_norm_estimate,
    svd_small,
)
from ridgeproj.synthetic import haar_orthonormal
from acceptance_helpers import ridge_contract_instance
from helpers import random_dense


class TestSpectralNormEstimate:
    def test_diagonal(self):
        A = DesignMatrix.from_dense(np.diag([3.0, 1.0]))
        est = spectral_norm_estimate(A, tol=1e-6, seed=0)
        assert abs(est - 3.0) <= 3e-6

    def test_identity(self):
        A = DesignMatrix.from_dense(np.eye(4))
        assert spectral_norm_estimate(A, tol=1e-6, seed=1) == pytest.approx(1.0, abs=1e-9)

    def test_against_svd_oracle(self):
        A = random_dense(np.random.default_rng(42), 100, 60)
        sigma1 = svd_small(A).singular_values[0]
        for tol in (1e-3, 1e-5):
            est = spectral_norm_estimate(A, tol=tol, seed=3)
            assert abs(est - sigma1) <= tol * sigma1

    def test_small_gap_matrix(self):
        # Close top singular values stress the stopping rule.
        A = DesignMatrix.from_dense(np.diag([1.0, 0.999, 0.9, 0.1]))
        est = spectral_norm_estimate(A, tol=1e-4, seed=5)
        assert abs(est - 1.0) <= 1e-4

    def test_deterministic(self):
        A = random_dense(np.random.default_rng(0), 30, 20)
        a = spectral_norm_estimate(A, tol=1e-4, seed=9)
        b = spectral_norm_estimate(A, tol=1e-4, seed=9)
        assert a == b

    def test_nonconvergence_reports_rayleigh(self):
        A = random_dense(np.random.default_rng(1), 30, 20)
        with pytest.raises(ConvergenceFailure) as exc:
            spectral_norm_estimate(A, tol=1e-12, max_iters=2, seed=0)
        assert exc.value.diagnostic is not None

    def test_tol_domain(self):
        A = DesignMatrix.from_dense(np.eye(2))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                spectral_norm_estimate(A, tol=bad)


class TestMatrixStats:
    def test_kappa_identity(self):
        A = random_dense(np.random.default_rng(2), 25, 15)
        stats = matrix_stats(A, lam=0.7)
        assert stats.kappa_lambda == stats.sigma1_estimate ** 2 / 0.7

    def test_kappa_rescaling_pinned_example(self):
        # A drawn example of test_power_of_two_rescaling_is_bit_identical[8.0]:
        # pow(x, 2.0) can miss the correctly rounded square by an ulp, here
        # giving 2.946519846832294 for x and 2.9465198468322944 for 8 x over
        # 64.  A product rounds both alike.
        x = 1.716542993004339
        assert (MatrixStats(sigma1_estimate=8.0 * x, lam=64.0).kappa_lambda
                == MatrixStats(sigma1_estimate=x, lam=1.0).kappa_lambda == x * x)

    def test_sigma1_inflated_above_truth(self):
        A = random_dense(np.random.default_rng(6), 40, 25)
        sigma1 = svd_small(A).singular_values[0]
        stats = matrix_stats(A, lam=1.0)
        assert stats.sigma1_estimate >= sigma1 * (1.0 - 1e-3)
        assert stats.sigma1_estimate <= sigma1 * (1.0 + 3e-3)

    def test_lambda_guard(self):
        A = random_dense(np.random.default_rng(4), 10, 6)
        stats = matrix_stats(A, lam=0.5)
        with pytest.raises(ValueError, match="lambda"):
            stats.check_lambda(0.25)


def _spectrum(kind, d):
    """Prescribed singular values, descending, with top value 1."""
    rest = np.linspace(0.9, 0.1, d)
    return {
        "repeated-top": np.r_[1.0, 1.0, 1.0, rest[3:]],
        "cluster-1e-4": np.r_[1.0, 1.0 - 1e-4, rest[2:]],
        "cluster-1e-8": np.r_[1.0, 1.0 - 1e-8, rest[2:]],
        "rank-1": np.r_[1.0, np.zeros(d - 1)],
        "rank-deficient": np.r_[1.0, rest[1:d // 2], np.zeros(d - d // 2)],
        "flat": np.ones(d),
    }[kind]


def _design(arr, storage):
    if storage == "dense":
        return DesignMatrix.from_dense(arr)
    csr = sp.csr_matrix(arr)
    csr.sort_indices()
    return DesignMatrix.from_csr(*arr.shape, csr.indptr, csr.indices, csr.data)


class TestLanczosEstimate:
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("kind", ["repeated-top", "cluster-1e-4", "cluster-1e-8",
                                      "rank-1", "rank-deficient", "flat"])
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_prescribed_spectra(self, kind, storage, seed):
        n, d = 40, 24
        rng = np.random.default_rng(seed)
        U, V = haar_orthonormal(rng, n, d), haar_orthonormal(rng, d, d)
        for c in (1e-3, 1.0, 1e3):
            sigma = c * _spectrum(kind, d)
            A = _design((U * sigma) @ V.T, storage)
            for tol in (1e-3, 1e-5):
                est = spectral_norm_estimate(A, tol=tol, seed=seed)
                # A Ritz value never exceeds sigma_1^2, and the residual stop
                # puts est within tol * sigma_1 of some singular value.
                assert est <= sigma[0] * (1.0 + 1e-12)
                assert np.abs(est - sigma).min() <= tol * sigma[0]
                if kind == "cluster-1e-4" and tol < 1e-4:
                    # A top pair wider than tol but too close to split in the
                    # steps the stop takes: a start leaning far enough toward
                    # the second direction settles on sigma_2.
                    assert est >= sigma[1] * (1.0 - tol)
                else:
                    assert abs(est - sigma[0]) <= tol * sigma[0]

    def test_inflated_estimate_bounds_sigma1_on_ridge_instances(self):
        for seed in range(100):
            arr, A, lam, _, _ = ridge_contract_instance(seed)
            assert matrix_stats(A, lam).sigma1_estimate >= np.linalg.norm(arr, 2)

    def test_gram_products_per_estimate(self, monkeypatch):
        problem = gen_synthetic(120, 80, 20, 0.1, seed=0)
        calls = []
        orig = spectral.gram_apply

        def counted(A, v):
            calls.append(1)
            return orig(A, v)

        monkeypatch.setattr(spectral, "gram_apply", counted)
        matrix_stats(problem.A, problem.lam)
        assert 0 < len(calls) <= 40

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("kind", ["repeated-top", "cluster-1e-4", "cluster-1e-8",
                                      "rank-1", "rank-deficient", "flat"])
    def test_top_ritz_matches_eigh_tridiagonal(self, kind, storage, monkeypatch):
        direct = spectral._top_ritz
        steps = []

        def referee(alphas, betas):
            k = len(alphas) - 1
            ritz, s = eigh_tridiagonal(alphas, betas, select="i", select_range=(k, k))
            expected = (float(ritz[0]), float(s[-1, 0]))
            assert direct(alphas, betas) == expected  # bit-identical at every step
            steps.append(k)
            return expected

        n, d = 40, 24
        for seed in range(3):
            rng = np.random.default_rng(seed)
            U, V = haar_orthonormal(rng, n, d), haar_orthonormal(rng, d, d)
            for c in (1e-3, 1.0, 1e3):
                A = _design((U * (c * _spectrum(kind, d))) @ V.T, storage)
                for tol in (1e-3, 1e-5):
                    est = spectral_norm_estimate(A, tol=tol, seed=seed)
                    with monkeypatch.context() as m:
                        m.setattr(spectral, "_top_ritz", referee)
                        assert spectral_norm_estimate(A, tol=tol, seed=seed) == est
        assert len(steps) >= 18  # every run went through the referee
