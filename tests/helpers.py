"""Shared test utilities: exact norms from the factorization, matrix makers."""

import numpy as np

from ridgeproj import DesignMatrix, SvdFactors


def random_dense(rng, n, d, scale=None):
    """Random Gaussian design matrix, optionally normalized to unit spectral norm."""
    arr = rng.standard_normal((n, d))
    if scale is not None:
        arr *= scale / np.linalg.norm(arr, 2)
    return DesignMatrix.from_dense(arr)


def random_csr(rng, n, d, density=0.3):
    mask = rng.random((n, d)) < density
    arr = np.where(mask, rng.standard_normal((n, d)), 0.0)
    import scipy.sparse as sp

    csr = sp.csr_matrix(arr)
    csr.sort_indices()
    return DesignMatrix.from_csr(n, d, csr.indptr, csr.indices, csr.data), arr


def m_norm(F: SvdFactors, lam, v):
    """Exact ||v||_M for M = A^T A + lam I, from the factorization."""
    coeff = F.V.T @ v
    perp = v - F.V @ coeff
    return float(np.sqrt(
        np.sum((F.singular_values ** 2 + lam) * coeff ** 2) + lam * (perp @ perp)
    ))


def m_inv_norm(F: SvdFactors, lam, y):
    """Exact ||y||_{M^{-1}} for M = A^T A + lam I, from the factorization."""
    coeff = F.V.T @ y
    perp = y - F.V @ coeff
    return float(np.sqrt(
        np.sum(coeff ** 2 / (F.singular_values ** 2 + lam)) + (perp @ perp) / lam
    ))


def m_inverse_apply(F: SvdFactors, lam, y):
    """Exact M^{-1} y from the factorization."""
    coeff = F.V.T @ y
    perp = y - F.V @ coeff
    return F.V @ (coeff / (F.singular_values ** 2 + lam)) + perp / lam


def rotated_symmetric(rng, eigenvalues):
    """Symmetric matrix with the given spectrum and Haar-random eigenvectors."""
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    d = eigenvalues.shape[0]
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diag(r))
    return (q * eigenvalues) @ q.T, q


def spectrum_dense(rng, n, squared):
    """Dense n x d matrix with the given squared singular values (d of them) and Haar factors."""
    squared = np.asarray(squared, dtype=np.float64)
    d = squared.shape[0]
    U, _ = np.linalg.qr(rng.standard_normal((n, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return DesignMatrix.from_dense((U * np.sqrt(squared)) @ V.T)


def kappa_1e3_matrix():
    """40 x 30, lambda = 1: squared singular values from 1e3 down to 2, then below 0.5 (gamma 0.125)."""
    rng = np.random.default_rng(1000)
    squared = np.concatenate([np.geomspace(1e3, 2.0, 6), rng.uniform(0.0, 0.5, 24)])
    return spectrum_dense(rng, 40, squared)
