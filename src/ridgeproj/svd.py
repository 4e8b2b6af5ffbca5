"""Desk-scale SVD oracle and the exact projection / regression solutions.

The factorization here exists to *check* the iterative algorithms, and to
build synthetic data with a prescribed spectrum.  It is LAPACK's SVD through
``numpy.linalg.svd``, limited to a couple thousand rows or columns.  Nothing
in the iterative pipeline depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch
from .matrix import DesignMatrix
from .spectral import _check_lam

__all__ = ["SvdFactors", "svd_small", "exact_projection", "exact_pcr", "RANK_CUTOFF"]

# Singular values below RANK_CUTOFF * sigma_1 are treated as exact zeros.
RANK_CUTOFF = 1e-12

_ORACLE_MAX_DIM = 2000


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``A = U diag(s) V^T`` with strictly positive, descending ``s``.

    ``U`` is n-by-r and ``V`` is d-by-r, both with orthonormal columns.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray

    @property
    def rank(self) -> int:
        return self.singular_values.shape[0]

    def top_index(self, lam: float) -> int:
        """Number of singular values whose square is at least ``lam``."""
        if lam <= 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        return int(np.sum(self.singular_values ** 2 >= lam))

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.singular_values) @ self.V.T


def svd_small(A: DesignMatrix) -> SvdFactors:
    """Exact thin SVD of a desk-scale matrix via LAPACK (``numpy.linalg.svd``).

    Requires ``min(n, d) <= 2000`` and a nonzero matrix.  Singular values
    at or below ``RANK_CUTOFF * sigma_1`` are dropped, so the returned rank
    is the numerical rank under that cutoff.  Signs are fixed so that the
    largest-magnitude entry of each column of V is positive.
    """
    if min(A.n_rows, A.n_cols) > _ORACLE_MAX_DIM:
        raise ValueError(f"SVD oracle is limited to min(n, d) <= {_ORACLE_MAX_DIM}")
    U, sig, Vt = np.linalg.svd(A.toarray(), full_matrices=False)
    if sig[0] == 0.0:
        raise ValueError("rank zero: cannot factor the zero matrix")
    r = int(np.sum(sig > RANK_CUTOFF * sig[0]))
    V = Vt[:r].T
    signs = np.sign(V[np.argmax(np.abs(V), axis=0), np.arange(r)])
    U = U[:, :r] * signs
    V = V * signs
    sig = sig[:r].copy()
    for arr in (U, sig, V):
        arr.setflags(write=False)
    return SvdFactors(U=U, singular_values=sig, V=V)


def _check_lambda_vec(lam, vec, length, what):
    _check_lam(lam)
    vec = np.ascontiguousarray(vec, dtype=np.float64)
    if vec.shape != (length,):
        raise DimensionMismatch(length, vec.shape[0] if vec.ndim == 1 else vec.shape, what=what)
    return vec


def exact_projection(F: SvdFactors, lam: float, y) -> np.ndarray:
    """Project ``y`` onto the span of principal components with squared value >= lam.

    Returns ``V_k V_k^T y`` where k counts singular values with
    ``sigma_k^2 >= lam``; the zero vector if none qualify.
    """
    y = _check_lambda_vec(lam, y, F.V.shape[0], "vector length")
    k = F.top_index(lam)
    if k == 0:
        return np.zeros_like(y)
    Vk = F.V[:, :k]
    return Vk @ (Vk.T @ y)


def exact_pcr(F: SvdFactors, lam: float, b) -> np.ndarray:
    """Exact principal component regression solution ``V_k S_k^{-1} U_k^T b``."""
    b = _check_lambda_vec(lam, b, F.U.shape[0], "vector length")
    k = F.top_index(lam)
    if k == 0:
        return np.zeros(F.V.shape[0])
    Uk = F.U[:, :k]
    return F.V[:, :k] @ ((Uk.T @ b) / F.singular_values[:k])
