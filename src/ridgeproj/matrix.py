"""Design-matrix storage and covariance-free matrix-vector products.

A :class:`DesignMatrix` holds the data matrix with rows as samples, either
dense (row-major) or in compressed-sparse-row form.  Everything downstream
touches the matrix through products ``A x`` and ``A^T z``, with one
exception: the d-by-d ridge matrix ``R^T R + lambda I`` is formed only to be
Cholesky-factored, and only for projection on dense inputs with n >= 10 d
(see :mod:`ridgeproj.ridge`).  No singular value or vector is computed.

Gram products ``A^T (A x)`` -- every product inside a ridge solve or a
Lanczos step -- run on the gram factor: for a dense matrix with
more rows than columns that is the d-by-d triangular factor R of
``A = QR``, built once on construction, with ``R^T R = A^T A`` and d^2
instead of n*d entries; otherwise it is the matrix itself.  QR is not PCA:
it computes no singular value or vector.

Dense arrays are stored starting on a 64-byte (cache-line) boundary:
numpy promises only 16 bytes, and a cache-resident factor that starts
mid-line makes every gram product up to 1.5x slower (8.5 vs 5.5 us at
d = 200), depending on where the allocator placed it.  Alignment changes
no result bit.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .exceptions import DimensionMismatch

__all__ = ["DesignMatrix", "gram_apply", "gram_norm"]

_ALIGN = 64


def _aligned_copy(arr):
    """Read-only C-contiguous float64 copy of ``arr`` starting on an ``_ALIGN`` boundary."""
    buf = np.empty(arr.nbytes + _ALIGN, dtype=np.uint8)
    start = -buf.ctypes.data % _ALIGN
    out = buf[start:start + arr.nbytes].view(np.float64).reshape(arr.shape)
    out[...] = arr
    out.setflags(write=False)
    return out


def _as_finite_1d(x, length, what="vector"):
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {x.shape}")
    if x.shape[0] != length:
        raise DimensionMismatch(length, x.shape[0], what=f"{what} length")
    # One-pass check: the self dot product is non-finite iff an entry is,
    # except for benign overflow of huge finite entries, which the slow
    # path then clears.
    if not math.isfinite(float(x @ x)) and not np.all(np.isfinite(x)):
        raise ValueError(f"{what} contains non-finite entries")
    return x


class DesignMatrix:
    """Immutable n-by-d data matrix, dense or CSR.

    Use :meth:`from_dense` / :meth:`from_csr` instead of the constructor.
    All entries are 64-bit reals and must be finite.  Instances are safe
    for concurrent shared reads; no method mutates the stored arrays.
    """

    __slots__ = ("n_rows", "n_cols", "storage", "_dense", "_csr", "_csr_t", "_factor")

    def __init__(self, n_rows, n_cols, storage, dense=None, csr=None, factor=None):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.storage = storage
        self._dense = dense
        self._csr = csr
        self._csr_t = None if csr is None else csr.T.tocsr()
        self._factor = factor

    @classmethod
    def from_dense(cls, values) -> "DesignMatrix":
        """Build a dense matrix from any 2-d array-like of finite reals.

        With more rows than columns, also computes the gram factor R of
        ``A = QR`` (one O(n d^2) factorization); the caller's array is
        never modified.
        """
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix contains non-finite entries")
        n, d = arr.shape
        factor = None
        if n > d:
            # Before the defensive copy, so one n-by-d temporary is alive at a time.
            r = _aligned_copy(np.linalg.qr(arr, mode="r"))
            factor = cls(d, d, "dense", dense=r)
        return cls(n, d, "dense", dense=_aligned_copy(arr), factor=factor)

    @classmethod
    def from_csr(cls, n_rows, n_cols, indptr, indices, data) -> "DesignMatrix":
        """Build a CSR matrix from its offset/index/value triplet.

        Offsets must be monotone non-decreasing with ``indptr[0] == 0`` and
        ``indptr[-1] == len(data)``; column indices must be in range and
        strictly increasing within each row.
        """
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        data = np.ascontiguousarray(data, dtype=np.float64)
        n_rows, n_cols = int(n_rows), int(n_cols)
        if min(n_rows, n_cols) < 0:
            raise ValueError(f"CSR shape must be nonnegative, got {n_rows}x{n_cols}")
        if indptr.ndim != 1 or indptr.shape[0] != n_rows + 1:
            raise ValueError("indptr must have length n_rows + 1")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("CSR row offsets must be monotone non-decreasing")
        if indptr[0] != 0 or indptr[-1] != data.shape[0]:
            raise ValueError("indptr must start at 0 and end at nnz")
        if indices.shape != data.shape:
            raise DimensionMismatch(data.shape[0], indices.shape[0], what="index count")
        if data.size and (indices.min() < 0 or indices.max() >= n_cols):
            raise ValueError("CSR column index out of range")
        if indices.size > 1:
            # A non-increasing step is an error unless it crosses a row start.
            bad = np.diff(indices) <= 0
            starts = indptr[1:-1]
            bad[starts[(starts > 0) & (starts < indices.size)] - 1] = False
            if bad.any():
                i = int(np.searchsorted(indptr, np.argmax(bad) + 1, side="right")) - 1
                raise ValueError(f"CSR column indices not strictly increasing in row {i}")
        if not np.all(np.isfinite(data)):
            raise ValueError("matrix contains non-finite entries")
        csr = sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))
        return cls(n_rows, n_cols, "csr", csr=csr)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        if self.storage == "dense":
            return int(np.count_nonzero(self._dense))
        return int(self._csr.nnz)

    def toarray(self) -> np.ndarray:
        """Dense copy of the stored matrix."""
        if self.storage == "dense":
            return np.array(self._dense)
        return self._csr.toarray()

    def csr_parts(self):
        """Return ``(indptr, indices, data)``; converts if stored dense."""
        csr = self._csr if self.storage == "csr" else sp.csr_matrix(self._dense)
        return csr.indptr.copy(), csr.indices.copy(), csr.data.copy()

    def matvec(self, x) -> np.ndarray:
        """Compute ``A x`` for a length-d vector."""
        x = _as_finite_1d(x, self.n_cols, what="input vector")
        return self._mv(x)

    def rmatvec(self, z) -> np.ndarray:
        """Compute ``A^T z`` for a length-n vector."""
        z = _as_finite_1d(z, self.n_rows, what="input vector")
        return self._rmv(z)

    # Unchecked products for iteration-internal use; inputs are vectors the
    # solvers produced themselves, already validated on entry.
    def _mv(self, x):
        if self.storage == "dense":
            return self._dense.dot(x)
        return self._csr.dot(x)

    def _rmv(self, z):
        if self.storage == "dense":
            return self._dense.T.dot(z)
        return self._csr_t.dot(z)

    @property
    def _gram(self) -> "DesignMatrix":
        """The smallest stored matrix G with ``G^T G = A^T A``: R if built, else A."""
        return self if self._factor is None else self._factor

    def __repr__(self):
        return f"<DesignMatrix {self.n_rows}x{self.n_cols} {self.storage}>"


def gram_apply(A: DesignMatrix, x) -> np.ndarray:
    """Apply the covariance operator: return ``A^T (A x)``.

    The product is computed as two matrix-vector products with the gram
    factor (``R^T (R x)`` for a tall dense matrix, ``A^T (A x)`` otherwise);
    ``A^T A`` is never materialized, and the factor carries no spectral
    information.
    """
    x = _as_finite_1d(x, A.n_cols, what="input vector")
    G = A._gram
    return G._rmv(G._mv(x))


def gram_norm(A: DesignMatrix, x) -> float:
    """Norm induced by the covariance operator: ``sqrt(x^T A^T A x) = ||A x||_2``."""
    return float(np.linalg.norm(A.matvec(x)))
