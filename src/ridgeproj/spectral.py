"""Spectral-norm estimation and per-matrix statistics.

The iterative algorithms need sigma_1(A) only to size tolerances via the
regularized condition number kappa_lambda = sigma_1^2 / lambda.  A seeded
Lanczos run on ``A^T A`` supplies the estimate; callers compute stats
once per matrix and pass them around, never inside the hot loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dscal
from scipy.linalg.lapack import dstebz, dstein

from ._float64 import _exponent
from .exceptions import ConvergenceFailure
from .matrix import DesignMatrix, _check_int, gram_apply

__all__ = ["MatrixStats", "spectral_norm_estimate", "matrix_stats"]

_STATS_TOL = 1e-3  # matrix_stats' Lanczos tolerance, and its inflation


def _check_lam(lam):
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")


@dataclass(frozen=True)
class MatrixStats:
    """Per-matrix quantities consumed by the solvers, and the threshold ``lam``.

    ``sigma1_estimate`` is deliberately inflated by the estimation tolerance
    so it upper-bounds the true spectral norm; a slight overestimate only
    tightens derived tolerances.  ``lam`` must be positive and finite, and
    ``kappa_lambda`` finite.
    """

    sigma1_estimate: float
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.sigma1_estimate < math.inf:
            raise ValueError("sigma1_estimate must be finite and nonnegative")
        _check_lam(self.lam)
        if not self.kappa_lambda < math.inf:
            raise ValueError(f"kappa_lambda = sigma1^2 / lambda overflows at lambda = {self.lam}")

    @property
    def kappa_lambda(self) -> float:
        """``sigma1_estimate**2 / lam``, derived rather than stored.

        Squared by a product, not ``** 2``: the C library's ``pow`` can miss
        the correctly rounded square by an ulp, and then A -> cA, lam ->
        c^2 lam with c a power of two would change kappa_lambda's last bit.
        """
        return self.sigma1_estimate * self.sigma1_estimate / self.lam

    def check_lambda(self, lam: float):
        if self.lam != lam:
            raise ValueError(
                f"MatrixStats built for lambda={self.lam}, used with lambda={lam};"
                " recompute stats with matrix_stats(A, lam)"
            )


def _top_ritz(alphas, betas):
    """Top eigenvalue of the tridiagonal T_k, and the last entry of its eigenvector.

    Calls the routines ``scipy.linalg.eigh_tridiagonal(select="i")`` runs,
    LAPACK's bisection ``dstebz`` and inverse iteration ``dstein``, without
    its argument handling: the same bits at about a third of the time per
    step (18 vs 51 us on a 25 x 25 T_k, 2-vCPU Xeon) and half the transient
    memory.
    """
    k = len(alphas)
    if k == 1:
        return alphas[0], 1.0
    m, w, iblock, isplit, info = dstebz(alphas, betas, 2, 0.0, 1.0, k, k, 0.0, "B")
    if info == 0:
        z, info = dstein(alphas, betas, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK tridiagonal eigensolver failed (info={info})")
    return float(w[0]), float(z[-1, 0])


def spectral_norm_estimate(A: DesignMatrix, tol: float = 1e-3, max_iters: int = 10_000,
                           seed: int = 0) -> float:
    """Estimate sigma_1(A) by a seeded Lanczos run on ``A^T A``.

    Deterministic for a fixed seed; keeps only the last two Lanczos vectors.
    Each step makes one gram product and extends the tridiagonal T_k, whose
    top Ritz pair ``(theta, s)`` comes from LAPACK's ``dstebz`` and
    ``dstein`` called directly (see :func:`_top_ritz`); the run stops once
    that pair has residual
    ``beta_k |e_k^T s| <= tol * theta / 2`` (a zero ``beta_k`` is an exact
    invariant subspace) and returns ``sqrt(theta)``.

    Scaling.  Every product is scaled by ``4^-h``, the even power of two
    that brings the first one's largest entry near 1, and the estimate is
    ``2^h sqrt(theta)``.  That is exact in float64, so no squared entry of
    a product over- or underflows, and for ``c = 2^k`` the run on ``c A``
    makes the same steps as the run on A and returns exactly c times its
    estimate, while ``A^T A`` times a unit vector stays in the normal range
    (a unit-scale 40 x 12 Gaussian A is exact for ``-510 <= k <= 500``).

    Guarantee.  The residual bounds the distance from theta to the nearest
    eigenvalue of ``A^T A``, and a Ritz value never exceeds sigma_1^2 (up
    to rounding), so when that eigenvalue is sigma_1^2 the estimate lies in
    ``[(1 - tol/4) sigma_1, sigma_1]``.  The stop cannot see a top
    direction the start missed.  For a start uniform on the sphere, as the
    normalized Gaussian is, the top Ritz value after k steps lies below
    ``(1 - e) sigma_1^2`` with probability at most ``1.648 sqrt(d)
    exp(-sqrt(e) (2k - 1))`` for any spectrum (Kuczynski & Wozniakowski,
    SIAM J. Matrix Anal. Appl., 1992); the estimate misses sigma_1 by more
    than ``tol * sigma_1`` only in that event with ``e = tol (2 - tol)``.
    The bound is loose at the few dozen steps the stop takes; a top pair
    wider than ``tol`` but too close to split in those steps can still
    settle the run on the lower value: at singular values 1 and 1 - 1e-4
    and ``tol = 1e-5``, 1 to 2 starts in 100 do.  At ``tol = 1e-3`` a top
    pair 1, 1 - gap, with gap from 1e-3 to 1e-2, left :func:`matrix_stats`'
    inflated estimate below sigma_1 for 3 to 19 of 300 Haar-factored
    matrices, by at most 0.9% (counts there).

    Raises ``ValueError`` for ``tol`` outside (0, 1), a ``max_iters`` below
    1, a zero matrix (a zero-width one included), a nonzero one whose gram
    products underflow to zero (every entry below about 1e-162) or one
    whose gram products overflow (entries near 1e153 and above), and
    :class:`ConvergenceFailure` with the last Ritz value after ``max_iters`` steps.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    _check_int(max_iters, "max_iters")
    if not A.n_cols:  # BLAS refuses empty vectors
        raise ValueError("matrix is zero: it has no columns")
    v = np.random.default_rng(seed).standard_normal(A.n_cols)
    v /= np.linalg.norm(v)
    v_prev = np.zeros_like(v)
    alphas, betas = [], []
    beta = 0.0
    theta = None
    # An overflowing product turns w, and so beta, non-finite; that is
    # reported below, in place of numpy's warnings on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iters):
            w = gram_apply(A, v)
            if k == 0:  # 4^half lies near this product's largest entry; 4^-half is finite
                half = max(_exponent(w), -1022) // 2
                scale = math.ldexp(1.0, -2 * half)
            w = dscal(scale, w)
            alpha = float(v @ w)
            w -= alpha * v
            w -= beta * v_prev
            alphas.append(alpha)
            beta = float(np.linalg.norm(w))
            if not math.isfinite(beta):
                raise ValueError("gram products of the matrix overflow float64; rescale A")
            theta, s_last = _top_ritz(alphas, betas)
            if theta == 0.0:
                if A.csr_parts()[2].any():  # a nonzero entry, looked for on this path only
                    raise ValueError("gram products of a nonzero matrix underflow float64;"
                                     " rescale A")
                raise ValueError("matrix is zero on the iteration subspace")
            if beta * abs(s_last) <= 0.5 * tol * theta:
                return math.ldexp(math.sqrt(theta), half)
            betas.append(beta)
            v_prev, v = v, w / beta
    theta = math.ldexp(theta, 2 * half)
    raise ConvergenceFailure(f"Lanczos run did not converge within {max_iters} steps"
                             f" (last Ritz value {theta})", diagnostic=theta)


def matrix_stats(A: DesignMatrix, lam: float) -> MatrixStats:
    """Compute :class:`MatrixStats` for ``A`` at threshold ``lam``.

    Runs :func:`spectral_norm_estimate` at ``tol = _STATS_TOL`` with its
    default seed and step cap, and inflates the estimate by ``1 + tol`` so
    that ``sigma1_estimate >= sigma_1`` whenever the run reached sigma_1.

    A run that settles on sigma_2 stays covered only while ``sigma_2 (1 +
    tol) >= sigma_1``.  Over 300 Haar n x d factors with singular values 1,
    1 - gap, then 0.9 down to 0.1, at lam = 0.5, ``sigma1_estimate <
    sigma_1`` held for no seed at gap 1e-4; for 9, 19, 8 and 3 seeds at
    gaps 1e-3, 2e-3, 5e-3 and 1e-2 on 30 x 20, and 5, 14, 4 and 1 on 70 x
    60.  The worst ratio to sigma_1 was 0.991, at gap 1e-2: ``sigma_2 (1 +
    tol)``, which puts kappa_lambda, and all that is sized from it, 1.8%
    low.
    """
    sigma1 = spectral_norm_estimate(A, tol=_STATS_TOL)
    return MatrixStats(sigma1_estimate=sigma1 * (1.0 + _STATS_TOL), lam=lam)
