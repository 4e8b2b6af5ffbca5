"""Black-box ridge regression: solve ``(A^T A + lambda I) x = y``.

Two solvers, picked by the shape of A.  :func:`_solver` resolves the
residual target and CG budget once per matrix, :class:`MatrixStats` (which
hold lambda) and tolerance; :func:`ridge_solve` calls it on one right-hand
side.  :func:`_gram_solver` applies ``B = M^{-1} A^T A`` for every
projection step: on a dense A with at least ``10 d`` rows it factors the
ridge matrix once per call and makes two triangular solves per
application; on every other A, and if that factorization fails, it runs
:func:`_solver` on ``A^T A v``.  The 10 is a memory rule: the d-by-d
factor then adds at most a tenth to the bytes A already holds.

Conjugate gradient runs on the regularized gram operator, which is never
materialized: each CG step makes one gram product on the gram factor of A
(its d-by-d QR factor R when A is tall and dense, else A itself; see
:mod:`ridgeproj.matrix`) and seven BLAS level-1 calls from
:mod:`scipy.linalg.blas` (see :func:`_cg`), which on small d cost a
fraction of the equivalent numpy expressions.  Results are bit-identical
from run to run on one machine and BLAS build; another BLAS build may
round the fused updates differently in the last bits.  CG is
deterministic: within ``10 * ceil(sqrt(kappa_lambda + 1) * ln(2/eps))``
iterations it either meets its stopping rule or raises.

The factored solver forms ``M = R^T R + lambda I`` (``dsyrk``) only to
hand it to LAPACK's Cholesky factorization ``M = T^T T`` (``dpotrf``); it
computes no singular value or vector.  Each application still makes its
gram product ``R^T (R v)`` through the factor's ``_mv``/``_rmv``, then
returns ``T^{-1} T^{-T}`` of it (two ``dtrsv`` calls).  A Cholesky solve is
backward stable: its error is of order ``d * eps_machine * (kappa_lambda +
1) * ||v||_2``, so like the CG residual floor below it limits accuracy only
for tolerances near ``eps_machine * kappa_lambda``.

Error contract.  The returned ``x`` satisfies

    || x - x* ||_M  <=  eps * || y ||_{M^{-1}},    M = A^T A + lambda I,

certified through the stopping rule  ||r||_2 <= eps * ||y||_2 *
sqrt(lambda / (sigma1^2 + lambda)),  which is conservative on both sides:
``||x - x*||_M = ||r||_{M^{-1}} <= ||r||_2 / sqrt(lambda)`` and
``||y||_{M^{-1}} >= ||y||_2 / sqrt(sigma1^2 + lambda)``.

Floating-point floor.  Residual targets below roughly
``64 * eps_machine * (kappa_lambda + 1) * ||y||_2`` are unreachable in
64-bit arithmetic; the solver clamps the target there and documents that
requested tolerances beyond the floor are met only up to the floor.

Query-level floor.  The projection iteration needs each gram solve to be
accurate only on the scale of the vector being projected, not of the
shrinking right-hand side it is applied to.  :func:`_gram_solver` therefore
accepts the query norm ``||y||_2`` and never targets a residual below
``lambda * eps_machine * ||y||_2``; since ``||x - B v||_2 <= ||r||_2 /
lambda``, that costs at most ``eps_machine * ||y||_2`` per application.
Both solvers return +0.0 zeros for a right-hand side ``A^T A v`` whose norm
is at most 0.9 times that floor, where CG would stop before its first step.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import daxpy, ddot, dscal, dsyrk, dtrsv
from scipy.linalg.lapack import dpotrf

from ._float64 import _EPS
from .exceptions import ConvergenceFailure
from .matrix import DesignMatrix, _as_finite_1d
from .spectral import MatrixStats

__all__ = ["ridge_solve", "RESIDUAL_FLOOR_MULT"]

# Multiplier on eps_machine * (kappa_lambda + 1) below which residual
# targets are clamped; about 64x the attainable CG residual.
RESIDUAL_FLOOR_MULT = 64.0

# Dense matrices with at least this many rows per column get the factored
# projection solver; its d-by-d factor is then at most a tenth of A's bytes.
_FACTOR_ROWS_PER_COL = 10


def _cg(A: DesignMatrix, lam, y, resid_target, max_iters):
    """CG iterations from x0 = 0; returns (x, final residual norm, iters).

    Stops at 0.9 * resid_target on the recursively updated residual so the
    true residual at the accepted iterate stays below the target.

    One step is one gram product ``rmv(mv(p))`` through the gram factor's
    ``_mv``/``_rmv`` plus seven BLAS level-1 calls on length-d vectors: two
    ``ddot`` (``p.Mp`` and ``r.r``), three ``daxpy`` (``Mp += lam p``,
    ``x += alpha p``, ``r -= alpha Mp``) and a ``dscal`` + ``daxpy`` pair
    for ``p = r + beta p``.  The updates run in place on the solver's own
    fresh arrays (``x``, ``r``, ``p`` and the product's output), never on
    ``y``.  Each wrapper's return value is bound, since f2py hands back a
    copy instead when an argument is not a writable contiguous float64
    array.
    """
    x = np.zeros(A.n_cols)
    r = y.copy()
    p = y.copy()
    rs = ddot(r, r)
    target = 0.9 * resid_target
    target2 = target * target
    it = 0
    G = A._gram
    mv, rmv = G._mv, G._rmv
    while rs > target2:
        if it >= max_iters:
            raise ConvergenceFailure(
                f"conjugate gradient exhausted {max_iters} iterations;"
                f" residual {math.sqrt(rs):.3e} vs target {resid_target:.3e}",
                diagnostic=math.sqrt(rs),
            )
        Mp = daxpy(p, rmv(mv(p)), a=lam)
        denom = ddot(p, Mp)
        if denom <= 0.0:
            raise ConvergenceFailure(
                "conjugate gradient breakdown: non-positive curvature",
                diagnostic=math.sqrt(rs),
            )
        alpha = rs / denom
        x = daxpy(p, x, a=alpha)
        r = daxpy(Mp, r, a=-alpha)
        rs_new = ddot(r, r)
        p = daxpy(r, dscal(rs_new / rs, p))
        rs = rs_new
        it += 1
    return x, math.sqrt(rs), it


def _solver(A: DesignMatrix, stats: MatrixStats, eps: float, abs_floor: float = 0.0):
    """``solve(rhs)`` for ``(A^T A + stats.lam I) x = rhs``, target and budget resolved once.

    The residual target is ``eps * sqrt(lambda / (sigma1^2 + lambda)) *
    ||rhs||_2``, raised to the float64 floor and to ``abs_floor``.
    ``solve`` takes a finite length-d ``rhs``; a zero one gives zeros.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    lam, kappa = stats.lam, stats.kappa_lambda
    sigma1 = stats.sigma1_estimate
    scale = math.sqrt(lam / (sigma1 * sigma1 + lam))  # a product, as in kappa_lambda
    rel_target = max(eps * scale, RESIDUAL_FLOOR_MULT * _EPS * (kappa + 1.0))
    max_iters = 10 * math.ceil(math.sqrt(kappa + 1.0) * math.log(2.0 / eps))
    d = A.n_cols

    def solve(rhs):
        ny = math.sqrt(float(rhs @ rhs))
        if ny == 0.0:
            return np.zeros(d)
        x, _, _ = _cg(A, lam, rhs, max(rel_target * ny, abs_floor), max_iters)
        return x

    return solve


def ridge_solve(A: DesignMatrix, eps: float, y, stats: MatrixStats) -> np.ndarray:
    """Solve ``(A^T A + stats.lam I) x = y`` to the relative-energy contract.

    Returns ``x`` with ``||x - x*||_M <= eps * ||y||_{M^{-1}}`` (up to the
    documented float64 floor).  Raises :class:`ConvergenceFailure` carrying
    the final residual norm if the iteration budget runs out first.
    """
    solve = _solver(A, stats, eps)
    return solve(_as_finite_1d(y, A.n_cols, what="right-hand side"))


def _ridge_factor(R, lam):
    """Upper triangular T with ``T^T T = R^T R + lam I``, or None if ``dpotrf`` fails."""
    M = dsyrk(1.0, R.T)  # upper triangle of R^T R, Fortran order
    M.flat[::R.shape[1] + 1] += lam
    T, info = dpotrf(M, overwrite_a=1)
    return T if info == 0 else None


def _gram_solver(A: DesignMatrix, stats: MatrixStats, eps: float, query_norm: float):
    """Apply ``B = (A^T A + lambda I)^{-1} A^T A``, one gram product and one solve per vector.

    ``query_norm`` (``||y||_2`` of the vector the engine transforms) sets the
    query-level floor ``lambda * eps_machine * query_norm``: an application
    errs from ``B v`` by at most ``(sigma1 / sqrt(lambda)) * eps * ||v||_2 +
    eps_machine * query_norm``, and is exactly zero once ``A^T A v`` is
    below the floor.  The solve is two triangular solves with the Cholesky
    factor of the ridge matrix, built here, when A is dense with
    ``n_rows >= 10 * n_cols`` and the factorization succeeds; otherwise it
    is one :func:`_solver` call, and ``query_norm = 0`` then gives
    ``ridge_solve(A, eps, A^T A v, stats)``.
    """
    floor = stats.lam * _EPS * query_norm
    solve = _solver(A, stats, eps, abs_floor=floor)
    G = A._gram
    mv, rmv = G._mv, G._rmv
    T = None
    if A.storage == "dense" and 0 < _FACTOR_ROWS_PER_COL * A.n_cols <= A.n_rows:
        T = _ridge_factor(G._dense, stats.lam)
    if T is None:
        return lambda v: solve(rmv(mv(v)))
    stop = 0.9 * floor
    stop2 = stop * stop  # CG's first stopping test, on ||A^T A v||^2
    d = A.n_cols

    def apply(v):
        rhs = rmv(mv(v))
        if ddot(rhs, rhs) <= stop2:
            return np.zeros(d)
        return dtrsv(T, dtrsv(T, rhs, trans=1, overwrite_x=1), overwrite_x=1)

    return apply
