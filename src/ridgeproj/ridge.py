"""Black-box ridge regression: solve ``(A^T A + lambda I) x = y``.

Plain conjugate gradient on the regularized gram operator.  The operator is
never materialized: each CG step costs two matrix-vector products with the
gram factor of A (its d-by-d QR factor R when A is tall and dense, else A
itself; see :mod:`ridgeproj.matrix`) plus seven BLAS level-1 calls on
length-d vectors (``ddot``, and in-place ``daxpy`` and ``dscal``, from
:mod:`scipy.linalg.blas`).  On small d these cost a fraction of the
equivalent numpy expressions, whose per-call overhead dominates there.
Results are bit-identical from run to run on one machine and BLAS build;
another BLAS build may round the fused updates differently in the last
bits.  CG is deterministic: the solver either meets its stopping rule or
raises.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy, ddot, dscal

from ._float64 import _EPS
from .exceptions import ConvergenceFailure
from .matrix import DesignMatrix, _as_finite_1d
from .spectral import MatrixStats

__all__ = ["RidgeParams", "ridge_solve", "RESIDUAL_FLOOR_MULT"]

# Multiplier on eps_machine * (kappa_lambda + 1) below which residual
# targets are clamped; about 64x the attainable CG residual.
RESIDUAL_FLOOR_MULT = 64.0


@dataclass(frozen=True)
class RidgeParams:
    """Tolerances for one family of ridge solves.

    The CG iteration budget is always the standard bound
    ``10 * ceil(sqrt(kappa_lambda + 1) * ln(2/eps))``.
    """

    lam: float
    eps: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")


def _default_max_iters(kappa: float, eps: float) -> int:
    return 10 * math.ceil(math.sqrt(kappa + 1.0) * math.log(2.0 / eps))


def _resolve(params: RidgeParams, stats: MatrixStats):
    """Relative residual target (floor included) and iteration budget."""
    stats.check_lambda(params.lam)
    kappa = stats.kappa_lambda
    scale = math.sqrt(params.lam / (stats.sigma1_estimate ** 2 + params.lam))
    floor = RESIDUAL_FLOOR_MULT * _EPS * (kappa + 1.0)
    return max(params.eps * scale, floor), _default_max_iters(kappa, params.eps)


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


def ridge_solve(A: DesignMatrix, params: RidgeParams, y, stats: MatrixStats) -> np.ndarray:
    """Solve ``(A^T A + lambda I) x = y`` to the relative-energy contract.

    Returns ``x`` with ``||x - x*||_M <= eps * ||y||_{M^{-1}}`` (up to the
    documented float64 floor).  Raises :class:`ConvergenceFailure` carrying
    the final residual norm if the iteration budget runs out first.
    """
    rel_target, max_iters = _resolve(params, stats)
    y = _as_finite_1d(y, A.n_cols, what="right-hand side")
    ny = float(np.linalg.norm(y))
    if ny == 0.0:
        return np.zeros(A.n_cols)
    x, _, _ = _cg(A, params.lam, y, rel_target * ny, max_iters)
    return x


def _gram_solver(A: DesignMatrix, params: RidgeParams, stats: MatrixStats,
                 query_norm: float):
    """Apply ``B = (A^T A + lambda I)^{-1} A^T A`` with a pre-resolved ridge solve.

    Hoists tolerance resolution and input validation out of the per-call
    path; the returned callable assumes its argument is a finite length-d
    vector produced by the surrounding iteration.  With ``query_norm = 0``
    the semantics are those of ``ridge_solve(A, params, gram_apply(A, v),
    stats)``.  A positive ``query_norm`` (``||y||_2`` of the vector the
    engine is transforming) adds the absolute residual floor
    ``lambda * eps_machine * query_norm``, so each application deviates
    from ``B v`` by at most ``(sigma1 / sqrt(lambda)) * eps * ||v||_2 +
    eps_machine * query_norm``.  Once ``A^T A v`` falls below that floor,
    CG runs no iteration and the result is an exact zero vector.
    """
    rel_target, max_iters = _resolve(params, stats)
    lam = params.lam
    abs_target = lam * _EPS * query_norm
    G = A._gram
    mv, rmv = G._mv, G._rmv
    d = A.n_cols

    def apply(v):
        rhs = rmv(mv(v))
        ny = math.sqrt(float(rhs @ rhs))
        if ny == 0.0:
            return np.zeros(d)
        x, _, _ = _cg(A, lam, rhs, max(rel_target * ny, abs_target), max_iters)
        return x

    return apply
