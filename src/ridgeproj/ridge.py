"""Black-box ridge regression: solve ``(A^T A + lambda I) x = y``.

One routine, :func:`_solver`, stands behind every ridge application: once
per matrix, :class:`MatrixStats` (which hold lambda) and tolerance it
resolves the relative residual target and CG budget, and returns
``solve``.  :func:`ridge_solve` calls it on one right-hand side;
:func:`_gram_solver` returns the handle that applies ``B = M^{-1} A^T A =
I - lambda M^{-1}`` as ``v - lambda x``, x the ``solve`` of v itself, for
every projection step: one ridge solve and no gram product of its own per
application.  ``solve`` runs conjugate gradient, except in that handle on
a dense A with at least ``10 d`` rows: there it makes two triangular
solves with a factor of the ridge matrix built once per call, or runs CG
if the factorization fails.  The 10 is a memory rule: the d-by-d factor
then adds at most a tenth to the bytes A already holds.

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
computes no singular value or vector.  Each application returns ``v -
lambda T^{-1} T^{-T} v`` (two ``dtrsv`` calls) and makes no product with A
or R.  A Cholesky solve is backward stable: ``lambda`` times its error is
of order ``d * eps_machine * (kappa_lambda + 1) * ||v||_2``, so like the
CG residual floor below it limits accuracy only for tolerances near
``eps_machine * kappa_lambda``.

Error contract and floors.  The returned ``x`` satisfies

    || x - x* ||_M  <=  eps * || y ||_{M^{-1}},    M = A^T A + lambda I,

certified through the stopping rule ``||r||_2 <= rel_target ||y||_2``,
``rel_target = eps sqrt(lambda / (sigma1^2 + lambda))``, which is
conservative on both sides: ``||x - x*||_M = ||r||_{M^{-1}} <= ||r||_2 /
sqrt(lambda)`` and ``||y||_{M^{-1}} >= ||y||_2 / sqrt(sigma1^2 + lambda)``.
Residual targets below ``64 eps_machine (kappa_lambda + 1) ||y||_2`` are
unreachable in float64, so rel_target is raised to that floor, and
tolerances beyond it are met only up to it.  The projection handle errs
by at most ``lambda ||x_hat - x||_2 <= ||r||_2``, so its CG stops at the
residual ``err_bound ||v||_2``, ``err_bound = kappa_lambda rel_target``
(floored at ``64 eps_machine (kappa_lambda + 1)`` for kappa_lambda below
1), and never below the query floor ``eps_machine ||y||_2``, y the
projected vector, which costs at most ``eps_machine ||y||_2`` per
application.  Both back ends share one zero rule: a v of norm at most 0.9
times that floor gives +0.0 zeros.  Both are derived at
:func:`_gram_solver`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import daxpy, ddot, dscal, dsyrk, dtrsv
from scipy.linalg.lapack import dpotrf

from ._float64 import _EPS, _exponent
from .exceptions import ConvergenceFailure
from .matrix import DesignMatrix, _as_finite_1d
from .spectral import MatrixStats
from .stepfn import OperatorHandle

__all__ = ["ridge_solve"]

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


def _ridge_factor(R, lam):
    """Upper triangular T with ``T^T T = R^T R + lam I``, or None if ``dpotrf`` fails."""
    M = dsyrk(1.0, R.T)  # upper triangle of R^T R, Fortran order
    M.flat[::R.shape[1] + 1] += lam
    T, info = dpotrf(M, overwrite_a=1)
    return T if info == 0 else None


def _solver(A: DesignMatrix, stats: MatrixStats, eps: float, factor=None):
    """``(solve, rel_target)`` for ``(A^T A + stats.lam I) x = rhs``, budget resolved once.

    ``rel_target`` is the relative residual target of eps, floor included.
    ``solve(rhs, target)`` takes a finite length-d ``rhs`` and runs
    :func:`_cg` to the residual ``target``, which gives +0.0 zeros for a
    zero ``rhs``; or, given ``factor`` (a d-by-d R with ``R^T R = A^T
    A``), it ignores ``target`` and returns two triangular solves of a
    copy of ``rhs`` by the Cholesky factor of ``R^T R + lambda I``, built
    here after eps is checked (CG if it fails).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    lam, kappa = stats.lam, stats.kappa_lambda
    sigma1 = stats.sigma1_estimate
    scale = math.sqrt(lam / (sigma1 * sigma1 + lam))  # a product, as in kappa_lambda
    rel_target = max(eps * scale, RESIDUAL_FLOOR_MULT * _EPS * (kappa + 1.0))
    max_iters = 10 * math.ceil(math.sqrt(kappa + 1.0) * math.log(2.0 / eps))
    T = None if factor is None else _ridge_factor(factor, lam)

    def solve(rhs, target):
        if T is not None:
            return dtrsv(T, dtrsv(T, rhs, trans=1), overwrite_x=1)
        return _cg(A, lam, rhs, target, max_iters)[0]

    return solve, rel_target


def ridge_solve(A: DesignMatrix, eps: float, y, stats: MatrixStats) -> np.ndarray:
    """Solve ``(A^T A + stats.lam I) x = y`` to the relative-energy contract.

    Returns ``x`` with ``||x - x*||_M <= eps * ||y||_{M^{-1}}`` (up to the
    documented float64 floor), by CG through :func:`_solver` on y scaled by
    the power of two that puts its largest entry in [1/2, 1); x is scaled
    back.  That is exact, and no squared norm of y over- or underflows.
    Raises :class:`ConvergenceFailure` carrying the final residual norm if
    the iteration budget runs out first.
    """
    solve, rel_target = _solver(A, stats, eps)
    y = _as_finite_1d(y, A.n_cols, what="right-hand side")
    e = _exponent(y)
    y = np.ldexp(y, -e)
    return np.ldexp(solve(y, rel_target * math.sqrt(ddot(y, y))), e)


def _gram_solver(A: DesignMatrix, stats: MatrixStats, eps: float,
                 query_norm: float) -> OperatorHandle:
    """The handle of ``B = (A^T A + lambda I)^{-1} A^T A``, as ``v - lambda x`` with ``M x = v``.

    ``B = I - lambda M^{-1}``, ``M = A^T A + lambda I``: one application is
    one ridge solve on v itself, with no gram product of its own.
    :func:`_solver` gives ``solve`` and ``rel_target`` for eps, and gets the
    gram factor when A is dense with ``n_rows >= 10 * n_cols``.  The handle
    states ``err_bound = max(kappa_lambda rel_target, 64 eps_machine
    (kappa_lambda + 1))``.  Wherever ``kappa_lambda >= 1`` that is
    ``kappa_lambda rel_target``: ``64 eps_machine (kappa_lambda + 1)
    kappa_lambda`` where the float64 floor binds, ``eps kappa_lambda /
    sqrt(kappa_lambda + 1) <= sqrt(kappa_lambda) eps`` where eps binds.
    Below 1 (lambda above sigma1^2) the small ``B v`` is what is left of
    ``v - lambda x`` after cancellation, so it is known only to a few
    eps_machine ``||v||_2``, and the residual floor is the floor of the bound.

    An application errs by at most ``err_bound ||v||_2 + eps_machine
    query_norm``, query_norm ``||y||_2`` of the vector the engine
    transforms.  The one zero rule: ``||v||_2 <= 0.9 eps_machine
    query_norm`` gives +0.0 zeros, which err by ``||B v||_2 <= ||v||_2``.
    Otherwise CG stops at a residual r of at most ``max(err_bound ||v||_2,
    eps_machine query_norm)``, and ``lambda ||x_hat - x||_2 = lambda
    ||M^{-1} r||_2 <= ||r||_2``; the rounding of ``v - lambda x_hat`` adds at
    most ``2 eps_machine ||v||_2``, which CG's 0.9 stopping margin absorbs
    because err_bound is at least 64 eps_machine.  The Cholesky solve errs
    as the module docstring states.
    """
    d = A.n_cols
    lam, kappa = stats.lam, stats.kappa_lambda
    factored = A.storage == "dense" and 0 < _FACTOR_ROWS_PER_COL * d <= A.n_rows
    solve, rel_target = _solver(A, stats, eps, A._gram._m if factored else None)
    err = max(kappa * rel_target, RESIDUAL_FLOOR_MULT * _EPS * (kappa + 1.0))
    floor = _EPS * query_norm
    stop = 0.9 * floor
    stop2 = stop * stop

    def apply(v):
        rs = ddot(v, v)
        if rs <= stop2:
            return np.zeros(d)
        return v - lam * solve(v, max(err * math.sqrt(rs), floor))

    return OperatorHandle(dimension=d, apply=apply, err_bound=err)
