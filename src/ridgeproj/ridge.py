"""Black-box ridge regression: solve ``(A^T A + lambda I) x = y``.

One function, :func:`_cg_budget`, turns :class:`MatrixStats` (which hold
lambda) and a tolerance into CG's relative residual target and iteration
budget; each entry runs its own back end on them.  :func:`ridge_solve`
runs conjugate gradient on one right-hand side.  :func:`_gram_solver`
returns the handle that applies ``B = M^{-1} A^T A = I - lambda M^{-1}``
as ``v - lambda x``, x the ridge solve of v itself, for every projection
step: one ridge solve and no gram product of its own per application.
The handle runs CG too, except on a dense A with at least ``10 d`` rows:
there it makes two triangular solves with the Cholesky factor of the
ridge matrix that :meth:`~ridgeproj.matrix.DesignMatrix._ridge_factor`
builds once per handle under its memory rule, or runs CG if that fails.

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
or R.  A Cholesky solve is backward stable, and the standard bound puts
``lambda`` times its error at order ``d * eps_machine * (kappa_lambda + 1)
* ||v||_2``.  For d > 64 and kappa_lambda < d / 64 that is above the
float64 floor of the handle's stated error below, so on this path the
stated error is checked, not proved: the tests hold it against an SVD
oracle up to d = 200 and kappa_lambda = 1e9.

Error contract and floors.  The returned ``x`` satisfies

    || x - x* ||_M  <=  eps * || y ||_{M^{-1}},    M = A^T A + lambda I,

certified through the stopping rule ``||r||_2 <= rel_target ||y||_2``,
``rel_target = eps sqrt(lambda / (sigma1^2 + lambda))``, which is
conservative on both sides: ``||x - x*||_M = ||r||_{M^{-1}} <= ||r||_2 /
sqrt(lambda)`` and ``||y||_{M^{-1}} >= ||y||_2 / sqrt(sigma1^2 + lambda)``.
Residual targets below ``64 eps_machine (kappa_lambda + 1) ||y||_2`` are
unreachable in float64, so rel_target is raised to that floor, and
tolerances beyond it are met only up to it; a floor of 1 or more is refused.  The projection handle errs
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
from scipy.linalg.blas import daxpy, ddot, dscal, dtrsv

from ._float64 import _EPS, _exponent
from .exceptions import BudgetExceeded, ConvergenceFailure
from .matrix import DesignMatrix, _as_finite_1d
from .spectral import MatrixStats
from .stepfn import OperatorHandle

__all__ = ["ridge_solve"]

# Multiplier on eps_machine * (kappa_lambda + 1) below which residual
# targets are clamped; about 64x the attainable CG residual.
RESIDUAL_FLOOR_MULT = 64.0


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


def _cg_budget(stats: MatrixStats, eps: float):
    """``(rel_target, max_iters)``: CG's relative residual target for eps, floor included, and budget.

    Raises :class:`~ridgeproj.exceptions.BudgetExceeded` once the floor
    reaches 1 (kappa_lambda near 7e13): no residual below ``||rhs||_2``
    could then be certified.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    lam, kappa, sigma1 = stats.lam, stats.kappa_lambda, stats.sigma1_estimate
    floor = RESIDUAL_FLOOR_MULT * _EPS * (kappa + 1.0)
    if not floor < 1.0:
        raise BudgetExceeded(f"kappa_lambda = {kappa:.3e} puts the ridge residual floor"
                             f" at {floor:.3e}, no tighter than the right-hand side")
    scale = math.sqrt(lam / (sigma1 * sigma1 + lam))  # a product, as in kappa_lambda
    max_iters = 10 * math.ceil(math.sqrt(kappa + 1.0) * math.log(2.0 / eps))
    return max(eps * scale, floor), max_iters


def ridge_solve(A: DesignMatrix, eps: float, y, stats: MatrixStats) -> np.ndarray:
    """Solve ``(A^T A + stats.lam I) x = y`` to the relative-energy contract.

    Returns ``x`` with ``||x - x*||_M <= eps * ||y||_{M^{-1}}`` (up to the
    documented float64 floor), by :func:`_cg` on the budget of
    :func:`_cg_budget` and y scaled by the power of two that puts its
    largest entry in [1/2, 1); x is scaled back.  That is exact, and no
    squared norm of y over- or underflows.  Raises :class:`ConvergenceFailure`
    carrying the final residual norm if the iteration budget runs out first.
    """
    rel_target, max_iters = _cg_budget(stats, eps)
    y = _as_finite_1d(y, A.n_cols, what="right-hand side")
    e = _exponent(y)
    y = np.ldexp(y, -e)
    x = _cg(A, stats.lam, y, rel_target * math.sqrt(ddot(y, y)), max_iters)[0]
    return np.ldexp(x, e)


def _gram_solver(A: DesignMatrix, stats: MatrixStats, eps: float,
                 query_norm: float) -> OperatorHandle:
    """The handle of ``B = (A^T A + lambda I)^{-1} A^T A``, as ``v - lambda x`` with ``M x = v``.

    ``B = I - lambda M^{-1}``, ``M = A^T A + lambda I``: one application is
    one ridge solve on v itself, with no gram product of its own: two
    ``dtrsv`` calls with the factor of
    :meth:`~ridgeproj.matrix.DesignMatrix._ridge_factor`, built once
    :func:`_cg_budget` has checked eps, or :func:`_cg` if there is none.  The
    handle states ``err_bound = max(kappa_lambda rel_target, 64 eps_machine
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
    rel_target, max_iters = _cg_budget(stats, eps)
    T = A._ridge_factor(lam)
    err = max(kappa * rel_target, RESIDUAL_FLOOR_MULT * _EPS * (kappa + 1.0))
    floor = _EPS * query_norm
    stop = 0.9 * floor
    stop2 = stop * stop

    def apply(v):
        rs = ddot(v, v)
        if rs <= stop2:
            return np.zeros(d)
        if T is not None:
            return v - lam * dtrsv(T, dtrsv(T, v, trans=1), overwrite_x=1)
        return v - lam * _cg(A, lam, v, max(err * math.sqrt(rs), floor), max_iters)[0]

    return OperatorHandle(dimension=d, apply=apply, err_bound=err)
