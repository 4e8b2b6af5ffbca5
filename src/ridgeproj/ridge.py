"""Ridge regression: every solve with ``A^T A + lambda I`` and its shifts.

One function, :func:`_cg_budget`, turns :class:`MatrixStats` (which hold
lambda) and a tolerance into CG's relative residual target and iteration
budget; each entry runs its own back end on them.  :func:`ridge_solve`
runs conjugate gradient on one right-hand side, from zero or from a
caller's starting guess (the PCR series passes the solution of its
previous solve).  :func:`_gram_solver`
returns the handle that applies ``B = M^{-1} A^T A = I - lambda M^{-1}``
as ``v - lambda x``, x the ridge solve of v itself, for every projection
step: one ridge solve and no gram product of its own per application.
The handle runs CG too, except on a dense A with at least ``10 d`` rows:
there it makes one symmetric product (``dsymv``) with the inverse of the
ridge matrix that :meth:`~ridgeproj.matrix.DesignMatrix._ridge_factor`
builds once per handle under its memory rule, or runs CG if that fails.
:func:`_rational_gram_step`, the engine behind ``pc_proj(method=
"rational")`` and ``pc_regress``'s projection stage, opens the ridge box:
every system of the Zolotarev step is a shift of the ridge system, so one
multi-shift run on it (:func:`~ridgeproj.stepfn._multishift_cg`) solves
them all, certified from recomputed residuals and the rounding terms of
:func:`_gram_rounding`, not from the residual floor below.

Conjugate gradient runs on the regularized gram operator, which is never
materialized: each CG step makes one gram product on the gram factor of A
(its d-by-d QR factor R when A is tall and dense, else A itself; see
:mod:`ridgeproj.matrix`) and seven BLAS level-1 calls from
:mod:`scipy.linalg.blas` (see :func:`_cg`), which on small d cost a
fraction of the equivalent numpy expressions.  Results are bit-identical
from run to run on one machine and BLAS build; another BLAS build may
round the fused updates differently in the last bits.  CG is
deterministic: within ``10 * ceil(sqrt(kappa_lambda + 1) * ln(2/eps))``
iterations it either meets its stopping rule or raises.  That budget
holds for a warm start too: a starting guess costs one gram product for
its true residual and is kept only if that residual is smaller than the
right-hand side; otherwise CG starts from zero, exactly as without one.
The stopping rule is the same absolute residual either way, so a guess
changes the work, never the contract below.

The factored solver forms ``M = R^T R + lambda I`` (``dsyrk``) only to
hand it to LAPACK's Cholesky factorization ``M = T^T T`` (``dpotrf``) and
invert that factor in place (``dpotri``, the upper triangle of
``M^{-1}``); it computes no singular value or vector.  Each application
returns ``v - lambda M^{-1} v`` as one ``dsymv`` call and makes no product
with A or R.  For an inverse built from a Cholesky factor, the standard
bound (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 14)
puts ``lambda`` times the error of ``M^{-1} v`` at order ``d * eps_machine
* (kappa_lambda + 1) * ||v||_2``.  For d > 64 and kappa_lambda < d / 64
that is above the float64 floor of the handle's stated error below, so on
this path the stated error is checked, not proved: the tests hold it
against an SVD oracle up to d = 200 and kappa_lambda = 1e9.

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
from scipy.linalg.blas import daxpy, ddot, dscal, dsymv

from ._float64 import _EPS, _exponent
from .exceptions import BudgetExceeded, ConvergenceFailure
from .matrix import DesignMatrix, _as_finite_1d
from .spectral import MatrixStats
from .stepfn import OperatorHandle, _multishift_cg, _rational_plan, _Zolotarev

__all__ = ["ridge_solve"]

# Multiplier on eps_machine * (kappa_lambda + 1) below which residual
# targets are clamped; about 64x the attainable CG residual.
RESIDUAL_FLOOR_MULT = 64.0


def _cg(A: DesignMatrix, lam, y, resid_target, max_iters, x0=None):
    """CG iterations from x0, or from 0; returns (x, final residual norm, iters).

    Stops at 0.9 * resid_target on the recursively updated residual so the
    true residual at the accepted iterate stays below the target.  A guess
    x0 costs one gram product for its true residual ``r_0 = y - (G^T (G
    x_0) + lam x_0)``; if ``||r_0||_2 >= ||y||_2`` (or is not finite) it is
    dropped and CG starts from 0, so a cold start's budget still holds.
    A kept x0 becomes the iterate and is updated in place.  Without x0
    nothing is added to the loop.

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
    G = A._gram
    mv, rmv = G._mv, G._rmv
    if x0 is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # a huge guess is dropped below
            r = y - daxpy(x0, rmv(mv(x0)), a=lam)
        rs = ddot(r, r)
        if not rs < ddot(y, y):  # no better than zero: start cold
            x0 = None
    if x0 is None:
        x = np.zeros(A.n_cols)
        r = y.copy()
        rs = ddot(r, r)
    else:
        x = x0
    p = r.copy()
    target = 0.9 * resid_target
    target2 = target * target
    it = 0
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


def ridge_solve(A: DesignMatrix, eps: float, y, stats: MatrixStats, x0=None) -> np.ndarray:
    """Solve ``(A^T A + stats.lam I) x = y`` to the relative-energy contract.

    Returns ``x`` with ``||x - x*||_M <= eps * ||y||_{M^{-1}}`` (up to the
    documented float64 floor), by :func:`_cg` on the budget of
    :func:`_cg_budget` and y scaled by the power of two that puts its
    largest entry in [1/2, 1); x is scaled back.  That is exact, and no
    squared norm of y over- or underflows.  A zero-width A gives the empty
    solution.  Raises :class:`ConvergenceFailure` carrying the final
    residual norm if the iteration budget runs out first.

    ``x0``, if given, is a starting guess: scaled by the same power of two
    as y, so the solve stays exact under rescaling of both, and used by
    :func:`_cg` only if its residual is smaller than y.  The stopping rule,
    and so the contract, does not depend on it.
    """
    rel_target, max_iters = _cg_budget(stats, eps)
    y = _as_finite_1d(y, A.n_cols, what="right-hand side")
    if x0 is not None:
        x0 = _as_finite_1d(x0, A.n_cols, what="starting guess")
    if not y.size:  # BLAS refuses empty vectors
        return np.zeros(0)
    e = _exponent(y)
    y = np.ldexp(y, -e)
    if x0 is not None:
        with np.errstate(over="ignore"):  # an infinite guess is dropped in _cg
            x0 = np.ldexp(x0, -e)
    x = _cg(A, stats.lam, y, rel_target * math.sqrt(ddot(y, y)), max_iters, x0)[0]
    return np.ldexp(x, e)


def _gram_solver(A: DesignMatrix, stats: MatrixStats, eps: float,
                 query_norm: float) -> OperatorHandle:
    """The handle of ``B = (A^T A + lambda I)^{-1} A^T A``, as ``v - lambda x`` with ``M x = v``.

    ``B = I - lambda M^{-1}``, ``M = A^T A + lambda I``: one application is
    one ridge solve on v itself, with no gram product of its own: one
    ``dsymv`` call with the inverse ``M^{-1}`` of
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
    because err_bound is at least 64 eps_machine.  The product with the
    inverse errs as the module docstring states.  ``dsymv`` writes into a
    copy of v (``overwrite_y`` stays 0), so v is never modified.
    """
    d = A.n_cols
    lam, kappa = stats.lam, stats.kappa_lambda
    rel_target, max_iters = _cg_budget(stats, eps)
    Minv = A._ridge_factor(lam)
    err = max(kappa * rel_target, RESIDUAL_FLOOR_MULT * _EPS * (kappa + 1.0))
    floor = _EPS * query_norm
    stop = 0.9 * floor
    stop2 = stop * stop

    def apply(v):
        rs = ddot(v, v)
        if rs <= stop2:
            return np.zeros(d)
        if Minv is not None:
            return dsymv(-lam, Minv, v, beta=1.0, y=v)
        return v - lam * _cg(A, lam, v, max(err * math.sqrt(rs), floor), max_iters)[0]

    return OperatorHandle(dimension=d, apply=apply, err_bound=err)


def _gamma(k: int) -> float:
    """``k eps_machine / (1 - k eps_machine)``: the relative rounding error of k operations."""
    return k * _EPS / (1.0 - k * _EPS)


def _gram_rounding(G):
    """``(eta, F)``: ``||fl(G^T fl(G v)) - G^T G v||_2 <= eta ||v||_2`` with room to spare, ``F >= ||G||_F^2``.

    With m_1 and m_2 the longest inner products of ``G v`` and ``G^T w``
    (the row lengths of G and G^T: stored entries per row for CSR), read
    with the stored entries from
    :meth:`~ridgeproj.matrix.DesignMatrix._row_lengths_and_values`, each
    product errs by at most ``gamma_m || |G| |v| ||_2 <= gamma_m ||G||_F
    ||v||_2`` in any summation order, so the gram product errs by at most
    ``(gamma_{m_1} + gamma_{m_2} + gamma_{m_1} gamma_{m_2}) ||G||_F^2
    ||v||_2 <= gamma_{m_1 + m_2} ||G||_F^2 ||v||_2``.  ``||G||_F^2`` is read
    off the stored entries and rounded up to F; it bounds ``||G||_2^2`` from
    above, which a Lanczos estimate of sigma_1 does not.  The returned eta
    is ``gamma_{m_1 + m_2 + 8} F``, which also covers six roundings of each
    entry of the product, ``gamma_6 ||fl(G^T G v)||_2``.
    """
    m_1, m_2, entries = G._row_lengths_and_values()
    frob = float(np.vdot(entries, entries)) * (1.0 + 2.0 * _gamma(entries.size + 2))
    return _gamma(m_1 + m_2 + 8) * frob, frob


def _gram_terms(r: _Zolotarev, lam: float, h, gain, eta: float, ny: float, rho, z) -> float:
    """The solve and rounding terms of :func:`_rational_gram_step`'s bound.

    ``rho`` and ``z`` hold the residual and solution norms, the real
    system's first; h and gain are the engine's ``b_l / (1 + c_l)`` and
    ``(D, w_1, ..., w_n)``, and eta comes from :func:`_gram_rounding`.
    """
    solves = float(gain @ (rho + eta * z + _gamma(6) * (ny + 2.0 * lam * z)))
    terms = (1.0 + h.sum()) * ny + 2.0 * lam * (z[0] + float(h @ z[1:]))
    return solves + 0.5 * _gamma(3 * r.poles.size + 20) * (ny + r.scale * terms)


def _rational_gram_step(A, lam: float, y, alpha: float, eps: float):
    """Apply ``(1/2)(y + r(X) y)``, ``X = (t - lam)/(t + lam)``, ``t = A^T A``; returns ``(s, bound)``.

    The same Zolotarev step as
    :func:`~ridgeproj.stepfn.apply_rational_step`, with the same plan
    (``r``, tol; see :func:`_rational_plan`), but computed from the gram
    operator of A directly instead of a black-box ridge handle.  This
    entry opens the ridge box: it runs conjugate gradient on the ridge
    system ``t + lam`` itself, at one gram product ``G^T (G v)`` through the
    gram factor's ``_mv``/``_rmv`` per iteration, with no CG nested inside.

    Every shifted system is a rational function of t alone.  With ``X = 1 -
    2 lam (t + lam)^{-1}`` and, for each pole c_l,
    ``tau_l = lam ((1 - c_l) + 2i sqrt(c_l)) / (1 + c_l)`` (so ``|tau_l| =
    lam``), ``X / (X^2 + c_l) = (1 + c_l)^{-1} (1 + 2 Re(tau_l (t -
    tau_l)^{-1}))``.  Hence

        r(X) y = D [ y - 2 lam z_0 + sum_l b_l / (1 + c_l) (y + 2 Re(tau_l z_l)) ],

    ``z_0 = (t + lam)^{-1} y``, ``z_l = (t - tau_l)^{-1} y``: the real ridge
    system and n complex shifts ``-tau_l - lam`` of it, all solved by one
    multi-shift run (:func:`_multishift_cg`) that stops when ``D ||r_0|| +
    sum_l w_l ||r_l|| <= tol ||y||_2 / 4``, ``w_l = D b_l / (2 sqrt(c_l))``.
    No final product is needed: s is assembled from the z's.  y must be
    prepared as :func:`~ridgeproj.project.pc_proj` prepares it: a finite
    float64 vector of length ``A.n_cols`` that is zero or has its largest
    absolute entry in [1/2, 1), so no squared norm of it over- or
    underflows.  The engine neither checks nor scales it.

    Certificate.  One gram product on the block of the 2n + 1 real columns
    of the z's recomputes each residual ``rho_l``.  Since t is symmetric,
    ``||(t + lam)^{-1}|| <= 1 / lam`` and ``||(t - tau_l)^{-1}|| <= 1 / |Im
    tau_l|``, and ``|tau_l| / |Im tau_l| = (1 + c_l) / (2 sqrt(c_l))``, the
    distance from s to ``(1/2)(y + sgn(X) y)`` is at most

        (1 + gamma_{2d + 4n + 24}) [ delta_n ||y|| / 2 + D R_0 + sum_l w_l R_l + E ],
        R_l = ||rho_l|| + eta ||z_l|| + gamma_6 (||y|| + 2 lam ||z_l||),
        E = gamma_{3n + 20} (||y|| + D ((1 + sum_l h_l) ||y|| + 2 lam (||z_0||
            + sum_l h_l ||z_l||))) / 2,   h_l = b_l / (1 + c_l),

    with ``gamma_k = k eps_machine / (1 - k eps_machine)``, eta of
    :func:`_gram_rounding` for the gram factor G of A (``G^T G = t``), and
    every norm as computed; the norms of the z's, which grow like ``y /
    lam``, are taken of ``2^e z`` with ``2^e <= lam`` and scaled back,
    exactly.  R_l covers the rounding of the recomputed residual (its gram
    product, its entrywise operations, and ``tau_l`` rounded to within
    ``gamma_4 lam``); E covers the rounded coefficients and the assembly of
    s; the leading factor covers the rounding of the norms and of the bound
    itself.  So every rounding term rests on ``||G||_F``, never on an
    estimate of sigma_1, and the bound holds whenever the spectrum of X
    keeps ``|x| >= alpha``.  The
    vector is returned only if the bound is at most ``tol ||y||_2``;
    otherwise the run goes on as in :func:`_multishift_cg`.  Four times the
    rounding terms at their a-priori values (``rho = 0``, ``||z_0|| <=
    ||y|| / lam``, ``||z_l|| <= ||y|| / |Im tau_l|``) above tol raises
    :class:`~ridgeproj.exceptions.BudgetExceeded` before any product, after
    the refusals of :func:`_rational_plan`.  Inside the window the step
    follows ``(1 + r(x)) / 2`` as in
    :func:`~ridgeproj.stepfn.apply_rational_step`.
    """
    r, tol = _rational_plan(alpha, eps)
    G = A._gram
    ny = float(np.linalg.norm(y))
    c, D = r.poles, r.scale
    n, d = c.size, y.size
    h = r.weights / (1.0 + c)
    gain = np.concatenate(([D], r.gain))
    tau = lam * ((1.0 - c) + 2j * np.sqrt(c)) / (1.0 + c)
    coef = 2.0 * h * tau
    eta, frob = _gram_rounding(G)
    inv_im = (1.0 + c) / (2.0 * lam * np.sqrt(c))  # 1 / |Im tau_l|
    noise = 4.0 * _gram_terms(r, lam, h, gain, eta, 1.0, 0.0,
                              np.concatenate(([1.0 / lam], inv_im)))
    if not noise <= tol:
        raise BudgetExceeded(
            f"gram-product rounding cannot be certified to {tol:.3e}: four times its"
            f" a-priori size is {noise:.3e} at alpha = {alpha:.3e}")
    mv, rmv = G._mv, G._rmv
    e = math.frexp(lam)[1] - 1  # 2^e <= lam < 2^(e+1)
    scale = math.ldexp(1.0, e)
    # CG on t - tau_l converges like CG at condition number about
    # sqrt(kappa_lambda) lam / |Im tau_l|; frob / lam bounds kappa_lambda.
    max_iters = 10 * math.ceil(math.sqrt(1.0 + frob / lam) * lam * inv_im[0]
                               * math.log(4.0 / tol))

    def certify(z0, z, it):
        block = np.empty((d, 2 * n + 1))
        block[:, 0] = z0
        block[:, 1::2] = z.real.T
        block[:, 2::2] = z.imag.T
        t = rmv(mv(block))
        rho = np.empty((n + 1, d), dtype=z.dtype)
        rho[0] = y - (t[:, 0] + lam * z0)
        rho[1:] = y - ((t[:, 1::2] + 1j * t[:, 2::2]).T - tau[:, None] * z)
        # Of 2^e z, near y's scale: the squares of z itself may overflow.
        zn = np.ldexp(np.concatenate(([np.linalg.norm(z0 * scale)],
                                      np.linalg.norm(z * scale, axis=1))), -e)
        terms = _gram_terms(r, lam, h, gain, eta, ny, np.linalg.norm(rho, axis=1), zn)
        bound = (1.0 + _gamma(2 * d + 4 * n + 24)) * (0.5 * r.error * ny + terms)
        v = (1.0 + float(h.sum())) * y - 2.0 * lam * z0 + (coef @ z).real
        return bound, lambda: 0.5 * (y + D * v)

    finish, bound = _multishift_cg(lambda v, it: rmv(mv(v)) + lam * v, y, -tau - lam, gain,
                                   0.25 * tol * ny, max_iters, tol, certify)
    return finish(), bound
