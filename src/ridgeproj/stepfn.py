"""The step engines: a spectral step applied to a vector through an operator.

:func:`apply_step` and :func:`apply_rational_step` see the operator only
as a black box that applies a symmetric matrix approximately, the paper's
"any ridge solver".  :func:`apply_step` runs the step polynomial's
recurrence, which tolerates that noise: the error of the output grows at
most linearly in the iteration count times the relative per-application
error, provided the iteration count stays within the budget ``k <= 1/(7
eps)``; an absolute error term can grow faster (see
:class:`OperatorHandle`).  :func:`apply_rational_step` evaluates
Zolotarev's rational approximation of the sign function by one
multi-shift conjugate-gradient run on the square of the step operator,
and bounds its own error after the run from residuals it recomputes
through the black box.  Its recurrence, :func:`_multishift_cg`, and its
Zolotarev plan, :func:`_rational_plan`, also drive the gram engine
:func:`~ridgeproj.ridge._rational_gram_step`, which opens the ridge box.

Refusals.  Each engine checks its own error model before any product.
The shared :func:`_rational_plan` checks only eps (``ValueError`` outside
(0, 1)) and alpha.  :class:`~ridgeproj.exceptions.BudgetExceeded` comes
from :func:`apply_step` for a q beyond its handle's error budget, and
from :func:`apply_rational_step` for a handle error that would take its noise
past the certified level (:func:`_certified_level`, the one reader of a
handle error among the rational engines).

Precision.  The stability analysis assumes arithmetic with a number of
bits that grows like log(d / (eps * gap)).  Everything here runs in plain
64-bit floats (53-bit mantissa), which covers that premise for
``eps * gap >= 1e-6`` at dimensions up to about 1e6; far below that
product, the documented ridge-solver residual floor becomes the effective
accuracy limit rather than the bounds proved for the recurrence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.special import ellipj, ellipkm1

from ._float64 import _EPS, _exponent
from .exceptions import BudgetExceeded, ConvergenceFailure, DimensionMismatch
from .matrix import _as_finite_1d, _check_int

__all__ = ["OperatorHandle", "apply_step", "apply_rational_step"]


@dataclass(frozen=True)
class OperatorHandle:
    """Black-box application of a symmetric operator.

    ``apply(x)`` returns an approximation of ``S x`` with
    ``||apply(x) - S x||_2 <= err_bound * ||x||_2``.  The underlying S must
    be symmetric; that is the caller's contract and is only checked by test
    oracles.  ``err_bound = 0`` declares the application exact.  The
    handle states no spectrum; :func:`apply_step`, its consumer, needs the
    eigenvalues of S in [0, 1].

    A handle built for one input y may also err by a fixed absolute amount
    on the scale of ``||y||_2``: the ridge handle of
    :func:`~ridgeproj.ridge._gram_solver` guarantees
    ``||apply(x) - S x||_2 <= err_bound * ||x||_2 + eps_machine * ||y||_2``.
    Over the q steps of :func:`apply_step`, an absolute error of at most
    ``eta * ||y||_2`` per application adds at most

        8 q (1 + min(q, 1/alpha^2)) * eta * ||y||_2,   alpha = min |2 mu - 1|

    to the output error, where mu runs over the eigenvalues of S (alpha = 0
    is allowed), next to the ``7 q err_bound ||y||_2`` of the relative term.
    Proof: the recurrence is affine in the errors, and with ``X = 2S - I``
    one step maps ``w`` to ``4 a_k S (I - S) w = a_k (I - X^2) w``, where
    ``a_k = (2k+1)/(2k+2) < 1``.  Errors ``e_a`` in the inner and ``e_b`` in
    the outer application of step k enter ``w_{k+1}`` as ``4 a_k (e_b - S
    e_a)``, of norm at most ``8 eta ||y||_2``; an error entering ``w_{k+1}``
    reaches ``s_q`` through a sum of at most ``q - k`` powers of ``I - X^2``
    with coefficients in [0, 1], whose norm is at most ``sum_m (1 -
    alpha^2)^m <= min(q - k, 1/alpha^2)``.
    The error in ``S y`` enters ``s_0`` once and ``w_0`` once, which adds at
    most ``1 + min(q, 1/alpha^2)`` times ``eta ||y||_2``.  The total,
    ``1 + (8q + 1) min(q, 1/alpha^2)``, is at most the bound because
    ``min(q, 1/alpha^2) <= q``.  An error of fixed size along an
    eigenvector with ``|2 mu - 1| = alpha`` reaches 0.15 to 0.22 of the
    bound at (alpha, q) = (0.2, 200) and (0.05, 2000): 4 to 79 times
    ``7 q eta ||y||_2``.
    """

    dimension: int
    apply: Callable[[np.ndarray], np.ndarray]
    err_bound: float = 0.0

    def __post_init__(self):
        _check_int(self.dimension, "dimension")
        if not 0.0 <= self.err_bound < np.inf:  # NaN would skip apply_step's budget guard
            raise ValueError(f"err_bound must be nonnegative and finite, got {self.err_bound!r}")


def _guarded(op: OperatorHandle, x, k):
    try:
        out = op.apply(x)
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(
            f"operator application failed at iteration {k}: {exc}",
            diagnostic=exc.diagnostic,
        ) from exc
    out = np.asarray(out, dtype=np.float64)
    if out.shape != (op.dimension,):
        raise DimensionMismatch((op.dimension,), out.shape,
                                what=f"iteration {k}: operator output shape")
    return out


def apply_step(S: OperatorHandle, y, q: int,
               callback: Optional[Callable[[int, np.ndarray], None]] = None) -> np.ndarray:
    """Apply the soft spectral step of ``S`` to ``y`` through q iterations.

    Runs the recurrence

        s_0 = S y,   w_0 = s_0 - y/2,
        w_{k+1} = 4 (2k+1)/(2k+2) * S(w_k - S w_k),   s_{k+1} = s_k + w_{k+1},

    where every ``S``-application goes through the black box, and S must
    have its eigenvalues in [0, 1].  With an exact operator the result is
    exactly ``(1/2)(y + p_q(2S - I) y)``, which maps eigenvalues of S above
    1/2 toward 1 and below 1/2 toward 0.  With per-application error eps
    the output error is O(q * eps) * ||y||_2.

    An increment ``w_{k+1}`` that is exactly zero ends the loop: with
    S(0) = 0 every later increment is zero too, so s is final and no further
    application is made.  This is exact, not approximate: the ridge handles
    of :func:`~ridgeproj.project.pc_proj` return +0.0 vectors for an
    input below their query-level floor, and once one +0.0
    increment has been added, adding more changes no bit of s.

    ``callback(k, s_k)`` (if given) receives a copy of the iterate after
    initialization (k = 0) and after each of the q updates, also for the
    steps skipped after a zero increment.

    An application whose output is not a vector of length ``S.dimension``
    raises :class:`~ridgeproj.exceptions.DimensionMismatch` naming its
    iteration, and a result with a non-finite entry raises ``ValueError``.
    """
    _check_int(q, "q")
    err = S.err_bound
    if err > 0:
        # Effective error of the composed map C(x) = 4 S(x - S x).
        eps_c = 4.0 * err * (2.0 + err)
        if q > 1.0 / (7.0 * eps_c):
            raise BudgetExceeded(
                f"error budget exhausted: q={q} exceeds 1/(7*eps_C)="
                f"{1.0 / (7.0 * eps_c):.1f} for operator error {err:.3e}"
            )
    y = _as_finite_1d(y, S.dimension, what="input vector")
    s = _guarded(S, y, 0)
    w = s - 0.5 * y
    if callback is not None:
        callback(0, s.copy())
    for k in range(q):
        inner = _guarded(S, w, k)
        w = (4.0 * (2 * k + 1) / (2 * k + 2)) * _guarded(S, w - inner, k)
        s = s + w
        if callback is not None:
            callback(k + 1, s.copy())
        if not np.count_nonzero(w):  # exact, and a third of the cost of w.any()
            break
    if callback is not None:
        for j in range(k + 2, q + 1):
            callback(j, s.copy())
    if not np.isfinite(s).all():
        raise ValueError("the operator handle produced non-finite entries")
    return s



@dataclass(frozen=True)
class _Zolotarev:
    """Zolotarev's best rational approximation of sgn(x) on ``alpha <= |x| <= 1``.

    ``r(x) = scale * x * (1 + sum_l weights[l] / (x^2 + poles[l]))``, with
    ``|r(x) - sgn(x)| <= error`` on that set.  Every pole and weight is
    positive, and the poles ascend.
    """

    alpha: float
    scale: float
    poles: np.ndarray
    weights: np.ndarray
    error: float

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        terms = self.weights / (x[..., None] ** 2 + self.poles)
        return self.scale * x * (1.0 + terms.sum(axis=-1))

    @property
    def gain(self) -> np.ndarray:
        """``D b_l / (2 sqrt(c_l))``, the bound on ``||D b_l X (X^2 + c_l)^{-1}||``."""
        return self.scale * self.weights / (2.0 * np.sqrt(self.poles))

    def certificate(self, err: float, ny: float, rho, z, xz, u: float) -> float:
        """The solve and handle terms of :func:`apply_rational_step`'s bound.

        From the per-pole norms ``rho`` of the residuals, ``z`` of ``z_l`` and
        ``xz`` of ``X z_l``, the norm ``u`` of ``y + sum_l b_l z_l``, and a
        handle error ``err ||v||_2 + eps_machine ny``.
        """
        solves = 0.5 * float(self.gain @ (rho + 2.0 * err * (z + xz) + 4.0 * _EPS * ny))
        return solves + self.scale * (err * u + _EPS * ny)

    def noise(self, err: float) -> float:
        """:meth:`certificate` per ``||y||_2``, at ``rho = 0`` and the a-priori norms.

        Those hold when the spectrum of X keeps ``alpha <= |x| <= 1``:
        ``||z_l|| <= ||y|| / (alpha^2 + c_l)``, ``||X z_l|| <= ||y|| / (2
        sqrt(c_l))`` and ``||u|| <= (1 + sum_l b_l / (alpha^2 + c_l)) ||y||``.
        """
        inv = 1.0 / (self.alpha ** 2 + self.poles)
        return self.certificate(err, 1.0, 0.0, inv, 0.5 / np.sqrt(self.poles),
                                1.0 + float(self.weights @ inv))


def _zolotarev(alpha: float, n: int) -> _Zolotarev:
    """The Zolotarev approximation with n poles on ``alpha <= |x| <= 1``, ``1e-6 <= alpha < 1``.

    With ``u_j = j K' / (2n+1)`` and ``K'`` the complete elliptic integral
    at parameter ``m = 1 - alpha^2``, the values ``c_j = alpha^2 sn^2/cn^2
    (u_j; m)``, j = 1..2n, ascend; odd j are the poles and even j the zeros
    of ``prod_j (x^2 + c_{2j}) / (x^2 + c_{2j-1})``, whose partial fractions
    give the weights.  ``x prod_j ...`` equioscillates about its mean at the
    2n + 2 points ``x_j = alpha / dn(u_j; m)``, j = 0..2n+1, which run from
    alpha to 1, so its values there give the scale that centres it on 1 and
    the error that remains: no grid search is needed.
    """
    # Every elliptic quantity uses the parameter's exact complement 1 - m,
    # which is alpha^2 up to the rounding of m.
    m = 1.0 - alpha * alpha
    margin = 1.0 - m
    u = np.arange(2 * n + 2) * (ellipkm1(margin) / (2 * n + 1))
    sn, cn, dn, _ = ellipj(u, m)
    c = margin * (sn[1:-1] / cn[1:-1]) ** 2
    poles, zeros = c[0::2], c[1::2]
    # Residue at x^2 = -c_l, as a product of ratios that neither overflows
    # nor underflows: (zeros_l - c_l) prod_{j != l} (zeros_j - c_l) / (poles_j - c_l).
    gaps = poles - poles[:, None]
    np.fill_diagonal(gaps, 1.0)
    weights = np.prod((zeros - poles[:, None]) / gaps, axis=1)
    # The ends are alpha and 1 exactly: the construction's own ends differ
    # by that rounding, and the error on [alpha, 1] peaks at its ends too.
    x = math.sqrt(margin) / dn
    x[0], x[-1] = alpha, 1.0
    unit = _Zolotarev(alpha=alpha, scale=1.0, poles=poles, weights=weights, error=math.nan)
    values = unit(x)
    hi, lo = float(values.max()), float(values.min())
    return replace(unit, scale=2.0 / (hi + lo), error=(hi - lo) / (hi + lo))


# The float64 floor of the rational engine's tolerance: the Zolotarev error
# is read off values near 1, each rounded to a few eps_machine.
_RATIONAL_FLOOR = 64.0 * _EPS

# Certificates made before the rational engine gives up.
_CERTIFY_ROUNDS = 4

# The least window half-width of the rational engine.  Below it 1 - alpha^2
# is too close to 1 for float64 and scipy's elliptic functions, and the
# multi-shift run would need about 1/alpha iterations anyway.
_MIN_ALPHA = 1e-6


def _rational_plan(alpha: float, eps: float):
    """``(r, tol)``: the Zolotarev approximation both rational engines run for eps.

    ``tol = max(eps, 64 eps_machine)`` sets the approximation, the one with
    the fewest poles whose error is at most ``tol / 2``, and the residual
    target.  In float64 that error stops falling somewhere below 1e-12 for
    alpha near 1e-4 and below (the elliptic functions and the values near 1
    round); if it stops above ``tol / 2``, the last approximation that
    still lowered it is used, and tol is raised to twice its error.  An eps
    outside (0, 1) raises ``ValueError``, and an alpha outside ``[1e-6,
    1)`` raises :class:`~ridgeproj.exceptions.BudgetExceeded`.  The plan
    knows no operator: each engine checks its own error model against tol.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not _MIN_ALPHA <= alpha < 1.0:
        raise BudgetExceeded(f"alpha must lie in [{_MIN_ALPHA}, 1), got {alpha}")
    tol = max(eps, _RATIONAL_FLOOR)
    r = _zolotarev(alpha, 1)
    for n in itertools.count(2):
        if r.error <= 0.5 * tol:
            break
        more = _zolotarev(alpha, n)
        if more.error >= r.error:
            tol = 2.0 * r.error
            break
        r = more
    return r, tol


def _multishift_cg(K, y, shifts, gain, target, max_iters, level, certify):
    """Solve ``K z_0 = y`` and ``(K + shifts[l]) z_l = y`` by one conjugate-gradient run, certified.

    K, applied as ``K(v, it)``, must be symmetric positive definite; the
    shifts may be complex.  This is Jegerlehner's multi-shift recurrence:
    CG on the seed system ``K z_0 = y``, whose residuals stay collinear with
    every shifted system's, ``r_l = zeta_l r_0``, so each shifted iterate
    costs vector updates and no product with K.  ``z_0`` stays real; the
    shifted iterates take the dtype of ``shifts``.

    The run stops once the recursive residual norms give ``gain_0 ||r_0||
    + sum_l gain_l |zeta_l| ||r_0|| <= target`` (``gain`` lists the seed
    first).  A shifted system is frozen once its share of that sum falls
    below eps_machine of the target: its zeta would otherwise underflow
    within a few hundred iterations, and its later updates round away.
    Then ``certify(z_0, z, it)`` returns ``(bound, finish)``; a bound of at
    most ``level ||y||_2`` returns ``(finish, bound)``.  Otherwise the run
    goes on to a quarter of its target and certifies again; after four
    rounds, or after ``max_iters`` iterations, it raises
    :class:`ConvergenceFailure`.
    """
    ny = float(np.linalg.norm(y))
    z0 = np.zeros(y.size)
    p0 = y.copy()
    z = np.zeros((shifts.size, y.size), dtype=shifts.dtype)
    p = np.tile(y, (shifts.size, 1)).astype(shifts.dtype)
    res = y.copy()
    rs = float(res @ res)
    zeta = np.ones(shifts.size, dtype=shifts.dtype)
    zeta_old = zeta.copy()
    a_old, beta = 1.0, 0.0
    # Recursive residual norms, the seed's first.
    resid = np.full(gain.size, math.sqrt(rs))
    live = np.ones(shifts.size, dtype=bool)
    it = 0
    for _ in range(_CERTIFY_ROUNDS):
        while float(gain @ resid) > target:
            if it >= max_iters:
                raise ConvergenceFailure(
                    f"multi-shift conjugate gradient exhausted {max_iters} iterations",
                    diagnostic=float(gain @ resid) / ny)
            Kp = K(p0, it)
            denom = float(p0 @ Kp)
            if not denom > 0.0:
                raise ConvergenceFailure(
                    "multi-shift conjugate gradient breakdown: non-positive curvature",
                    diagnostic=math.sqrt(rs) / ny)
            a = rs / denom
            zl, zo = zeta[live], zeta_old[live]
            zn = zl * zo * a_old / (a * beta * (zo - zl) + zo * a_old * (1.0 + shifts[live] * a))
            z0 += a * p0
            z[live] += (a * zn / zl)[:, None] * p[live]
            res = res - a * Kp
            rs_new = float(res @ res)
            beta = rs_new / rs
            p0 = res + beta * p0
            p[live] = zn[:, None] * res + (beta * (zn / zl) ** 2)[:, None] * p[live]
            zeta_old[live], zeta[live] = zl, zn
            a_old, rs = a, rs_new
            resid[0] = math.sqrt(rs)
            resid[1:][live] = np.abs(zn) * resid[0]
            live &= gain[1:] * resid[1:] > _EPS * target
            it += 1
        bound, finish = certify(z0, z, it)
        if bound <= level * ny:
            return finish, bound
        target *= 0.25
    raise ConvergenceFailure(
        f"certified bound {bound:.3e} exceeds {level:.3e} * ||y|| after"
        f" {_CERTIFY_ROUNDS} rounds", diagnostic=bound / ny)


def _certified_level(r: _Zolotarev, tol: float, err: float) -> float:
    """The level :func:`apply_rational_step` certifies with r on a handle of relative error err.

    ``level = max(tol, 4 r.noise(0))``: only the handle's ``eps_machine
    ||y||`` terms may raise it above tol.  These are the float64 floor of
    the engine, the counterpart of the ``14 q eps_machine`` level of
    :func:`apply_step`.  A relative error ``err`` with ``4 r.noise(err)``
    above the level leaves too little of it for the solves, so no run could
    certify it: that raises :class:`~ridgeproj.exceptions.BudgetExceeded`
    before any application.
    """
    level = max(tol, 4.0 * r.noise(0.0))
    noise = 4.0 * r.noise(err)
    if noise > level:
        raise BudgetExceeded(
            f"handle error {err:.3e} cannot be certified to {level:.3e}: four times its"
            f" a-priori noise is {noise:.3e} at alpha = {r.alpha:.3e}")
    return level


def apply_rational_step(S: OperatorHandle, y, alpha: float, eps: float):
    """Apply ``(1/2)(y + r(X) y)``, ``X = 2S - I``, and certify it; returns ``(s, bound)``.

    ``r`` is the Zolotarev approximation of sgn on ``alpha <= |x| <= 1``
    with the fewest poles n whose error ``delta_n`` is at most ``tol / 2``,
    ``tol = max(eps, 64 eps_machine)`` (see :func:`_rational_plan`), and
    ``1e-6 <= alpha < 1``.  Written as ``r(x) = D x
    (1 + sum_l b_l / (x^2 + c_l))``, it needs the n shifted solves ``(X^2 +
    c_l) z_l = y``.  They share one Krylov space of ``X^2``, so one
    multi-shift conjugate-gradient run (Jegerlehner's recurrence, seeded on
    the smallest shift, whose system converges last) solves all of them,
    at two applications of S per iteration.  The run stops once the
    recursive shifted residuals give ``sum_l D b_l ||r_l|| / (2 sqrt(c_l))
    <= tol ||y||_2 / 2``.

    The run works on y scaled by the power of two that puts its largest
    entry in [1/2, 1), and s and the bound are scaled back.  That is exact,
    so no squared norm of y over- or underflows, and on a linear handle
    ``2^k y`` gives ``2^k`` times the result for y bit for bit.  Below, y
    is the scaled vector.

    Certificate.  Then each true residual ``y - (X^2 + c_l) z_l`` is
    recomputed through S, two more applications per pole.  With the
    handle's error ``err_bound ||v||_2 + eps_machine ||y||_2`` per
    application (the contract of the projection handle, see
    :class:`OperatorHandle`, which :func:`~ridgeproj.project.pc_proj`
    builds for the scaled vector), the distance from s to ``(1/2)(y +
    sgn(X) y)`` is at most

        delta_n ||y|| / 2
        + (1/2) sum_l D b_l (||rho_l|| + 2 err (||z_l|| + ||X z_l||)
                             + 4 eps_machine ||y||) / (2 sqrt(c_l))
        + D (err ||u|| + eps_machine ||y||),

    where ``rho_l`` is the recomputed residual, ``u = y + sum_l b_l z_l``
    and the last term is the error of the final application ``X u``.  The
    bound holds whenever the spectrum of X keeps ``|x| >= alpha``, since
    ``||X (X^2 + c)^{-1}|| <= 1 / (2 sqrt(c))`` and ``||X|| <= 1``.  It
    rests only on the handle's stated contract, not on the recursive
    residuals, which drift from the true ones under inexact products.  The
    vector is returned only if the bound is at most ``level ||y||_2``, where
    ``level`` is tol or, below the float64 floor, four times the a-priori
    ``eps_machine`` terms (see :func:`_certified_level`).  Otherwise the run
    goes on to a quarter of its residual target and certifies again; after
    four rounds it raises :class:`ConvergenceFailure`.  A handle whose
    ``err_bound`` alone would take the bound past ``level``, and an alpha
    outside ``[1e-6, 1)``, are refused with
    :class:`~ridgeproj.exceptions.BudgetExceeded` before any application,
    and an eps outside (0, 1) with ``ValueError``; an application with a
    non-finite entry raises ``ValueError``, as in :func:`apply_step`.

    Inside the window (``|x| < alpha``) ``r`` rises monotonically from
    ``r(0) = 0`` to ``r(alpha) = 1 - delta_n`` (odd in x), so in-window
    directions get a soft step between ``delta_n / 2`` and ``1 - delta_n /
    2``; every direction's factor ``(1 + r(x)) / 2`` lies in ``[-delta_n /
    2, 1 + delta_n / 2]``.  Except for ``delta_n ||y|| / 2``, the bound
    holds for ``||s - (1/2)(y + r(X) y)||`` whatever the spectrum.
    """
    err = S.err_bound
    r, tol = _rational_plan(alpha, eps)
    level = _certified_level(r, tol, err)
    y = _as_finite_1d(y, S.dimension, what="input vector")
    e = _exponent(y)
    y = np.ldexp(y, -e)
    ny = float(np.linalg.norm(y))
    c, b, D = r.poles, r.weights, r.scale
    max_iters = 10 * math.ceil(math.sqrt((1.0 + c[0]) / c[0]) * math.log(4.0 / tol))

    def X(v, k):
        out = _guarded(S, v, k)
        if not np.isfinite(out).all():  # NaN would read as a curvature breakdown
            raise ValueError("the operator handle produced non-finite entries")
        return 2.0 * out - v

    def certify(z0, z, it):
        z = np.vstack([z0, z])
        norms = np.empty((3, c.size))  # ||rho_l||, ||z_l||, ||X z_l||
        for l in range(c.size):
            w = X(z[l], it)
            norms[:, l] = [np.linalg.norm(y - X(w, it) - c[l] * z[l]), np.linalg.norm(z[l]),
                           np.linalg.norm(w)]
        u = y + b @ z
        bound = 0.5 * r.error * ny + r.certificate(err, ny, *norms, float(np.linalg.norm(u)))
        return bound, lambda: 0.5 * (y + D * X(u, it))

    finish, bound = _multishift_cg(lambda v, k: X(X(v, k), k) + c[0] * v, y, c[1:] - c[0],
                                   r.gain, 0.5 * tol * ny, max_iters, level, certify)
    return np.ldexp(finish(), e), math.ldexp(bound, e)
