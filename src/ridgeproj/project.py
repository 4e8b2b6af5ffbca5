"""Principal component projection through repeated ridge regression.

``pc_proj`` approximates ``P y``, the projection of y onto the span of the
principal components of A whose squared singular value is at least lambda,
without ever computing those components.  Each iteration sharpens the
smooth projection operator ``B = (A^T A + lambda I)^{-1} A^T A`` (applied
via ridge regression) toward the hard spectral step.

When the spectrum has a relative gap gamma around lambda, in the sense

    sigma_{k+1}^2 / (1 - 4 gamma)  <=  lambda  <=  (1 - 4 gamma) sigma_k^2,

the result satisfies ``||s - P y||_2 <= eps ||y||_2``.  When eigenvalues
fall inside the window, there is no error blow-up: those directions are
attenuated by a monotone soft step between 0 and 1 (partial projection),
which is the documented behavior rather than a detectable failure.

Two step engines.  The default, ``method="pk"``, is the paper's: the step
polynomial ``p_q`` in ``X = 2B - I`` through the black-box ridge handle,
``2q + 1`` ridge applications with q growing like ``gamma^-2``.
``method="rational"`` applies Zolotarev's best rational approximation of
sgn(X) instead, with n poles for an error ``delta_n <= eps/2``.  Every
shifted system it needs is a rational function of ``A^T A`` alone, so one
multi-shift conjugate-gradient run on the ridge system ``A^T A + lambda
I`` itself solves them all, at one gram product per iteration (see
:func:`~ridgeproj.ridge._rational_gram_step`): the engine opens the ridge
box instead of calling a ridge solver.  Its gram products grow like
``alpha^-1 ln(1/eps)`` (``alpha = 2 gamma / (1 - 2 gamma)``) rather than
``alpha^-2``.  After the run it recomputes the true shifted residuals and
returns the vector only if a bound built from them, proven rounding terms
of the gram products (from ``||A||_F^2``) and ``delta_n`` is at most ``eps
||y||_2``; otherwise it raises.  In-window directions then get a soft step
between ``delta_n / 2`` and ``1 - delta_n / 2``, not one in [0, 1] that
follows ``p_q``.

Both engines raise :class:`~ridgeproj.exceptions.BudgetExceeded` before
any product for an eps they cannot reach: ``p_k`` checks the ridge
handle's stated error, which includes the residual floor (see
:func:`~ridgeproj.ridge._gram_solver`), from kappa_lambda near 1e5 at gamma
= 0.1 and eps = 1e-2; the rational engine checks its rounding terms, which
grow like ``(m_1 + m_2) eps_machine ||A||_F^2 / lambda``, ``m_1`` and
``m_2`` the row lengths of A and ``A^T``.

The paper's failure probability delta has no counterpart here: the inner
solvers are deterministic, conjugate gradient meeting its tolerance or
raising, and a product with the inverse ridge matrix, built from its
Cholesky factor, on tall dense matrices (see :mod:`ridgeproj.ridge`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._float64 import _EPS, _TINY, _ceil_tight, _exponent
from .exceptions import BudgetExceeded
from .matrix import DesignMatrix, _as_finite_1d, _check_int
from .ridge import _gram_solver, _rational_gram_step
from .spectral import MatrixStats, _check_lam
from .stepfn import apply_step

__all__ = ["ProjectionConfig", "pc_proj"]

# Divisor in the default inner ridge tolerance eps^2 gamma^2 / (C2 sqrt(kappa)).
_C2 = 8.0


@dataclass(frozen=True)
class _StageConfig:
    """Threshold ``lam``, gap ``gamma``, target ``eps`` and optional ``q_override``.

    The fields shared by :class:`ProjectionConfig` and
    :class:`~ridgeproj.pcr.PcrConfig`, checked on construction.
    """

    lam: float
    gamma: float
    eps: float
    q_override: int | None = None

    def __post_init__(self):
        _check_lam(self.lam)
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if self.q_override is not None:
            _check_int(self.q_override, "q_override")


@dataclass(frozen=True)
class ProjectionConfig(_StageConfig):
    """Parameters of the projection iteration.

    ``method`` picks the step engine: ``"pk"`` (the default) runs the
    paper's step polynomial through :func:`~ridgeproj.stepfn.apply_step`,
    ``"rational"`` the certified Zolotarev engine on the gram operator,
    :func:`~ridgeproj.ridge._rational_gram_step`, which sets its own
    number of gram products and so takes no ``q_override``.

    The outer iteration count of ``"pk"`` defaults to
    ``q = ceil((2 gamma)^-2 ln(2/eps))``, and ``q_override`` pins it.  Its
    inner ridge tolerance always follows from eps, gamma and q:
    ``eps' = min(eps^2 gamma^2 / (8 sqrt(kappa)), 1 / (60 q sqrt(kappa)))``
    with ``kappa = max(kappa_lambda, 1)``, so a lambda far above sigma_1^2
    cannot push eps' to 1 or beyond; eps' is at least the smallest normal
    double, so a tiny eps cannot push it to 0.  ``"rational"`` runs no
    ridge solver and uses no eps'.
    """

    method: str = "pk"

    def __post_init__(self):
        super().__post_init__()
        if self.method not in ("pk", "rational"):
            raise ValueError(f"method must be 'pk' or 'rational', got {self.method!r}")
        if self.method == "rational" and self.q_override is not None:
            raise ValueError("q_override applies to method 'pk' only")

    def resolve(self, stats: MatrixStats):
        """Concrete (q, eps_inner, eps_op) for the given matrix stats.

        Validates the accumulated-noise budget ``7 q (eps_op + eps_machine)
        <= eps`` where ``eps_op = sqrt(kappa) * eps_inner`` bounds from above
        the relative error eps_inner allows one operator application, the eps
        term ``eps_inner kappa_lambda / sqrt(kappa_lambda + 1)`` of the
        handle's stated error (see :func:`~ridgeproj.ridge._gram_solver`),
        and ``eps_machine`` its query-level floor (see :func:`pc_proj`); a
        violating override raises
        :class:`~ridgeproj.exceptions.BudgetExceeded` here rather than
        surfacing as silent inaccuracy.  ``14 q eps_machine`` is the float64
        resolution level of q steps, a convention rather than a proven bound
        on what the floor costs (that bound is in
        :class:`~ridgeproj.stepfn.OperatorHandle`): an ``eps`` below it is met
        only up to that level, like the ridge residual floor, and the budget
        is checked against it instead.
        """
        stats.check_lambda(self.lam)
        if self.q_override is not None:
            q = self.q_override
        else:
            q = _ceil_tight((2.0 * self.gamma) ** -2 * math.log(2.0 / self.eps))
        sqrt_kappa = math.sqrt(max(stats.kappa_lambda, 1.0))
        eps_inner = self.eps ** 2 * self.gamma ** 2 / (_C2 * sqrt_kappa)
        # Keep eps' inside the validity range of the stable recurrence
        # (q <= 1/(7 eps_C), eps_C ~ 8 eps_op); only binds for eps near 1.
        cap = 1.0 / (60.0 * q * sqrt_kappa)
        # An eps near 1e-150 or below takes eps' out of the normal range; such
        # an eps is met only up to the float64 resolution level anyway.
        eps_inner = max(min(eps_inner, cap), _TINY)
        eps_op = sqrt_kappa * eps_inner
        noise = 7.0 * q * (eps_op + _EPS)
        budget = max(self.eps, 14.0 * q * _EPS)
        if noise > budget:
            raise BudgetExceeded(
                f"noise budget violated: 7*q*(eps_op + eps_machine) = {noise:.3e}"
                f" exceeds {budget:.3e} (eps = {self.eps}); lower q or raise eps"
            )
        return q, eps_inner, eps_op


def pc_proj(A: DesignMatrix, cfg: ProjectionConfig, y, stats: MatrixStats,
            callback: Optional[Callable[[int, np.ndarray], None]] = None) -> np.ndarray:
    """Approximate the projection of y onto top principal components of A.

    Returns ``s`` with ``||s - P y||_2 <= eps ||y||_2`` whenever the
    spectral-gap window holds for ``cfg.gamma`` (see module docstring);
    otherwise the in-window directions degrade gracefully to a soft
    projection.  Deterministic; ridge failures propagate as
    :class:`~ridgeproj.exceptions.ConvergenceFailure` annotated with the
    iteration index.

    Besides its stated relative error, each application of the ridge handle
    (:func:`~ridgeproj.ridge._gram_solver`) errs by up to ``eps_machine
    ||y||_2``: the ridge solves stop at the float64 resolution of the query
    instead of refining recurrence increments far below it.  On ``p_k`` that
    costs at most ``8 q (1 + min(q, 1/alpha^2)) eps_machine ||y||_2``
    (proved at :class:`~ridgeproj.stepfn.OperatorHandle`), where ``alpha = 2
    gamma / (1 - 2 gamma)`` when the gap window holds, so at most ``8 q (1 +
    1/(4 gamma^2)) eps_machine ||y||_2``: about 2e-9 ``||y||_2`` at q = 2565
    and gamma = 0.023.  A stated error that takes q past the budget of
    :func:`~ridgeproj.stepfn.apply_step` raises ``BudgetExceeded``.

    ``callback(k, s_k)`` (if given) receives the iterate after k outer
    iterations, k = 0..q, where iterate 0 is ``B y``.

    y is validated and prepared here, once, for both engines: scaled by the
    power of two that puts its largest entry in [1/2, 1), and the result
    and every iterate are scaled back once.  That is exact in float64, so
    ``pc_proj`` of ``2^k y`` is ``2^k`` times ``pc_proj`` of y to the bit
    while ``2^k y`` has no subnormal entry, and no squared norm over- or
    underflows at any scale of y.

    With ``cfg.method == "rational"`` no ridge handle is built:
    :func:`~ridgeproj.ridge._rational_gram_step` runs on the gram operator
    of A with the window half-width ``alpha`` (1/2 for gamma of 1/6 and
    above), and the returned vector carries a certificate computed after
    the run: ``||s - P y||_2 <= eps ||y||_2`` under the gap window, with eps
    raised only to the engine's float64 floor.  An eps that the
    certificate's rounding terms keep out of reach, or a gamma below 5e-7
    (alpha below 1e-6), raises ``BudgetExceeded`` before any product; a run
    that cannot certify raises
    :class:`~ridgeproj.exceptions.ConvergenceFailure`.  In-window
    directions get a soft step between ``delta/2`` and ``1 - delta/2``,
    delta the Zolotarev error, at most eps/2.  This engine takes no
    callback.

    A zero-width A gives the empty vector on both engines, after the checks
    of ``cfg`` against ``stats``; a ``p_k`` callback sees k = 0..q.
    """
    if cfg.method == "rational" and callback is not None:
        raise ValueError("callback applies to method 'pk' only")
    y = _as_finite_1d(y, A.n_cols, what="input vector")
    e = _exponent(y)
    y = np.ldexp(y, -e)
    if cfg.method == "rational":
        stats.check_lambda(cfg.lam)
        alpha = 2.0 * cfg.gamma / (1.0 - 2.0 * cfg.gamma) if 6.0 * cfg.gamma < 1.0 else 0.5
        s = _rational_gram_step(A, cfg.lam, y, alpha, cfg.eps)[0]
    else:
        q, eps_inner, _ = cfg.resolve(stats)
        if not y.size:  # a zero-width A; OperatorHandle refuses dimension 0
            if callback is not None:
                for k in range(q + 1):
                    callback(k, np.zeros(0))
            return np.zeros(0)
        handle = _gram_solver(A, stats, eps_inner, query_norm=float(np.linalg.norm(y)))
        scaled = None if callback is None else lambda k, s: callback(k, np.ldexp(s, e))
        s = apply_step(handle, y, q, callback=scaled)
    return np.ldexp(s, e)
