"""Principal component regression from projection plus a stable series.

The exact PCR solution is ``(A^T A)^{-1} P A^T b``, but applying the plain
inverse amplifies any error in the projected vector by up to the inverse of
the smallest squared singular value, which is catastrophic in floating
point.  Instead, the inverse is reached through the ridge operator
``M^{-1} = (A^T A + lambda I)^{-1}`` (spectral norm at most 1/lambda) and
the correction series

    g(x) = x / (1 - lambda x) = sum_{i>=1} lambda^{i-1} x^i,

truncated at q terms.  On the top subspace, where M^{-1} has spectrum at
most 1/(2 lambda), the truncation tail is below ``kappa_lambda / 2^q``
after q terms, while the small singular directions are deliberately *not*
fully inverted; that is the source of the method's stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._float64 import _ceil_tight
from .exceptions import ConvergenceFailure
from .matrix import DesignMatrix, _as_finite_1d
from .project import ProjectionConfig, pc_proj
from .ridge import RidgeParams, ridge_solve
from .spectral import MatrixStats
from .stepfn import OperatorHandle

__all__ = ["PcrConfig", "pc_regress", "truncated_g_series"]

# Default series length q = ceil(C1 ln(kappa/eps)) and inner tolerance
# eps / (C2 q^2 sqrt(kappa)).
_C1 = 2.0
_C2 = 4.0


@dataclass(frozen=True)
class PcrConfig:
    """Parameters of the regression series.

    Defaults: ``q = ceil(2 ln(kappa_lambda / eps))`` (so the series tail
    ``kappa/2^q`` is safely below eps) and inner tolerance
    ``eps' = eps / (4 q^2 sqrt(kappa_lambda))``.  The projection of
    ``A^T b`` is computed once, at tolerance eps'.
    """

    lam: float
    gamma: float
    eps: float
    q_override: int | None = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if self.q_override is not None and self.q_override < 1:
            raise ValueError("q_override must be at least 1")

    def resolve(self, stats: MatrixStats):
        """Concrete (q, eps_inner, eps_op) for the given matrix stats.

        ``eps_op = eps_inner / lambda`` bounds the relative 2-norm error of
        one series application of ``M^{-1}``: ``||R(v) - M^{-1} v||_2 <=
        ||.||_M / sqrt(lambda)`` and ``||v||_{M^{-1}} <= ||v||_2 /
        sqrt(lambda)``, so the ridge solver's M-norm contract gives
        ``eps_inner ||v||_2 / lambda``.
        """
        stats.check_lambda(self.lam)
        if self.q_override is not None:
            q = self.q_override
        else:
            q = _ceil_tight(_C1 * math.log(max(stats.kappa_lambda, 1.0) / self.eps))
        q = max(q, 1)
        eps_inner = self.eps / (_C2 * q * q * math.sqrt(stats.kappa_lambda))
        return q, eps_inner, eps_inner / self.lam


def truncated_g_series(q: int, lam: float, ridge_op: OperatorHandle, y0,
                       callback: Optional[Callable[[int, np.ndarray], None]] = None) -> np.ndarray:
    """Partial sum ``sum_{i=1}^{q} lambda^{i-1} (M^{-1})^i y0`` via the series recurrence.

    ``ridge_op`` applies ``M^{-1} = (A^T A + lambda I)^{-1}``, whose
    eigenvalues lie in (0, 1/lambda].  The sum is
    built as ``s_1 = R(y0)``, ``s_{k+1} = s_1 + lambda * R(s_k)``; only one
    extra vector is kept.  When ``y0`` lies in the span where M^{-1} has
    spectrum at most ``1/(2 lambda)`` (the top subspace), the deviation of
    the exact partial sum from the full inverse is bounded by
    ``kappa_lambda ||b||_2 / 2^q`` in the ``A^T A`` norm.

    ``callback(k, s_k)`` is invoked for k = 1..q.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    y0 = _as_finite_1d(y0, ridge_op.dimension, what="series seed")
    s1 = np.asarray(ridge_op.apply(y0), dtype=np.float64)
    s = s1
    if callback is not None:
        callback(1, s.copy())
    for k in range(1, q):
        s = s1 + lam * np.asarray(ridge_op.apply(s), dtype=np.float64)
        if callback is not None:
            callback(k + 1, s.copy())
    return s


def pc_regress(A: DesignMatrix, cfg: PcrConfig, b, stats: MatrixStats,
               callback: Optional[Callable[[int, np.ndarray], None]] = None) -> np.ndarray:
    """Solve principal component regression using only ridge regression.

    Returns ``s`` with ``||s - x_pcr||_{A^T A} <= eps ||b||_2`` under the
    spectral-gap window of the projection step, where ``x_pcr`` is the
    exact PCR solution for threshold lambda.  Inner failures carry a stage
    label ("projection" or "series step k").

    ``callback(i, s_i)`` reports the series iterate after i steps,
    i = 0..q, where iterate 0 is the plain ridge solution of the projected
    right-hand side.
    """
    b = _as_finite_1d(b, A.n_rows, what="right-hand side")
    q, eps_inner, eps_op = cfg.resolve(stats)
    proj_cfg = ProjectionConfig(lam=cfg.lam, gamma=cfg.gamma, eps=eps_inner)
    y = A.rmatvec(b)
    try:
        y_proj = pc_proj(A, proj_cfg, y, stats)
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(f"projection stage failed: {exc}",
                                 diagnostic=exc.diagnostic) from exc

    params = RidgeParams(lam=cfg.lam, eps=eps_inner)
    step = {"k": 0}

    def ridge_apply(v):
        step["k"] += 1
        try:
            return ridge_solve(A, params, v, stats)
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(f"series step {step['k']} failed: {exc}",
                                     diagnostic=exc.diagnostic) from exc

    handle = OperatorHandle(dimension=A.n_cols, apply=ridge_apply, err_bound=eps_op)
    series_cb = None
    if callback is not None:
        def series_cb(k, s_k):
            callback(k - 1, s_k)

    # Algorithm loop: s_0 := ridge(y_proj), then q updates s := s_0 + lam*ridge(s),
    # i.e. the (q+1)-term truncation of the correction series.
    return truncated_g_series(q + 1, cfg.lam, handle, y_proj, callback=series_cb)
