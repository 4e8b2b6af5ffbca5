"""Principal component regression from projection plus a stable series.

The exact PCR solution is ``(A^T A)^{-1} P A^T b``, but applying the plain
inverse amplifies any error in the projected vector by up to the inverse of
the smallest squared singular value, which is catastrophic in floating
point.  Instead, the inverse is reached through the ridge operator
``M^{-1} = (A^T A + lambda I)^{-1}`` (spectral norm at most 1/lambda) and
the correction series

    g(x) = x / (1 - lambda x) = sum_{i>=1} lambda^{i-1} x^i,

truncated after q + 1 terms.  :func:`pc_regress` sums it itself, one
ridge solve per term.  On the top subspace, where M^{-1} has spectrum at
most 1/(2 lambda), the truncation tail is below ``kappa_lambda / 2^q``,
while the small singular directions are deliberately *not* fully
inverted; that is the source of the method's stability.

The projection of ``A^T b`` that the series starts from runs on the
certified rational engine (``ProjectionConfig(method="rational")``, see
:func:`~ridgeproj.stepfn.apply_rational_step`): tens of ridge
applications where the step polynomial makes hundreds, and a projection
returned only once a bound computed after the run, from recomputed
residuals, is within its tolerance.  Where the engine cannot certify that
tolerance on the ridge handle (its stated error, the ridge residual floor,
grows like kappa_lambda^2: at gamma = 0.1 the engine takes eps = 1e-2 up
to kappa_lambda near 400 and eps = 1e-4 up to near 50), the stage runs on
the step polynomial instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._float64 import _TINY, _ceil_tight
from .exceptions import ConvergenceFailure
from .matrix import DesignMatrix, _as_finite_1d
from .project import ProjectionConfig, _StageConfig, _rational_certifies, pc_proj
from .ridge import ridge_solve
from .spectral import MatrixStats

__all__ = ["PcrConfig", "pc_regress"]

# Default series length q = ceil(C1 ln(kappa/eps)) and inner tolerance
# eps / (C2 q^2 sqrt(kappa)).
_C1 = 2.0
_C2 = 4.0


@dataclass(frozen=True)
class PcrConfig(_StageConfig):
    """Parameters of the regression series.

    Defaults, with ``kappa = max(kappa_lambda, 1)``: ``q = ceil(2 ln(kappa /
    eps))`` (so the series tail ``kappa/2^q`` is safely below eps) and inner
    tolerance ``eps' = eps / (4 q^2 sqrt(kappa))``, at least the smallest
    normal double.  The projection of ``A^T b`` is computed once, at
    tolerance eps', by the rational engine where it can certify eps', and by
    the step polynomial otherwise.
    """

    def resolve(self, stats: MatrixStats):
        """Concrete (q, eps_inner, eps_op) for the given matrix stats.

        ``eps_op = eps_inner / lambda`` bounds the relative 2-norm error of
        one series application of ``M^{-1}``: ``||R(v) - M^{-1} v||_2 <=
        ||.||_M / sqrt(lambda)`` and ``||v||_{M^{-1}} <= ||v||_2 /
        sqrt(lambda)``, so the ridge solver's M-norm contract gives
        ``eps_inner ||v||_2 / lambda``.
        """
        stats.check_lambda(self.lam)
        kappa = max(stats.kappa_lambda, 1.0)
        if self.q_override is not None:
            q = self.q_override
        else:
            q = _ceil_tight(_C1 * math.log(kappa / self.eps))
        eps_inner = max(self.eps / (_C2 * q * q * math.sqrt(kappa)), _TINY)
        return q, eps_inner, eps_inner / self.lam


def pc_regress(A: DesignMatrix, cfg: PcrConfig, b, stats: MatrixStats,
               callback: Optional[Callable[[int, np.ndarray], None]] = None) -> np.ndarray:
    """Solve principal component regression using only ridge regression.

    Returns ``s`` with ``||s - x_pcr||_{A^T A} <= eps ||b||_2`` under the
    spectral-gap window of the projection step, where ``x_pcr`` is the
    exact PCR solution for threshold lambda.  After projecting
    ``y = A^T b`` with ``pc_proj`` to eps' (on ``method="rational"``,
    certified after the run, where that engine can certify eps' on A's
    ridge handle, otherwise on ``"pk"``), the series runs ``q + 1`` ridge
    solves ``R``:

        s_0 = R(P y),   s_k = s_0 + lambda R(s_{k-1}),   k = 1..q,

    so ``s_q = sum_{i=1}^{q+1} lambda^{i-1} (M^{-1})^i P y``.  Inner
    failures carry a stage label: "projection", or "series step j" for
    the j-th series solve, j = 1..q+1.

    ``callback(k, s_k)`` (if given) receives a copy of each series iterate,
    k = 0..q.
    """
    b = _as_finite_1d(b, A.n_rows, what="right-hand side")
    q, eps_inner, _ = cfg.resolve(stats)
    proj_cfg = ProjectionConfig(lam=cfg.lam, gamma=cfg.gamma, eps=eps_inner, method="rational")
    if not _rational_certifies(proj_cfg, stats):
        proj_cfg = replace(proj_cfg, method="pk")
    y = A.rmatvec(b)
    try:
        y_proj = pc_proj(A, proj_cfg, y, stats)
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(f"projection stage failed: {exc}",
                                 diagnostic=exc.diagnostic) from exc

    def solve(v, step):
        try:
            return ridge_solve(A, eps_inner, v, stats)
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(f"series step {step} failed: {exc}",
                                     diagnostic=exc.diagnostic) from exc

    s0 = s = solve(y_proj, 1)
    if callback is not None:
        callback(0, s.copy())
    for k in range(1, q + 1):
        s = s0 + cfg.lam * solve(s, k + 1)
        if callback is not None:
            callback(k, s.copy())
    return s
