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

The paper's failure probability delta has no counterpart here: the inner
solvers are deterministic, conjugate gradient meeting its tolerance or
raising, and a Cholesky solve on tall dense matrices (see
:mod:`ridgeproj.ridge`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._float64 import _EPS, _ceil_tight
from .matrix import DesignMatrix, _as_finite_1d
from .ridge import _gram_solver
from .spectral import MatrixStats, _check_lam
from .stepfn import OperatorHandle, _check_int, apply_step

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

    The outer iteration count defaults to
    ``q = ceil((2 gamma)^-2 ln(2/eps))``, and ``q_override`` pins it.  The
    inner ridge tolerance always follows from eps, gamma and q:
    ``eps' = min(eps^2 gamma^2 / (8 sqrt(kappa)), 1 / (60 q sqrt(kappa)))``
    with ``kappa = max(kappa_lambda, 1)``, so a lambda far above sigma_1^2
    cannot push eps' to 1 or beyond.
    """

    def resolve(self, stats: MatrixStats):
        """Concrete (q, eps_inner, eps_op) for the given matrix stats.

        Validates the accumulated-noise budget ``7 q (eps_op + eps_machine)
        <= eps`` where ``eps_op = sqrt(kappa) * eps_inner`` bounds the
        relative error of one operator application and ``eps_machine`` its
        query-level floor (see :func:`pc_proj`); a violating override is a
        configuration error, raised here rather than surfacing as silent
        inaccuracy.  ``14 q eps_machine`` is the float64 resolution level of
        q steps, a convention rather than a proven bound on what the floor
        costs (that bound is in :class:`~ridgeproj.stepfn.OperatorHandle`):
        an ``eps`` below it is met only up to that level, like the ridge
        residual floor, and the budget is checked against it instead.
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
        eps_inner = min(eps_inner, cap)
        eps_op = sqrt_kappa * eps_inner
        noise = 7.0 * q * (eps_op + _EPS)
        budget = max(self.eps, 14.0 * q * _EPS)
        if noise > budget:
            raise ValueError(
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

    Each of the ``2q + 1`` applications of ``B`` returns ``x`` with
    ``||x - B v||_2 <= eps_op ||v||_2 + eps_machine ||y||_2``: the ridge
    solves stop at the float64 resolution of the query instead of refining
    recurrence increments far below it.  The relative term costs at most
    ``7 q eps_op ||y||_2``, which :meth:`ProjectionConfig.resolve` keeps
    within budget.  The absolute term costs at most ``8 q (1 + min(q,
    1/alpha^2)) eps_machine ||y||_2`` (proved at
    :class:`~ridgeproj.stepfn.OperatorHandle`), where ``alpha = 2 gamma /
    (1 - 2 gamma)`` when the gap window holds, so at most ``8 q (1 +
    1/(4 gamma^2)) eps_machine ||y||_2``: about 2e-9 ``||y||_2`` at q =
    2565 and gamma = 0.023.

    ``callback(k, s_k)`` (if given) receives the iterate after k outer
    iterations, k = 0..q, where iterate 0 is ``B y``.
    """
    y = _as_finite_1d(y, A.n_cols, what="input vector")
    q, eps_inner, eps_op = cfg.resolve(stats)
    apply = _gram_solver(A, stats, eps_inner, query_norm=float(np.linalg.norm(y)))
    handle = OperatorHandle(dimension=A.n_cols, apply=apply, err_bound=eps_op)
    return apply_step(handle, y, q, callback=callback)
