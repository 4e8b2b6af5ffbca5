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

The inner solver is deterministic conjugate gradient, so the failure-rate
parameter delta is carried for interface fidelity but the algorithm cannot
fail randomly; delta is split as delta/(2q) across ridge calls exactly as a
stochastic solver would require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._float64 import _EPS, _ceil_tight
from .matrix import DesignMatrix, _as_finite_1d
from .ridge import RidgeParams, _gram_solver
from .spectral import MatrixStats
from .stepfn import IterateState, OperatorHandle, apply_step
from .svd import SvdFactors, exact_projection
from .trace import ConvergenceTrace

__all__ = ["ProjectionConfig", "pc_proj", "pc_proj_trace"]


@dataclass(frozen=True)
class ProjectionConfig:
    """Parameters of the projection iteration.

    Defaults derive the outer iteration count as
    ``q = ceil((2 gamma)^-2 ln(2/eps))`` and the inner ridge tolerance as
    ``eps' = eps^2 gamma^2 / (c2 sqrt(kappa_lambda))`` with ``c2 = 8``.
    Setting ``c1`` switches the count to ``ceil(c1 gamma^-2 ln(1/eps))``;
    ``q_override`` / ``eps_inner_override`` pin either quantity directly.
    """

    lam: float
    gamma: float
    eps: float
    delta: float = 0.5
    c1: float | None = None
    c2: float = 8.0
    q_override: int | None = None
    eps_inner_override: float | None = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.c1 is not None and self.c1 <= 0:
            raise ValueError("c1 must be positive")
        if self.c2 <= 0:
            raise ValueError("c2 must be positive")
        if self.q_override is not None and self.q_override < 1:
            raise ValueError("q_override must be at least 1")
        if self.eps_inner_override is not None and not 0.0 < self.eps_inner_override < 1.0:
            raise ValueError("eps_inner_override must lie in (0, 1)")

    def resolve(self, stats: MatrixStats):
        """Concrete (q, eps_inner, delta_inner) for the given matrix stats.

        Validates the accumulated-noise budget ``7 q (eps_op + eps_machine)
        <= eps`` where ``eps_op = sqrt(kappa) * eps_inner`` bounds the
        relative error of one operator application and ``eps_machine`` its
        query-level floor (see :func:`pc_proj`); a violating override is a
        configuration error, raised here rather than surfacing as silent
        inaccuracy.  An ``eps`` below ``14 q eps_machine``, twice what the
        floor alone can cost, is beyond the float64 resolution of q steps:
        it is met only up to that level, like the ridge residual floor,
        and the budget is checked against it instead.
        """
        stats.check_lambda(self.lam)
        if self.q_override is not None:
            q = self.q_override
        elif self.c1 is not None:
            q = _ceil_tight(self.c1 * self.gamma ** -2 * math.log(1.0 / self.eps))
        else:
            q = _ceil_tight((2.0 * self.gamma) ** -2 * math.log(2.0 / self.eps))
        q = max(q, 1)
        sqrt_kappa = math.sqrt(stats.kappa_lambda)
        if self.eps_inner_override is not None:
            eps_inner = self.eps_inner_override
        else:
            eps_inner = self.eps ** 2 * self.gamma ** 2 / (self.c2 * sqrt_kappa)
            # Keep the default inside the validity range of the stable
            # recurrence (q <= 1/(7 eps_C), eps_C ~ 8 eps_op); only binds
            # for eps near 1.
            cap = 1.0 / (60.0 * q * sqrt_kappa)
            eps_inner = min(eps_inner, cap)
        eps_op = sqrt_kappa * eps_inner
        noise = 7.0 * q * (eps_op + _EPS)
        budget = max(self.eps, 14.0 * q * _EPS)
        if noise > budget:
            raise ValueError(
                f"noise budget violated: 7*q*(eps_op + eps_machine) = {noise:.3e}"
                f" exceeds {budget:.3e} (eps = {self.eps}); lower eps_inner or q"
            )
        delta_inner = self.delta / (2.0 * q)
        return q, eps_inner, delta_inner


def _smooth_projection_handle(A, cfg, stats, y, eps_inner, delta_inner):
    """Handle applying B with error at most ``eps_op ||v|| + eps_machine ||y||``."""
    params = RidgeParams(lam=cfg.lam, eps=eps_inner, delta=delta_inner)
    eps_op = math.sqrt(stats.kappa_lambda) * eps_inner
    apply = _gram_solver(A, params, stats, query_norm=float(np.linalg.norm(y)))
    return OperatorHandle(dimension=A.n_cols, apply=apply, err_bound=eps_op)


def pc_proj(A: DesignMatrix, cfg: ProjectionConfig, y, stats: MatrixStats) -> np.ndarray:
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
    recurrence increments far below it.  Together the two terms cost at
    most ``7 q (eps_op + eps_machine) ||y||_2``, which
    :meth:`ProjectionConfig.resolve` keeps within budget.
    """
    y = _as_finite_1d(y, A.n_cols, what="input vector")
    q, eps_inner, delta_inner = cfg.resolve(stats)
    if not np.any(y):
        return np.zeros(A.n_cols)
    handle = _smooth_projection_handle(A, cfg, stats, y, eps_inner, delta_inner)
    return apply_step(handle, y, q)


def pc_proj_trace(A: DesignMatrix, cfg: ProjectionConfig, y, stats: MatrixStats,
                  oracle: SvdFactors | None = None):
    """Run :func:`pc_proj` and record per-iteration relative errors.

    With an ``oracle`` factorization the error of iterate k is
    ``||s_k - P y||_2 / ||P y||_2``; without one, iterates are compared
    against the final iterate.  Returns ``(s, ConvergenceTrace)`` with
    ``q + 1`` records (initialization plus one per iteration).
    """
    y = _as_finite_1d(y, A.n_cols, what="input vector")
    q, eps_inner, delta_inner = cfg.resolve(stats)
    handle = _smooth_projection_handle(A, cfg, stats, y, eps_inner, delta_inner)

    records = []
    if oracle is not None:
        ref = exact_projection(oracle, cfg.lam, y)
        denom = float(np.linalg.norm(ref))
        if denom == 0.0:
            denom = float(np.linalg.norm(y)) or 1.0

        def on_iterate(state: IterateState):
            records.append((state.k, float(np.linalg.norm(state.s - ref)) / denom))

        s = apply_step(handle, y, q, callback=on_iterate)
    else:
        iterates = []

        def on_iterate(state: IterateState):
            iterates.append(state.s)

        s = apply_step(handle, y, q, callback=on_iterate)
        denom = float(np.linalg.norm(s)) or 1.0
        records = [(k, float(np.linalg.norm(it - s)) / denom) for k, it in enumerate(iterates)]

    trace = ConvergenceTrace(
        records=records,
        algorithm="projection",
        metadata={"gamma": cfg.gamma, "lam": cfg.lam, "eps": cfg.eps, "seed": None},
    )
    return s, trace
