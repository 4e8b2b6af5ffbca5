"""Spectral-norm estimation and per-matrix statistics.

The iterative algorithms need sigma_1(A) only to size tolerances via the
regularized condition number kappa_lambda = sigma_1^2 / lambda.  A seeded
power iteration on ``A^T A`` supplies the estimate; callers compute stats
once per matrix and pass them around, never inside the hot loops.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ._float64 import _EPS
from .exceptions import ConvergenceFailure
from .matrix import DesignMatrix, gram_apply

__all__ = ["MatrixStats", "spectral_norm_estimate", "matrix_stats"]


@dataclass(frozen=True)
class MatrixStats:
    """Per-matrix quantities consumed by the solvers.

    ``sigma1_estimate`` is deliberately inflated by the estimation tolerance
    so it upper-bounds the true spectral norm; a slight overestimate only
    tightens derived tolerances.  ``kappa_lambda = sigma1_estimate**2 / lam``
    always holds exactly as computed; ``stable_rank`` is informational.
    """

    sigma1_estimate: float
    kappa_lambda: float
    stable_rank: float
    lam: float

    def __post_init__(self):
        if self.sigma1_estimate < 0:
            raise ValueError("sigma1_estimate must be nonnegative")
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")

    def check_lambda(self, lam: float):
        if self.lam != lam:
            raise ValueError(
                f"MatrixStats built for lambda={self.lam}, used with lambda={lam};"
                " recompute stats with matrix_stats(A, lam)"
            )


def spectral_norm_estimate(A: DesignMatrix, tol: float = 1e-3, max_iters: int = 10_000,
                           seed: int = 0) -> float:
    """Estimate sigma_1(A) by seeded power iteration on ``A^T A``.

    Deterministic for a fixed seed.  The Rayleigh quotient of the gram
    operator increases monotonically under power iteration.  A candidate is
    declared once the remaining error, extrapolated from the geometric
    decay of the quotient's increments over a trailing window, drops below
    ``tol/4`` relative; the candidate is accepted only after a doubling
    confirmation: the iteration count is doubled and the quotient must not
    have moved by more than the same budget.  A mode slow enough to evade
    the confirmation is spectrally too close to the top to matter at the
    requested tolerance, so the estimate lands within
    ``(1 +/- tol) * sigma_1`` with overwhelming probability for a random
    start.

    Raises :class:`ConvergenceFailure` carrying the last Rayleigh quotient
    if ``max_iters`` is exhausted first.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.n_cols)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("degenerate start vector")
    v /= nv
    rho_prev = None
    rho = None
    window = deque(maxlen=9)
    candidate = None  # (iteration, rho) awaiting doubling confirmation
    for t in range(max_iters):
        w = gram_apply(A, v)
        rho = float(v @ w)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            raise ValueError("matrix is zero on the iteration subspace")
        v = w / nw
        if rho_prev is not None:
            delta = rho - rho_prev
            if candidate is None:
                triggered = abs(delta) <= 8.0 * _EPS * rho
                if not triggered and len(window) == window.maxlen \
                        and window[0] > 0 and delta > 0:
                    ratio = (delta / window[0]) ** (1.0 / window.maxlen)
                    if ratio < 1.0:
                        triggered = delta * ratio / (1.0 - ratio) <= 0.25 * tol * rho
                if triggered:
                    candidate = (t, rho)
            elif t >= 2 * candidate[0] + 8:
                if rho - candidate[1] <= 0.25 * tol * rho:
                    return float(np.sqrt(rho))
                candidate = None  # a slow mode surfaced; re-arm
            window.append(delta)
        rho_prev = rho
    raise ConvergenceFailure(
        f"power iteration did not stabilize within {max_iters} iterations"
        f" (last Rayleigh quotient {rho})",
        diagnostic=rho,
    )


def matrix_stats(A: DesignMatrix, lam: float, tol: float = 1e-3, max_iters: int = 10_000,
                 seed: int = 0) -> MatrixStats:
    """Compute :class:`MatrixStats` for ``A`` at threshold ``lam``.

    The power-iteration estimate is inflated by ``(1 + tol)`` so that
    ``sigma1_estimate >= sigma_1`` up to the estimator's own tolerance.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    sigma1 = spectral_norm_estimate(A, tol=tol, max_iters=max_iters, seed=seed)
    sigma1 *= 1.0 + tol
    fro2 = A.frobenius_norm() ** 2
    return MatrixStats(
        sigma1_estimate=sigma1,
        kappa_lambda=sigma1 ** 2 / lam,
        # sr(A) >= 1 always; the clamp absorbs the inflated sigma1 estimate.
        stable_rank=max(1.0, fro2 / sigma1 ** 2),
        lam=lam,
    )
