"""Iterative application of the step polynomial to an operator.

The operator is available only as a black box that applies a symmetric
matrix approximately.  The recurrence below tolerates that noise: the
error of the output grows at most linearly in the iteration count times
the relative per-application error, provided the iteration count stays
within the budget ``k <= 1/(7 eps)``; an absolute error term can grow
faster (see :class:`OperatorHandle`).

Precision.  The stability analysis assumes arithmetic with a number of
bits that grows like log(d / (eps * gap)).  Everything here runs in plain
64-bit floats (53-bit mantissa), which covers that premise for
``eps * gap >= 1e-6`` at dimensions up to about 1e6; far below that
product, the documented ridge-solver residual floor becomes the effective
accuracy limit rather than the bounds proved for the recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import BudgetExceeded, ConvergenceFailure
from .matrix import _as_finite_1d

__all__ = ["OperatorHandle", "apply_step"]


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
    on the scale of ``||y||_2``: the projection handle of
    :func:`~ridgeproj.project.pc_proj` guarantees
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
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if not 0.0 <= self.err_bound < np.inf:  # NaN would skip apply_step's budget guard
            raise ValueError(f"err_bound must be nonnegative and finite, got {self.err_bound!r}")


def _check_int(value, name, minimum=1):
    """Refuse all but an ``int`` or ``np.integer`` of at least ``minimum``; ``bool`` too."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def _guarded(op: OperatorHandle, x, k):
    try:
        out = op.apply(x)
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(
            f"operator application failed at iteration {k}: {exc}",
            diagnostic=exc.diagnostic,
        ) from exc
    return np.asarray(out, dtype=np.float64)


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
    of :func:`~ridgeproj.project.pc_proj` return +0.0 vectors for a
    right-hand side below their query-level floor, and once one +0.0
    increment has been added, adding more changes no bit of s.

    ``callback(k, s_k)`` (if given) receives a copy of the iterate after
    initialization (k = 0) and after each of the q updates, also for the
    steps skipped after a zero increment.
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
    return s
