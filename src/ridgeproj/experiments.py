"""Convergence experiments: per-iteration error against the exact oracle.

These runs produce the synthetic-data convergence curves as CSV data.
Projection error is reported in the 2-norm relative to the exact
projection; regression error as the squared ``A^T A``-norm ratio relative
to the exact PCR solution.
"""

from __future__ import annotations

import numpy as np

from .matrix import DesignMatrix, _as_finite_1d, _check_int, gram_norm
from .pcr import PcrConfig, pc_regress
from .project import ProjectionConfig, pc_proj
from .spectral import matrix_stats
from .svd import exact_pcr, exact_projection, svd_small
from .synthetic import SyntheticProblem
from .trace import ConvergenceTrace

__all__ = ["convergence_trace", "run_convergence"]


def convergence_trace(A: DesignMatrix, b, lam: float, gamma: float, algo: str,
                      eps: float, max_q: int, seed=None) -> ConvergenceTrace:
    """Trace one algorithm on explicit data, measured against the SVD oracle.

    ``gamma`` is the algorithm's gap parameter.  For ``algo="project"`` the
    projected vector is ``A^T b`` and errors are
    ``||s_k - P A^T b||_2 / ||P A^T b||_2``; for ``algo="pcr"`` errors are
    ``||A(s_k - x*)||_2^2 / ||A x*||_2^2`` against the exact PCR solution.
    When the reference is zero, the input's norm (squared for ``"pcr"``)
    is the denominator instead.  ``max_q`` fixes the number of recorded
    iterations (the trace has ``max_q + 1`` entries); it and ``algo`` are
    checked before any oracle or Lanczos run.
    """
    if algo not in ("project", "pcr"):
        raise ValueError(f"algo must be 'project' or 'pcr', got {algo!r}")
    _check_int(max_q, "max_q")
    b = _as_finite_1d(b, A.n_rows, what="right-hand side")
    oracle = svd_small(A)
    stats = matrix_stats(A, lam)

    if algo == "project":
        x = A.rmatvec(b)
        cfg = ProjectionConfig(lam=lam, gamma=gamma, eps=eps, q_override=max_q)
        run, ref, power = pc_proj, exact_projection(oracle, lam, x), 1
        algorithm, norm = "projection", np.linalg.norm
    else:
        x = b
        cfg = PcrConfig(lam=lam, gamma=gamma, eps=eps, q_override=max_q)
        run, ref, power = pc_regress, exact_pcr(oracle, lam, b), 2
        algorithm = "regression"

        def norm(v):
            return gram_norm(A, v)

    denom = float(norm(ref)) ** power or float(np.linalg.norm(x)) ** power or 1.0
    records = []

    def on_iterate(k, s_k):
        records.append((k, float(norm(s_k - ref)) ** power / denom))

    run(A, cfg, x, stats, callback=on_iterate)
    metadata = {"gamma": gamma, "lam": lam, "eps": eps, "seed": seed}
    return ConvergenceTrace(records=records, algorithm=algorithm, metadata=metadata)


def run_convergence(problem: SyntheticProblem, algo: str, eps: float,
                    max_q: int) -> ConvergenceTrace:
    """Trace one algorithm on a synthetic problem.

    The algorithm's gap parameter is derived from the problem's
    construction (:meth:`SyntheticProblem.algorithm_gap`); the recorded
    metadata keeps the problem's own data gap and seed.
    """
    trace = convergence_trace(problem.A, problem.b, problem.lam,
                              problem.algorithm_gap(), algo, eps, max_q,
                              seed=problem.seed)
    trace.metadata["gamma"] = problem.gamma
    trace.metadata["gamma_alg"] = problem.algorithm_gap()
    return trace
