"""Module-level workers for the acceptance suite's process pool."""

import time

import numpy as np

from ridgeproj import (
    PcrConfig,
    ProjectionConfig,
    exact_pcr,
    exact_projection,
    gen_synthetic,
    gram_norm,
    integral_step_oracle,
    matrix_stats,
    p_k_grid,
    pc_proj,
    pc_regress,
    svd_small,
)
from helpers import black_box_rational, m_inv_norm, m_inverse_apply, m_norm, recorded_gram_step

N, D, TOP_RANK = 120, 80, 20
TALL_N, TALL_D, TALL_TOP_RANK = 400, 40, 8
PROJ_EPS = 1e-4
PCR_EPS = 1e-3


def solve_synthetic(args):
    """One synthetic problem: projection and regression errors vs the oracle."""
    seed, gamma = args
    problem = gen_synthetic(N, D, TOP_RANK, gamma, seed=seed)
    oracle = svd_small(problem.A)
    stats = matrix_stats(problem.A, problem.lam)
    g_alg = problem.algorithm_gap()

    y = np.random.default_rng([seed, 777]).standard_normal(D)
    proj_cfg = ProjectionConfig(lam=problem.lam, gamma=g_alg, eps=PROJ_EPS)
    q, _, _ = proj_cfg.resolve(stats)
    t0 = time.perf_counter()
    s = pc_proj(problem.A, proj_cfg, y, stats)
    proj_time = time.perf_counter() - t0
    proj_err = float(np.linalg.norm(s - exact_projection(oracle, problem.lam, y)))

    pcr_cfg = PcrConfig(lam=problem.lam, gamma=g_alg, eps=PCR_EPS)
    t0 = time.perf_counter()
    x = pc_regress(problem.A, pcr_cfg, problem.b, stats)
    pcr_time = time.perf_counter() - t0
    pcr_err = float(gram_norm(problem.A, x - exact_pcr(oracle, problem.lam, problem.b)))

    return {
        "seed": seed,
        "gamma": gamma,
        "q": q,
        "gamma_alg": g_alg,
        "proj_err": proj_err,
        "y_norm": float(np.linalg.norm(y)),
        "proj_time": proj_time,
        "pcr_err": pcr_err,
        "b_norm": float(np.linalg.norm(problem.b)),
        "pcr_time": pcr_time,
    }


def rational_projection_worker(args):
    """Criterion 1's problem on the black-box rational engine: ``(error, certified bound)`` over ``||y||``."""
    seed, gamma = args
    problem = gen_synthetic(N, D, TOP_RANK, gamma, seed=seed)
    stats = matrix_stats(problem.A, problem.lam)
    y = np.random.default_rng([seed, 777]).standard_normal(D)
    s, bound = black_box_rational(problem.A, stats, y, problem.algorithm_gap(), PROJ_EPS)
    err = float(np.linalg.norm(s - exact_projection(svd_small(problem.A), problem.lam, y)))
    return err / float(np.linalg.norm(y)), bound


def gram_projection_worker(args):
    """Criterion 1's problem on ``pc_proj(method="rational")``: ``(error, certified bound)`` over ``||y||``."""
    seed, gamma = args
    problem = gen_synthetic(N, D, TOP_RANK, gamma, seed=seed)
    stats = matrix_stats(problem.A, problem.lam)
    y = np.random.default_rng([seed, 777]).standard_normal(D)
    cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=PROJ_EPS,
                           method="rational")
    s, bound = recorded_gram_step(pc_proj, problem.A, cfg, y, stats)
    err = float(np.linalg.norm(s - exact_projection(svd_small(problem.A), problem.lam, y)))
    return err / float(np.linalg.norm(y)), bound


def integral_identity_worker(k):
    """Max |p_k - quadrature oracle| over the criterion grid for one k."""
    quad_tol = 1e-9
    xs = np.arange(1, 1001) / 1000.0
    pk = p_k_grid(xs, k)
    worst = 0.0
    for x, p in zip(xs, pk):
        worst = max(worst, abs(p - integral_step_oracle(float(x), k, quad_tol)))
    return k, worst, quad_tol


def ridge_contract_instance(seed):
    """One seeded ridge instance of criterion 8: ``(arr, A, lam, eps, y)``."""
    from ridgeproj import DesignMatrix

    rng = np.random.default_rng([seed, 4242])
    n = int(rng.integers(10, 120))
    d = int(rng.integers(4, min(n, 100) + 1))
    arr = rng.standard_normal((n, d))
    arr *= float(rng.uniform(0.5, 2.0)) / np.linalg.norm(arr, 2)
    A = DesignMatrix.from_dense(arr)
    lam = float(rng.uniform(0.05, 5.0))
    eps = float(10 ** rng.uniform(-8, -0.5))
    y = rng.standard_normal(d)
    return arr, A, lam, eps, y


def ridge_contract_worker(seed):
    """One seeded ridge instance; returns (lhs, rhs) of the error contract."""
    from ridgeproj import ridge_solve

    _, A, lam, eps, y = ridge_contract_instance(seed)
    stats = matrix_stats(A, lam)
    x = ridge_solve(A, eps, y, stats)

    F = svd_small(A)
    return m_norm(F, lam, x - m_inverse_apply(F, lam, y)), eps * m_inv_norm(F, lam, y)


def factored_ridge_worker(seed):
    """One seeded dense instance with ``n >= 10 d``: ``(factored, worst ratio)``.

    ``factored`` says that the projection's ridge handle Cholesky-factors the
    ridge matrix; the ratio is the largest, over four vectors v, of its error
    against the SVD oracle over the contract ``eps_op ||v|| + eps_machine
    ||y||``, ``eps_op = (sigma1 / sqrt(lam)) eps``: the factored solve's own,
    tighter than the handle's ``err_bound``, which also states the CG
    residual floor.
    """
    from ridgeproj import DesignMatrix
    from ridgeproj.ridge import _gram_solver

    rng = np.random.default_rng([seed, 1212])
    d = int(rng.integers(2, 41))
    n = int(rng.integers(10 * d, 20 * d + 1))
    arr = rng.standard_normal((n, d))
    arr *= float(rng.uniform(0.5, 2.0)) / np.linalg.norm(arr, 2)
    A = DesignMatrix.from_dense(arr)
    lam = float(rng.uniform(0.05, 5.0))
    eps = float(10 ** rng.uniform(-8, -0.5))
    y = rng.standard_normal(d)
    stats = matrix_stats(A, lam)
    y_norm = float(np.linalg.norm(y))
    apply = _gram_solver(A, stats, eps, y_norm).apply
    eps_op = stats.sigma1_estimate / np.sqrt(lam) * eps

    F = svd_small(A)
    v = rng.standard_normal(d)
    worst = 0.0
    for x in (y, v, 1e3 * v, 1e-14 * v):  # the last one is below the query floor
        exact = F.V @ (F.singular_values ** 2 / (F.singular_values ** 2 + lam) * (F.V.T @ x))
        err = float(np.linalg.norm(apply(x) - exact))
        worst = max(worst, err / (eps_op * np.linalg.norm(x) + np.finfo(float).eps * y_norm))
    return A._ridge_factor(lam) is not None, worst


def tall_projection_worker(args):
    """``pc_proj``'s error over ``PROJ_EPS ||y||`` on one tall synthetic problem."""
    seed, gamma = args
    problem = gen_synthetic(TALL_N, TALL_D, TALL_TOP_RANK, gamma, seed=seed)
    stats = matrix_stats(problem.A, problem.lam)
    y = np.random.default_rng([seed, 778]).standard_normal(TALL_D)
    cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=PROJ_EPS)
    s = pc_proj(problem.A, cfg, y, stats)
    err = float(np.linalg.norm(s - exact_projection(svd_small(problem.A), problem.lam, y)))
    return err / (PROJ_EPS * float(np.linalg.norm(y)))


SWEEP_EPS = (1e-2, 1e-4, 1e-8)


def kappa_sweep_worker(kappa):
    """Criterion 14's sweep at one kappa_lambda: one row per eps.

    A 600 x 300 dense matrix with lambda = 1, 30 top squared singular values
    geometric from ``kappa`` down to the window edge of gamma = 0.1, and the
    rest below it.  Each row is ``(eps, outcome, error / eps, bound / eps,
    gram products made, black-box engine certified)``, where outcome is
    "certified" or "refused" (``BudgetExceeded``).
    """
    from ridgeproj import BudgetExceeded, DesignMatrix
    from helpers import Recorder, spectrum_dense

    gamma, lam = 0.1, 1.0
    rng = np.random.default_rng([14, int(np.log10(kappa))])
    edge = lam / (1.0 - 4.0 * gamma)
    squared = np.concatenate([np.geomspace(kappa * lam, edge, 30),
                              rng.uniform(0.0, (1.0 - 4.0 * gamma) * lam, 270)])
    A = spectrum_dense(rng, 600, squared)
    stats = matrix_stats(A, lam)
    y = rng.standard_normal(300)
    ny = float(np.linalg.norm(y))
    ref = exact_projection(svd_small(A), lam, y)
    rows = []
    for eps in SWEEP_EPS:
        try:
            black_box_rational(A, stats, y, gamma, eps)
            black_box = True
        except BudgetExceeded:
            black_box = False
        cfg = ProjectionConfig(lam=lam, gamma=gamma, eps=eps, method="rational")
        with Recorder(DesignMatrix, "_mv") as products:
            try:
                s, bound = recorded_gram_step(pc_proj, A, cfg, y, stats)
            except BudgetExceeded:
                rows.append((eps, "refused", None, None, len(products.calls), black_box))
                continue
        err = float(np.linalg.norm(s - ref)) / ny
        rows.append((eps, "certified", err / eps, bound / eps, len(products.calls), black_box))
    return rows
