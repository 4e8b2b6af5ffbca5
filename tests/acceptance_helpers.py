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

N, D, TOP_RANK = 120, 80, 20
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
    coeff = F.V.T @ y
    perp = y - F.V @ coeff
    x_star = F.V @ (coeff / (F.singular_values ** 2 + lam)) + perp / lam
    diff = x - x_star
    dc = F.V.T @ diff
    dp = diff - F.V @ dc
    lhs = float(np.sqrt(np.sum((F.singular_values ** 2 + lam) * dc ** 2) + lam * (dp @ dp)))
    rhs = float(eps * np.sqrt(np.sum(coeff ** 2 / (F.singular_values ** 2 + lam))
                              + (perp @ perp) / lam))
    return lhs, rhs
