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
    """Criterion 1's problem on the rational engine: ``(error, certified bound)`` over ``||y||``."""
    import ridgeproj.project as project

    seed, gamma = args
    problem = gen_synthetic(N, D, TOP_RANK, gamma, seed=seed)
    stats = matrix_stats(problem.A, problem.lam)
    y = np.random.default_rng([seed, 777]).standard_normal(D)
    cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=PROJ_EPS,
                           method="rational")
    bounds = []
    engine = project.apply_rational_step

    def recording(*args):
        s, bound = engine(*args)
        bounds.append(bound)
        return s, bound

    project.apply_rational_step = recording
    try:
        s = pc_proj(problem.A, cfg, y, stats)
    finally:
        project.apply_rational_step = engine
    y_norm = float(np.linalg.norm(y))
    err = float(np.linalg.norm(s - exact_projection(svd_small(problem.A), problem.lam, y)))
    return err / y_norm, bounds[0] / y_norm


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


def factored_ridge_worker(seed):
    """One seeded dense instance with ``n >= 10 d``: ``(factored, worst ratio)``.

    ``factored`` says that the projection's ridge handle Cholesky-factors the
    ridge matrix; the ratio is the largest, over four vectors v, of its error
    against the SVD oracle over the handle's contract
    ``eps_op ||v|| + eps_machine ||y||``, ``eps_op = (sigma1 / sqrt(lam)) eps``.
    """
    from ridgeproj import DesignMatrix
    from ridgeproj.ridge import _gram_solver, _ridge_factor

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
    apply = _gram_solver(A, stats, eps, y_norm)
    eps_op = stats.sigma1_estimate / np.sqrt(lam) * eps

    F = svd_small(A)
    v = rng.standard_normal(d)
    worst = 0.0
    for x in (y, v, 1e3 * v, 1e-14 * v):  # the last one is below the query floor
        exact = F.V @ (F.singular_values ** 2 / (F.singular_values ** 2 + lam) * (F.V.T @ x))
        err = float(np.linalg.norm(apply(x) - exact))
        worst = max(worst, err / (eps_op * np.linalg.norm(x) + np.finfo(float).eps * y_norm))
    return _ridge_factor(A._gram._dense, lam) is not None, worst


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
