"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  The heavy criteria run their independent
problems on one module-wide pool of two spawned workers, so wall time
stays within the stated budgets on two cores.
"""

import math
import multiprocessing as mp

import numpy as np
import pytest

from ridgeproj import (
    DesignMatrix,
    PcrConfig,
    ProjectionConfig,
    apply_step,
    chebyshev_monomial_approx,
    compressed_sign_poly,
    exact_pcr,
    gen_synthetic,
    gram_norm,
    matrix_stats,
    OperatorHandle,
    p_k_grid,
    pc_proj,
    pc_regress,
    run_convergence,
    sign_poly_degree,
    svd_small,
)
import acceptance_helpers as helpers

GAMMAS = (0.05, 0.1, 0.2)
SEED_GAMMAS = [(seed, GAMMAS[seed % 3]) for seed in range(50)]


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def pool():
    """Two spawned workers with one BLAS thread each, shared by the module.

    A forked worker keeps the BLAS threads its parent started, so two of
    them oversubscribe two cores; a spawned one reads these variables
    before numpy loads.
    """
    with pytest.MonkeyPatch.context() as patch:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            patch.setenv(name, "1")
        workers = mp.get_context("spawn").Pool(processes=2)
    with workers:
        yield workers


@pytest.fixture(scope="module")
def synthetic_results(pool):
    return pool.map(helpers.solve_synthetic, SEED_GAMMAS)


def test_criterion_01_projection_oracle_equivalence(synthetic_results):
    worst = max(r["proj_err"] / (1e-4 * r["y_norm"]) for r in synthetic_results)
    total = sum(r["proj_time"] for r in synthetic_results)
    _report(1, "projection oracle equivalence", worst <= 1.0,
            f"50 problems, worst error at {worst:.3f} of the 1e-4*||y|| budget,"
            f" {total:.1f}s compute")


def test_criterion_02_pcr_oracle_equivalence(synthetic_results):
    worst = max(r["pcr_err"] / (1e-3 * r["b_norm"]) for r in synthetic_results)
    total = sum(r["pcr_time"] for r in synthetic_results)
    _report(2, "PCR oracle equivalence", worst <= 1.0,
            f"50 problems, worst error at {worst:.3f} of the 1e-3*||b|| budget,"
            f" {total:.1f}s compute")


def _fit_log_slope(trace):
    errs = np.array(trace.errors())[3:]
    its = np.array(trace.iterations())[3:]
    keep = errs > 0
    logs = np.log(errs[keep])
    its = its[keep].astype(float)
    slope, intercept = np.polyfit(its, logs, 1)
    fitted = slope * its + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, r2


def test_criterion_03_convergence_curves():
    details = []
    ok = True
    for gamma in GAMMAS:
        problem = gen_synthetic(helpers.N, helpers.D, helpers.TOP_RANK, gamma,
                                seed=1000 + int(gamma * 100))
        g_alg = problem.algorithm_gap()
        q_proj = math.ceil((2 * g_alg) ** -2 * math.log(2.0 / 1e-4))
        proj = run_convergence(problem, "project", eps=1e-4, max_q=q_proj)
        slope_p, r2_p = _fit_log_slope(proj)
        pcr = run_convergence(problem, "pcr", eps=1e-3, max_q=14)
        slope_r, r2_r = _fit_log_slope(pcr)
        ok &= slope_p < 0 and r2_p >= 0.9 and slope_r < 0 and r2_r >= 0.9
        details.append(f"g={gamma}: proj slope {slope_p:.2e} R2 {r2_p:.3f},"
                       f" pcr slope {slope_r:.2e} R2 {r2_r:.3f}")
    extended = gen_synthetic(helpers.N, helpers.D, helpers.TOP_RANK, 0.1, seed=1010)
    trace = run_convergence(extended, "project", eps=1e-12, max_q=14000)
    best = min(trace.errors())
    ok &= best <= 1e-10
    details.append(f"extended g=0.1 run bottoms at {best:.2e}")
    _report(3, "geometric convergence curves", ok, "; ".join(details))


def test_criterion_04_sign_sandwich():
    xs = np.arange(1, 1001) / 1000.0
    worst_low, worst_high = 0.0, -np.inf
    for k in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        gap = 1.0 - p_k_grid(xs, k)
        bound = np.exp(-k * xs * xs) / (xs * math.sqrt(k))
        worst_low = min(worst_low, float(gap.min()))
        worst_high = max(worst_high, float(np.max(gap - bound)))
    ok = worst_low >= 0.0 and worst_high <= 1e-12
    _report(4, "sign polynomial sandwich", ok,
            f"min(sgn-p_k) = {worst_low:.1e}, max excess over bound = {worst_high:.2e}"
            " (budget 1e-12), k in {1..1024}, 1000-point grid")


def test_criterion_05_integral_identity(pool):
    results = pool.map(helpers.integral_identity_worker, list(range(1, 65)))
    worst_k, worst, quad_tol = max(results, key=lambda r: r[1])
    ok = worst <= 1e-10 + quad_tol
    _report(5, "integral identity", ok,
            f"max |p_k - quadrature| = {worst:.2e} at k={worst_k}"
            f" (budget 1e-10 + quad_tol {quad_tol:.0e}), k <= 64")


def test_criterion_06_degree_rule_accuracy():
    worst = 0.0
    for alpha in (0.5, 0.25, 0.1):
        for eps in (1e-2, 1e-4):
            k = sign_poly_degree(alpha, eps)
            xs = np.linspace(alpha, 1.0, 2000)
            err = float(np.abs(1.0 - p_k_grid(xs, k)).max())
            err = max(err, float(np.abs(-1.0 - p_k_grid(-xs, k)).max()))
            worst = max(worst, err / eps)
    _report(6, "degree rule accuracy", worst <= 1.0,
            f"worst grid error at {worst:.3f} of its eps budget over"
            " (alpha, eps) in {0.5,0.25,0.1} x {1e-2,1e-4}")


def test_criterion_07_chebyshev_compression():
    xs = np.linspace(-1.0, 1.0, 10001)
    worst_excess = -np.inf
    for s in range(1, 65):
        powers = xs ** s
        for d in range(1, 65):
            poly = chebyshev_monomial_approx(s, d)
            err = float(np.abs(poly(xs) - powers).max())
            worst_excess = max(worst_excess, err - 2.0 * math.exp(-d * d / (2.0 * s)))
    grid_ok = worst_excess <= 1e-10

    alpha, eps = 0.25, 0.1
    poly = compressed_sign_poly(alpha, eps)
    k = math.ceil(alpha ** -2 * math.log(2.0 / eps))
    uncompressed_degree = 2 * k + 1
    keep = np.abs(xs) >= alpha
    sign_err = float(np.abs(np.sign(xs[keep]) - poly(xs[keep])).max())
    ok = grid_ok and poly.degree() < uncompressed_degree and sign_err <= eps
    _report(7, "chebyshev compression", ok,
            f"monomial excess {worst_excess:.2e} (budget 1e-10) over (s,d) in"
            f" {{1..64}}^2; compressed degree {poly.degree()} <"
            f" {uncompressed_degree}, sign error {sign_err:.3f} <= {eps}")


def test_criterion_08_ridge_contract(pool):
    results = pool.map(helpers.ridge_contract_worker, list(range(100)))
    worst = max((lhs / rhs if rhs > 0 else 0.0) for lhs, rhs in results)
    _report(8, "ridge error contract", worst <= 1.0,
            f"100 instances (d <= 100), worst ||x-x*||_M at {worst:.3f} of"
            " eps*||y||_Minv")


def test_criterion_09_noise_robustness():
    from helpers import rotated_symmetric

    q, d = 40, 24
    worst = 0.0
    trial = 0
    for eps_noise in (1e-8, 1e-6):
        for rep in range(50):
            rng = np.random.default_rng([9000, trial])
            trial += 1
            S, _ = rotated_symmetric(rng, rng.uniform(0.0, 1.0, size=d))
            y = rng.standard_normal(d)
            exact_handle = OperatorHandle(dimension=d, apply=lambda v: S @ v)

            def noisy(v):
                noise = rng.standard_normal(d)
                noise *= eps_noise * np.linalg.norm(v) / np.linalg.norm(noise)
                return S @ v + noise

            noisy_handle = OperatorHandle(dimension=d, apply=noisy,
                                          err_bound=eps_noise)
            ref = apply_step(exact_handle, y, q)
            got = apply_step(noisy_handle, y, q)
            err = np.linalg.norm(got - ref)
            worst = max(worst, err / (7 * q * eps_noise * np.linalg.norm(y) * 1.5))
    _report(9, "step-engine noise robustness", worst <= 1.0,
            f"100 trials, eps' in {{1e-8, 1e-6}}, worst error at {worst:.3f} of"
            f" the 7*q*eps'*1.5 budget (q={q})")


def test_criterion_10_stability_demonstration():
    rng = np.random.default_rng(31415)
    n, d = 60, 40
    U, _ = np.linalg.qr(rng.standard_normal((n, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sq = np.concatenate([np.linspace(1.0, 0.8, 10),
                         np.linspace(0.25, 0.01, d - 11), [1e-12]])
    A = DesignMatrix.from_dense((U * np.sqrt(sq)) @ V.T)
    lam, eps = 0.5, 1e-3
    stats = matrix_stats(A, lam)
    oracle = svd_small(A)
    b = A.matvec(V[:, :10] @ rng.standard_normal(10))
    y = A.rmatvec(b)
    gap = 0.5 / (4.0 * 1.5)

    y_proj = pc_proj(A, ProjectionConfig(lam=lam, gamma=gap, eps=eps), y, stats)
    # The projection contract allows eps*||y|| of error in any direction;
    # place half of it on the tiny singular direction and invert directly.
    y_tilde = y_proj + (eps / 2.0) * np.linalg.norm(y) * V[:, -1]
    naive = V @ ((V.T @ y_tilde) / sq)

    ref = exact_pcr(oracle, lam, b)
    naive_err = gram_norm(A, naive - ref)
    pcr_err = gram_norm(A, pc_regress(A, PcrConfig(lam=lam, gamma=gap, eps=eps),
                                      b, stats) - ref)
    ratio = naive_err / pcr_err
    _report(10, "stability demonstration", ratio >= 1e4,
            f"sigma_min^2 = 1e-12 instance: naive/pcr error ratio {ratio:.2e}"
            " (threshold 1e4)")


def test_criterion_11_iteration_counts(synthetic_results):
    # Runtime expressions from the asymptotic analysis are not reproducible at
    # desk scale and are excluded; the iteration count doing the work is
    # checked instead: the configured q suffices for the target accuracy.
    ok = True
    details = []
    for r in synthetic_results:
        expect_q = math.ceil((2 * r["gamma_alg"]) ** -2 * math.log(2.0 / 1e-4))
        ok &= r["q"] == expect_q
        ok &= r["proj_err"] <= 1e-4 * r["y_norm"]
    by_gamma = {g: next(r["q"] for r in synthetic_results if r["gamma"] == g)
                for g in GAMMAS}
    details.append("q per gamma: " + ", ".join(f"{g}->{q}" for g, q in by_gamma.items()))
    _report(11, "iteration counts within configured q", ok,
            "all 50 runs met eps at q = ceil((2g)^-2 ln(2/eps)); "
            + details[0] + "; asymptotic runtime claims excluded by design")


def test_criterion_12_factored_ridge_box(pool):
    # Dense matrices with n >= 10 d apply the projection's ridge operator by
    # a Cholesky factor of the ridge matrix instead of conjugate gradient.
    results = pool.map(helpers.factored_ridge_worker, range(100))
    factored = all(f for f, _ in results)
    worst = max(r for _, r in results)
    tall = pool.map(helpers.tall_projection_worker, SEED_GAMMAS[:30])
    _report(12, "factored ridge box", factored and worst <= 1.0 and max(tall) <= 1.0,
            f"100 instances with n >= 10d, all factored: {factored}; worst application"
            f" error at {worst:.2e} of eps_op*||v|| + eps_machine*||y||; 30 pc_proj runs"
            f" on {helpers.TALL_N}x{helpers.TALL_D} problems, worst error at"
            f" {max(tall):.2e} of the 1e-4*||y|| budget")


def test_criterion_13_rational_engine(pool):
    # The certified Zolotarev engine over a black-box ridge handle
    # (stepfn.apply_rational_step on the projection's handle): on criterion
    # 1's problems its bound, computed after the run from recomputed
    # residuals, is at least the true error and at most eps; under handle
    # noise up to the handle's stated bound it stays so.
    from helpers import rotated_symmetric
    from ridgeproj.stepfn import apply_rational_step

    results = pool.map(helpers.rational_projection_worker, SEED_GAMMAS)
    certified = all(err <= bound <= helpers.PROJ_EPS for err, bound in results)
    worst = max(err for err, _ in results) / helpers.PROJ_EPS
    loosest = max(bound for _, bound in results) / helpers.PROJ_EPS

    d, alpha, eps = 24, 0.2, 1e-3
    noisy_ok = True
    trial = 0
    for eps_noise in (1e-8, 1e-6):
        for _ in range(50):
            rng = np.random.default_rng([13000, trial])
            trial += 1
            x = rng.uniform(alpha, 1.0, size=d) * rng.choice([-1.0, 1.0], size=d)
            S, Q = rotated_symmetric(rng, 0.5 * (1.0 + x))
            y = rng.standard_normal(d)

            def noisy(v):
                noise = rng.standard_normal(d)
                noise *= eps_noise * np.linalg.norm(v) / np.linalg.norm(noise)
                return S @ v + noise

            handle = OperatorHandle(dimension=d, apply=noisy, err_bound=eps_noise)
            s, bound = apply_rational_step(handle, y, alpha, eps)
            err = np.linalg.norm(s - Q @ ((x > 0) * (Q.T @ y)))
            noisy_ok &= err <= bound <= eps * np.linalg.norm(y)
    _report(13, "rational engine", certified and noisy_ok,
            f"50 problems: worst error at {worst:.2e} and loosest certified bound at"
            f" {loosest:.2e} of the 1e-4*||y|| budget, every bound >= its error:"
            f" {certified}; 100 noisy-handle trials (err_bound in {{1e-8, 1e-6}},"
            f" eps {eps}) with error <= bound <= eps*||y||: {noisy_ok}")


def test_criterion_14_gram_rational_engine(pool):
    # The same Zolotarev step from one multi-shift CG run on the ridge system
    # (ProjectionConfig(method="rational")): on criterion 1's problems its
    # bound, which includes the proven gram-product rounding terms, is at
    # least the true error and at most eps.  Over kappa_lambda x eps each
    # cell certifies within eps or is refused before any gram product, and
    # every cell the black-box engine certifies, this one certifies too.
    results = pool.map(helpers.gram_projection_worker, SEED_GAMMAS)
    certified = all(err <= bound <= helpers.PROJ_EPS for err, bound in results)
    worst = max(err for err, _ in results) / helpers.PROJ_EPS
    loosest = max(bound for _, bound in results) / helpers.PROJ_EPS

    kappas = (1e2, 1e3, 1e4, 1e6)
    sweep_ok = True
    cells = []
    for kappa, rows in zip(kappas, pool.map(helpers.kappa_sweep_worker, kappas)):
        for eps, outcome, err, bound, products, black_box in rows:
            if outcome == "certified":
                sweep_ok &= err <= bound <= 1.0
                cells.append(f"{kappa:.0e}/{eps:.0e}: {products} products, bound {bound:.2f} eps")
            else:
                sweep_ok &= products == 0 and not black_box
                cells.append(f"{kappa:.0e}/{eps:.0e}: refused")
    _report(14, "gram rational engine", certified and sweep_ok,
            f"50 problems: worst error at {worst:.2e} and loosest certified bound at"
            f" {loosest:.2e} of the 1e-4*||y|| budget, every bound >= its error:"
            f" {certified}; kappa_lambda/eps sweep at gamma 0.1 (certified within eps,"
            f" or refused before any product where the black-box engine refuses too):"
            f" {sweep_ok}; " + "; ".join(cells))
