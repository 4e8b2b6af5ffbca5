import dataclasses
import math

import numpy as np
import pytest

import ridgeproj.project as project
import ridgeproj.stepfn as stepfn
from ridgeproj import (
    BudgetExceeded,
    DesignMatrix,
    MatrixStats,
    OperatorHandle,
    PcrConfig,
    ProjectionConfig,
    apply_step,
    exact_projection,
    gen_synthetic,
    matrix_stats,
    p_k_eval,
    pc_proj,
    ridge_solve,
    svd_small,
)

from helpers import Recorder, black_box_rational, kappa_1e3_matrix, recorded_gram_step

EPS_MACH = float(np.finfo(np.float64).eps)


@pytest.fixture(scope="module")
def small_problem():
    problem = gen_synthetic(60, 40, 10, 0.2, seed=123)
    stats = matrix_stats(problem.A, problem.lam)
    oracle = svd_small(problem.A)
    return problem, stats, oracle


class TestConfig:
    def test_default_q_formula(self):
        cfg = ProjectionConfig(lam=0.5, gamma=0.05, eps=1e-4)
        A = DesignMatrix.from_dense(np.diag([1.0, 0.5]))
        stats = matrix_stats(A, 0.5)
        q, eps_inner, eps_op = cfg.resolve(stats)
        assert q == math.ceil((2 * 0.05) ** -2 * math.log(2.0 / 1e-4))
        expect = 1e-4 ** 2 * 0.05 ** 2 / (8.0 * math.sqrt(stats.kappa_lambda))
        assert eps_inner == pytest.approx(expect)
        assert eps_op == math.sqrt(stats.kappa_lambda) * eps_inner

    def test_overrides(self):
        A = DesignMatrix.from_dense(np.diag([1.0, 0.5]))
        stats = matrix_stats(A, 0.5)
        cfg = ProjectionConfig(lam=0.5, gamma=0.1, eps=1e-3, q_override=7)
        q, eps_inner, _ = cfg.resolve(stats)
        sqrt_kappa = math.sqrt(stats.kappa_lambda)
        assert (q, eps_inner) == (7, 1e-3 ** 2 * 0.1 ** 2 / (8.0 * sqrt_kappa))

    def test_noise_budget_assertion(self):
        A = DesignMatrix.from_dense(np.diag([1.0, 0.5]))
        stats = matrix_stats(A, 0.5)
        cfg = ProjectionConfig(lam=0.5, gamma=0.2, eps=1e-2, q_override=40_000)
        with pytest.raises(ValueError, match="noise budget.*lower q or raise eps"):
            cfg.resolve(stats)

    def test_noise_budget_refusal_is_typed(self):
        # Like every refusal of an accuracy out of reach; still a ValueError.
        stats = matrix_stats(DesignMatrix.from_dense(np.diag([1.0, 0.5])), 0.5)
        cfg = ProjectionConfig(lam=0.5, gamma=0.2, eps=1e-2, q_override=40_000)
        with pytest.raises(BudgetExceeded, match="noise budget"):
            cfg.resolve(stats)

    def test_noise_budget_counts_the_query_floor(self):
        A = DesignMatrix.from_dense(np.diag([1.0, 0.5]))
        stats = matrix_stats(A, 0.5)
        q, eps = 1000, 7.0 / 60.0 * (1.0 + 1e-13)
        # The cap eps' = 1 / (60 q sqrt(kappa)) binds, so eps_op = 1 / (60 q):
        # the relative term alone fills the budget; the eps_machine term tips it over.
        assert 7.0 * q / (60.0 * q) <= eps < 7.0 * q * (1.0 / (60.0 * q) + EPS_MACH)
        cfg = ProjectionConfig(lam=0.5, gamma=0.2, eps=eps, q_override=q)
        with pytest.raises(ValueError, match="noise budget"):
            cfg.resolve(stats)
        # An eps below the float64 resolution of q steps is met up to it, not rejected.
        deep = ProjectionConfig(lam=0.5, gamma=0.1, eps=1e-13, q_override=14_000)
        assert deep.resolve(stats)[0] == 14_000

    def test_field_validation(self):
        for kwargs in (dict(lam=0.0, gamma=0.1, eps=0.1),
                       dict(lam=1.0, gamma=1.0, eps=0.1),
                       dict(lam=1.0, gamma=0.1, eps=0.0),
                       dict(lam=1.0, gamma=0.1, eps=0.1, q_override=0)):
            with pytest.raises(ValueError):
                ProjectionConfig(**kwargs)

    def test_method_validation(self):
        with pytest.raises(ValueError, match="method must be 'pk' or 'rational'"):
            ProjectionConfig(lam=1.0, gamma=0.1, eps=0.1, method="zolotarev")
        with pytest.raises(ValueError, match="q_override applies to method 'pk' only"):
            ProjectionConfig(lam=1.0, gamma=0.1, eps=0.1, q_override=5, method="rational")
        assert ProjectionConfig(lam=1.0, gamma=0.1, eps=0.1).method == "pk"

    def test_rational_takes_no_callback(self):
        A = DesignMatrix.from_dense(np.diag([2.0, 0.5]))
        stats = matrix_stats(A, 1.0)
        cfg = ProjectionConfig(lam=1.0, gamma=0.2, eps=1e-3, method="rational")
        with pytest.raises(ValueError, match="callback applies to method 'pk' only"):
            pc_proj(A, cfg, np.ones(2), stats, callback=lambda k, s: None)


def _stage_configs(**kwargs):
    fields = dict(lam=0.5, gamma=0.1, eps=1e-2) | kwargs
    return ProjectionConfig(**fields), PcrConfig(**fields)


def _apply_step(q):
    return apply_step(OperatorHandle(dimension=2, apply=lambda v: 0.5 * v), np.ones(2), q)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("build", [
    lambda lam: MatrixStats(sigma1_estimate=1.0, lam=lam),
    lambda lam: matrix_stats(DesignMatrix.from_dense(np.eye(2)), lam),
    lambda lam: _stage_configs(lam=lam),
    lambda lam: exact_projection(svd_small(DesignMatrix.from_dense(np.eye(2))), lam,
                                 np.ones(2)),
], ids=["MatrixStats", "matrix_stats", "stage-configs", "svd-oracle"])
def test_non_finite_lambda_rejected(build, bad):
    with pytest.raises(ValueError, match="lambda must be positive and finite"):
        build(bad)


@pytest.mark.parametrize("bad", [2.5, np.float64(3.0), True, "3"])
@pytest.mark.parametrize("build", [lambda q: _stage_configs(q_override=q), _apply_step],
                         ids=["q_override", "apply_step"])
def test_non_integer_q_rejected(build, bad):
    with pytest.raises(ValueError, match="must be an integer of at least 1"):
        build(bad)
    build(np.int64(3))


class TestPcProj:
    def test_diagonal_example(self):
        A = DesignMatrix.from_dense(np.diag([2.0, 0.5]))
        stats = matrix_stats(A, 1.0)
        cfg = ProjectionConfig(lam=1.0, gamma=0.2, eps=1e-4)
        s = pc_proj(A, cfg, np.array([3.0, 4.0]), stats)
        assert np.linalg.norm(s - np.array([3.0, 0.0])) <= 1e-4 * 5.0

    def test_zero_vector(self):
        A = DesignMatrix.from_dense(np.diag([2.0, 0.5]))
        stats = matrix_stats(A, 1.0)
        cfg = ProjectionConfig(lam=1.0, gamma=0.2, eps=1e-3)
        assert np.all(pc_proj(A, cfg, np.zeros(2), stats) == 0.0)

    def test_lambda_above_spectrum_gives_zero(self):
        A = DesignMatrix.from_dense(np.diag([0.6, 0.3]))
        stats = matrix_stats(A, 1.0)
        cfg = ProjectionConfig(lam=1.0, gamma=0.05, eps=1e-4)
        y = np.array([1.0, 1.0])
        s = pc_proj(A, cfg, y, stats)
        assert np.linalg.norm(s) <= 1e-4 * np.linalg.norm(y)

    def test_oracle_equivalence_synthetic(self, small_problem):
        problem, stats, oracle = small_problem
        rng = np.random.default_rng(77)
        cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=1e-4)
        for _ in range(3):
            y = rng.standard_normal(40)
            s = pc_proj(problem.A, cfg, y, stats)
            ref = exact_projection(oracle, problem.lam, y)
            assert np.linalg.norm(s - ref) <= 1e-4 * np.linalg.norm(y)

    def test_tiny_eps_met_to_float64_resolution(self, small_problem):
        # eps^2 underflows at eps = 1e-200, so eps' rests on the smallest
        # normal double; the result meets the 14 q eps_machine level.
        problem, stats, oracle = small_problem
        cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=1e-200)
        q, eps_inner, _ = cfg.resolve(stats)
        assert eps_inner == np.finfo(np.float64).tiny
        y = np.random.default_rng(78).standard_normal(40)
        s = pc_proj(problem.A, cfg, y, stats)
        err = np.linalg.norm(s - exact_projection(oracle, problem.lam, y))
        assert err <= 14 * q * EPS_MACH * np.linalg.norm(y)

    @pytest.mark.parametrize("eps", [1e-4, 1e-8])
    def test_rational_meets_its_certificate(self, small_problem, eps):
        # The certified bound is at least the true error and at most eps ||y||.
        problem, stats, oracle = small_problem
        cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=eps,
                               method="rational")
        y = np.random.default_rng(78).standard_normal(40)
        s, bound = recorded_gram_step(pc_proj, problem.A, cfg, y, stats)
        err = np.linalg.norm(s - exact_projection(oracle, problem.lam, y)) / np.linalg.norm(y)
        assert err <= bound <= eps

    def test_rational_refuses_below_its_handle_noise(self, small_problem):
        # The certificate's gram-product rounding terms, from ||A||_F^2, are
        # far above the engine's float64 level at eps = 1e-200, so pc_proj
        # raises before any product instead of returning a vector it cannot
        # certify.
        problem, stats, _ = small_problem
        cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=1e-4,
                               method="rational")
        pc_proj(problem.A, cfg, np.ones(40), stats)
        with pytest.raises(BudgetExceeded, match="cannot be certified"):
            pc_proj(problem.A, dataclasses.replace(cfg, eps=1e-200), np.ones(40), stats)

    def test_rational_at_kappa_1e3(self):
        # The black-box engine on the projection's ridge handle.  kappa_lambda
        # = 1e3 makes the stated handle error 64 eps_machine (kappa + 1) kappa
        # = 1.4e-8.  eps = 1e-4 is certified; at eps = 1e-7 four times what
        # that error adds to the certificate exceeds eps, and the engine
        # refuses rather than return a bound above eps ||y||.
        A = kappa_1e3_matrix()
        stats = matrix_stats(A, 1.0)
        assert 990.0 < stats.kappa_lambda < 1010.0
        y = np.random.default_rng(1001).standard_normal(30)
        s, bound = black_box_rational(A, stats, y, 0.125, 1e-4)
        err = np.linalg.norm(s - exact_projection(svd_small(A), 1.0, y)) / np.linalg.norm(y)
        assert err <= bound <= 1e-4
        with pytest.raises(BudgetExceeded, match="cannot be certified"):
            black_box_rational(A, stats, y, 0.125, 1e-7)

    def test_pk_budget_sees_the_residual_floor(self):
        # At kappa_lambda = 1e6 the ridge handle states its residual floor,
        # 64 eps_machine (kappa + 1) kappa = 1.4e-2 relative: q = 133 is far
        # beyond the budget 1/(7 eps_C) of p_k, which raises before any
        # application.
        A = kappa_1e3_matrix(top=1e6)
        cfg = ProjectionConfig(lam=1.0, gamma=0.1, eps=1e-2)
        y = np.random.default_rng(1003).standard_normal(30)
        with pytest.raises(BudgetExceeded, match="error budget exhausted"):
            pc_proj(A, cfg, y, matrix_stats(A, 1.0))

    def test_meets_contract_at_kappa_1e4(self):
        A = kappa_1e3_matrix(top=1e4)
        cfg = ProjectionConfig(lam=1.0, gamma=0.1, eps=1e-2)
        y = np.random.default_rng(1003).standard_normal(30)
        s = pc_proj(A, cfg, y, matrix_stats(A, 1.0))
        err = np.linalg.norm(s - exact_projection(svd_small(A), 1.0, y))
        assert err <= 1e-2 * np.linalg.norm(y)

    def test_idempotence_to_tolerance(self, small_problem):
        problem, stats, _ = small_problem
        eps = 1e-5
        cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=eps)
        y = np.random.default_rng(3).standard_normal(40)
        once = pc_proj(problem.A, cfg, y, stats)
        twice = pc_proj(problem.A, cfg, once, stats)
        assert np.linalg.norm(twice - once) <= 3 * eps * np.linalg.norm(y)

    def test_spectrum_mapping_diagonal(self):
        sig2 = np.array([0.9, 0.75, 0.3, 0.2])
        A = DesignMatrix.from_dense(np.diag(np.sqrt(sig2)))
        lam, gamma, eps = 0.5, 0.05, 1e-5
        stats = matrix_stats(A, lam)
        cfg = ProjectionConfig(lam=lam, gamma=gamma, eps=eps)
        q, _, _ = cfg.resolve(stats)
        x = np.ones(4)
        out = pc_proj(A, cfg, x, stats)
        b_vals = sig2 / (sig2 + lam)
        expect = np.array([0.5 * (1.0 + p_k_eval(2 * b - 1.0, q)) for b in b_vals])
        assert np.abs(out - expect).max() <= eps

    def test_soft_projection_window(self):
        # Directions below (1-g)lam die, above (1+g)lam survive, the one in the
        # window lands in [-eps, 1+eps] under the monotone soft step.  The
        # algorithm's gap parameter must match the margin that a squared value
        # at the window edge (1+g)lam induces on the smooth operator's
        # spectrum, namely g / (2 (2 + g)).
        lam, window, eps = 0.5, 0.2, 1e-4
        gamma = window / (2.0 * (2.0 + window))
        sig2 = np.array([0.9, lam * (1 + window) + 0.05, lam, lam * (1 - window) - 0.05, 0.1])
        A = DesignMatrix.from_dense(np.diag(np.sqrt(sig2)))
        stats = matrix_stats(A, lam)
        out = pc_proj(A, ProjectionConfig(lam=lam, gamma=gamma, eps=eps), np.ones(5), stats)
        assert abs(out[0] - 1.0) <= eps
        assert abs(out[1] - 1.0) <= eps
        assert -eps <= out[2] <= 1.0 + eps
        assert abs(out[3]) <= eps
        assert abs(out[4]) <= eps
        # monotone along the spectrum
        assert np.all(np.diff(out) <= eps)

    @pytest.mark.parametrize("method", ["pk", "rational"])
    @pytest.mark.parametrize("k", [-1000, -520, 520, 1000])
    def test_power_of_two_scaling_is_exact(self, small_problem, method, k):
        # Squared norms of 2^k y over- or underflow at these k; pc_proj runs
        # on y scaled to a largest entry in [1/2, 1), so the result and every
        # iterate scale by 2^k to the bit.
        problem, stats, _ = small_problem
        cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=1e-4,
                               method=method)
        y = np.random.default_rng(80).standard_normal(40)
        runs = []
        for v in (y, np.ldexp(y, k)):
            iterates = []
            record = None if method == "rational" else lambda j, s: iterates.append(s)
            runs.append([pc_proj(problem.A, cfg, v, stats, callback=record)] + iterates)
        assert len(runs[1]) == len(runs[0])
        for plain, scaled in zip(*runs):
            assert scaled.tobytes() == np.ldexp(plain, k).tobytes()

    def test_deterministic(self, small_problem):
        problem, stats, _ = small_problem
        cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=1e-3)
        y = np.random.default_rng(8).standard_normal(40)
        assert np.array_equal(pc_proj(problem.A, cfg, y, stats),
                              pc_proj(problem.A, cfg, y, stats))


class TestPcProjTrace:
    """pc_proj traced through its ``callback``."""

    def test_trace_shape_and_final_error(self, small_problem):
        problem, stats, oracle = small_problem
        eps = 1e-4
        cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=eps)
        q, _, _ = cfg.resolve(stats)
        y = np.random.default_rng(1).standard_normal(40)
        ref = exact_projection(oracle, problem.lam, y)
        records = []

        def on_iterate(k, s_k):
            records.append((k, np.linalg.norm(s_k - ref) / np.linalg.norm(ref)))

        s = pc_proj(problem.A, cfg, y, stats, callback=on_iterate)
        assert [k for k, _ in records] == list(range(q + 1))
        assert records[-1][1] == np.linalg.norm(s - ref) / np.linalg.norm(ref)
        assert records[-1][1] <= eps * np.linalg.norm(y) / np.linalg.norm(ref)
        # errors settle monotonically after burn-in
        errs = np.array([err for _, err in records])[3:]
        assert np.all(np.diff(errs) <= 1e-12)


def smooth_projection(oracle, lam, v):
    """Exact ``B v`` for ``B = (A^T A + lam I)^{-1} A^T A``, from the factorization."""
    sig2 = oracle.singular_values ** 2
    return oracle.V @ ((oracle.V.T @ v) * (sig2 / (sig2 + lam)))


def relative_only_step(problem, stats, cfg, y):
    """``apply_step`` on ``B v = v - lam x``, x a public ``ridge_solve`` of v itself.

    Where eps' binds, the solve at ``kappa_lambda eps'`` stops at the
    projection handle's residual target ``kappa_lambda rel_target(eps')
    ||v||``; it has no query-level floor.
    """
    q, eps_inner, eps_op = cfg.resolve(stats)
    A, lam = problem.A, stats.lam
    eps_solve = stats.kappa_lambda * eps_inner
    handle = OperatorHandle(
        dimension=A.n_cols,
        apply=lambda v: v - lam * ridge_solve(A, eps_solve, v, stats),
        err_bound=eps_op,
    )
    return apply_step(handle, y, q)


class TestProjectionHandle:
    def test_every_application_meets_its_bound(self, small_problem):
        # eps = 1e-3 makes the late recurrence increments small enough that
        # the query-level floor, not the relative tolerance, stops CG.
        problem, stats, oracle = small_problem
        cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=1e-3)
        q, eps_inner, _ = cfg.resolve(stats)
        eps_op = math.sqrt(stats.kappa_lambda) * eps_inner
        y = np.random.default_rng(5).standard_normal(40)
        ny = np.linalg.norm(y)
        with Recorder(stepfn, "_guarded") as applications:
            pc_proj(problem.A, cfg, y, stats)
        assert len(applications.calls) == 2 * q + 1
        floor_bound = 0
        for call in applications.calls:
            v, out = call.args[1], call.result
            err = np.linalg.norm(out - smooth_projection(oracle, problem.lam, v))
            assert err <= (eps_op * np.linalg.norm(v) + EPS_MACH * ny) * (1 + 1e-9)
            floor_bound += err > eps_op * np.linalg.norm(v)
        assert floor_bound >= 1

    @pytest.mark.parametrize("n, factored", [(119, False), (120, True)])
    def test_products_inside_the_step(self, gram_counts, n, factored):
        # B v = v - lam M^{-1} v: every product of a query is a CG iteration's
        # gram product, none is made for a right-hand side, and the factored
        # path (n >= 10 d) makes none at all.
        problem = gen_synthetic(n, 12, 4, 0.3, seed=415)
        stats = matrix_stats(problem.A, problem.lam)
        cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=1e-3)
        with Recorder(project, "apply_step") as step:
            pc_proj(problem.A, cfg, np.random.default_rng(11).standard_normal(12), stats)
        iters = sum(gram_counts.iters())
        assert gram_counts.products(step) == (iters, iters)
        assert (gram_counts.iters() == []) == factored
        assert factored or iters > 0

    def test_matches_relative_only_path_where_floor_cannot_bind(self, small_problem):
        problem, stats, _ = small_problem
        cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=1e-3,
                               q_override=10)
        y = np.random.default_rng(9).standard_normal(40)
        s = pc_proj(problem.A, cfg, y, stats)
        assert s.tobytes() == relative_only_step(problem, stats, cfg, y).tobytes()

    def test_deep_run_meets_oracle_bound(self, small_problem):
        problem, stats, oracle = small_problem
        eps = 1e-10
        cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=eps)
        y = np.random.default_rng(10).standard_normal(40)
        ref = exact_projection(oracle, problem.lam, y)
        for s in (pc_proj(problem.A, cfg, y, stats),
                  relative_only_step(problem, stats, cfg, y)):
            assert np.linalg.norm(s - ref) <= eps * np.linalg.norm(y)
