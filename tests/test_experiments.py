import numpy as np
import pytest

from ridgeproj import (
    ConvergenceTrace,
    convergence_trace,
    exact_pcr,
    gen_synthetic,
    gram_norm,
    matrix_stats,
    ridge_solve,
    run_convergence,
    svd_small,
)
from ridgeproj.project import ProjectionConfig, pc_proj


@pytest.fixture(scope="module")
def problem():
    return gen_synthetic(60, 40, 10, 0.2, seed=99)


class TestTraceType:
    def test_validation(self):
        with pytest.raises(ValueError, match="start at iteration 0"):
            ConvergenceTrace(records=[(1, 0.5)])
        with pytest.raises(ValueError, match="strictly increasing"):
            ConvergenceTrace(records=[(0, 0.5), (0, 0.2)])
        with pytest.raises(ValueError, match="nonnegative"):
            ConvergenceTrace(records=[(0, -0.5)])
        trace = ConvergenceTrace(records=[(0, 1.0), (1, 0.5)], algorithm="projection")
        assert trace.final_error() == 0.5


class TestRunConvergence:
    def test_projection_trace(self, problem):
        trace = run_convergence(problem, "project", eps=1e-3, max_q=40)
        assert trace.algorithm == "projection"
        assert len(trace.records) == 41
        assert trace.iterations() == list(range(41))
        errs = np.array(trace.errors())
        # monotone decrease after burn-in
        assert np.all(np.diff(errs[3:]) <= 1e-12)

    def test_regression_trace_starts_at_ridge_solution(self, problem):
        trace = run_convergence(problem, "pcr", eps=1e-3, max_q=10)
        assert trace.algorithm == "regression"
        assert len(trace.records) == 11
        # entry 0 is the plain ridge solve of the projected rhs
        stats = matrix_stats(problem.A, problem.lam)
        oracle = svd_small(problem.A)
        cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(),
                               eps=trace_eps_inner(problem, 1e-3, 10))
        y_proj = pc_proj(problem.A, cfg, problem.A.rmatvec(problem.b), stats)
        s0 = ridge_solve(problem.A, trace_eps_inner(problem, 1e-3, 10), y_proj, stats)
        ref = exact_pcr(oracle, problem.lam, problem.b)
        expect0 = gram_norm(problem.A, s0 - ref) ** 2 / gram_norm(problem.A, ref) ** 2
        assert trace.records[0][1] == pytest.approx(expect0, rel=1e-6)

    def test_regression_faster_than_projection_at_small_gap(self):
        problem = gen_synthetic(60, 40, 10, 0.05, seed=5)
        proj = run_convergence(problem, "project", eps=1e-4, max_q=3000)
        pcr = run_convergence(problem, "pcr", eps=1e-4, max_q=25)
        assert first_below(pcr, 1e-3) < first_below(proj, 1e-3)

    def test_metadata(self, problem):
        trace = run_convergence(problem, "project", eps=1e-2, max_q=5)
        assert trace.metadata["gamma"] == problem.gamma
        assert trace.metadata["lam"] == problem.lam
        assert trace.metadata["seed"] == problem.seed

    def test_zero_rhs_records_every_iterate(self, problem):
        for algo in ("project", "pcr"):
            trace = convergence_trace(problem.A, np.zeros(problem.A.n_rows), problem.lam,
                                      problem.algorithm_gap(), algo, 1e-3, 6)
            assert trace.records == [(k, 0.0) for k in range(7)]
            assert trace.final_error() == 0.0

    def test_algo_validation(self, problem):
        with pytest.raises(ValueError, match="algo"):
            run_convergence(problem, "pca", eps=1e-2, max_q=3)


def trace_eps_inner(problem, eps, q):
    stats = matrix_stats(problem.A, problem.lam)
    return eps / (4.0 * q * q * np.sqrt(stats.kappa_lambda))


def first_below(trace, level):
    for it, err in trace.records:
        if err <= level:
            return it
    return np.inf
