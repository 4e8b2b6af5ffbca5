import math

import numpy as np
import pytest

from ridgeproj import (
    BudgetExceeded,
    ConvergenceFailure,
    DesignMatrix,
    PcrConfig,
    exact_pcr,
    gen_synthetic,
    gram_norm,
    matrix_stats,
    pc_regress,
    svd_small,
)
from ridgeproj import pcr as pcr_module
from helpers import kappa_1e3_matrix, m_inverse_apply, m_norm


@pytest.fixture(scope="module")
def small_problem():
    problem = gen_synthetic(60, 40, 10, 0.2, seed=321)
    stats = matrix_stats(problem.A, problem.lam)
    oracle = svd_small(problem.A)
    return problem, stats, oracle


class TestConfig:
    def test_defaults(self):
        A = DesignMatrix.from_dense(np.diag([1.0, 0.5]))
        stats = matrix_stats(A, 0.5)
        cfg = PcrConfig(lam=0.5, gamma=0.1, eps=1e-3)
        q, eps_inner, eps_op = cfg.resolve(stats)
        assert q == math.ceil(2.0 * math.log(stats.kappa_lambda / 1e-3))
        assert eps_inner == pytest.approx(1e-3 / (4.0 * q * q * math.sqrt(stats.kappa_lambda)))
        assert eps_op == eps_inner / 0.5

    def test_validation(self):
        for kwargs in (dict(lam=0.0, gamma=0.1, eps=0.1),
                       dict(lam=1.0, gamma=0.1, eps=1.5),
                       dict(lam=1.0, gamma=0.1, eps=0.1, q_override=0)):
            with pytest.raises(ValueError):
                PcrConfig(**kwargs)


class TestTruncatedSeries:
    def test_diagonal_iterates_are_partial_sums(self):
        # A = diag(a): iterate k is sum_{i<=k+1} lam^{i-1} m^i (P A^T b)_j in
        # direction j, with m = 1 / (a_j^2 + lam).  The tolerance scales
        # eps_op by (k+1)^2 for the projection and solve errors carried
        # through k+1 terms; a sum off by one term misses by over 1e-4 here.
        sq = np.array([4.0, 2.5, 0.3, 0.1])
        lam, q = 1.0, 6
        A = DesignMatrix.from_dense(np.diag(np.sqrt(sq)))
        stats = matrix_stats(A, lam)
        cfg = PcrConfig(lam=lam, gamma=0.1, eps=1e-6, q_override=q)
        _, _, eps_op = cfg.resolve(stats)
        b = np.array([1.0, -2.0, 3.0, 0.5])
        y = np.sqrt(sq) * b
        py = np.where(sq >= lam, y, 0.0)
        m = 1.0 / (sq + lam)
        seen = []
        s = pc_regress(A, cfg, b, stats, callback=lambda k, s_k: seen.append((k, s_k)))
        assert [k for k, _ in seen] == list(range(q + 1))
        assert s.tobytes() == seen[-1][1].tobytes()
        for k, s_k in seen:
            partial = sum(lam ** (i - 1) * m ** i for i in range(1, k + 2)) * py
            err = np.linalg.norm(s_k - partial)
            assert err <= 2.0 * (k + 1) ** 2 * eps_op * np.linalg.norm(y)

    def test_geometric_tail_bound_scalar(self):
        # g(x) - p_k(x) <= 1 / (2^k lam) for x in (0, 1/(2 lam)].
        for lam in (0.5, 1.0, 3.0):
            xs = np.linspace(1e-6, 1.0 / (2.0 * lam), 50)
            for k in (1, 5, 12, 25, 40):
                for x in xs:
                    g = x / (1.0 - lam * x)
                    partial = sum(lam ** (i - 1) * x ** i for i in range(1, k + 1))
                    tail = g - partial
                    assert -1e-12 <= tail <= 1.0 / (2 ** k * lam) + 1e-12


class TestPcRegress:
    def test_diagonal_example(self):
        A = DesignMatrix.from_dense(np.diag([2.0, 0.5]))
        stats = matrix_stats(A, 1.0)
        cfg = PcrConfig(lam=1.0, gamma=0.2, eps=1e-3)
        b = np.array([4.0, 1.0])
        s = pc_regress(A, cfg, b, stats)
        assert gram_norm(A, s - np.array([2.0, 0.0])) <= 1e-3 * np.linalg.norm(b)

    def test_zero_rhs(self):
        A = DesignMatrix.from_dense(np.diag([2.0, 0.5]))
        stats = matrix_stats(A, 1.0)
        cfg = PcrConfig(lam=1.0, gamma=0.2, eps=1e-3)
        assert np.all(pc_regress(A, cfg, np.zeros(2), stats) == 0.0)

    def test_lambda_above_spectrum(self):
        A = DesignMatrix.from_dense(np.diag([0.6, 0.3]))
        stats = matrix_stats(A, 1.0)
        cfg = PcrConfig(lam=1.0, gamma=0.05, eps=1e-3)
        b = np.array([1.0, 2.0])
        s = pc_regress(A, cfg, b, stats)
        assert gram_norm(A, s) <= 1e-3 * np.linalg.norm(b)

    def test_oracle_equivalence_synthetic(self, small_problem):
        problem, stats, oracle = small_problem
        cfg = PcrConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=1e-3)
        s = pc_regress(problem.A, cfg, problem.b, stats)
        ref = exact_pcr(oracle, problem.lam, problem.b)
        assert gram_norm(problem.A, s - ref) <= 1e-3 * np.linalg.norm(problem.b)

    def test_tiny_eps_met_to_float64_resolution(self, small_problem):
        # The projection stage's eps^2 underflows at eps = 1e-200; the result
        # meets the 14 q eps_machine level of q series steps.
        problem, stats, oracle = small_problem
        cfg = PcrConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=1e-200)
        q = cfg.resolve(stats)[0]
        b = np.random.default_rng(79).standard_normal(60)
        s = pc_regress(problem.A, cfg, b, stats)
        err = gram_norm(problem.A, s - exact_pcr(oracle, problem.lam, b))
        assert err <= 14 * q * np.finfo(np.float64).eps * np.linalg.norm(b)

    @pytest.mark.parametrize("k", [-1000, -520, 520, 1000])
    def test_power_of_two_scaling_is_exact(self, small_problem, k):
        # Squared norms of 2^k b over- or underflow at these k; pc_regress
        # runs on b scaled to a largest entry in [1/2, 1), so the result and
        # every series iterate scale by 2^k to the bit.
        problem, stats, _ = small_problem
        cfg = PcrConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=1e-3)
        b = np.random.default_rng(81).standard_normal(60)
        runs = []
        for v in (b, np.ldexp(b, k)):
            iterates = []
            s = pc_regress(problem.A, cfg, v, stats, callback=lambda j, s: iterates.append(s))
            runs.append([s] + iterates)
        assert len(runs[1]) == len(runs[0])
        for plain, scaled in zip(*runs):
            assert scaled.tobytes() == np.ldexp(plain, k).tobytes()

    def test_projection_stage_engine(self, small_problem, monkeypatch):
        # The stage runs on the rational engine where it can certify eps'.
        # At kappa_lambda = 1e4 and eps = 1e-4, eps' = 1.8e-10 is below four
        # times the a-priori gram-product rounding terms of that engine's
        # certificate: it raises BudgetExceeded before any product with A, the
        # stage reruns on p_k, and the result still meets the contract.
        methods, refused_mv = [], []
        original = pcr_module.pc_proj
        mv_calls = []
        mv = DesignMatrix._mv
        monkeypatch.setattr(DesignMatrix, "_mv", lambda self, x: mv_calls.append(1) or mv(self, x))

        def spy(A, proj_cfg, y, st):
            methods.append(proj_cfg.method)
            before = len(mv_calls)
            try:
                return original(A, proj_cfg, y, st)
            except BudgetExceeded:
                refused_mv.append(len(mv_calls) - before)
                raise

        monkeypatch.setattr(pcr_module, "pc_proj", spy)
        problem, stats, _ = small_problem
        pc_regress(problem.A, PcrConfig(lam=problem.lam, gamma=problem.algorithm_gap(),
                                        eps=1e-4), problem.b, stats)
        A = kappa_1e3_matrix(top=1e4)
        stats = matrix_stats(A, 1.0)
        b = np.random.default_rng(1002).standard_normal(40)
        s = pc_regress(A, PcrConfig(lam=1.0, gamma=0.125, eps=1e-4), b, stats)
        assert methods == ["rational", "rational", "pk"]
        assert refused_mv == [0] and mv_calls
        assert gram_norm(A, s - exact_pcr(svd_small(A), 1.0, b)) <= 1e-4 * np.linalg.norm(b)

    def test_stage_certifies_at_kappa_1e3(self, monkeypatch):
        # At kappa_lambda = 1e3, gamma = 0.125 and eps = 1e-4 the stage's
        # eps' = 7e-10 is certified by the rational engine on the gram
        # operator: no p_k step and no ridge CG run inside the stage.
        import ridgeproj.project as project
        from ridgeproj import ridge

        in_stage, pk_calls, stage_cg = [], [], []
        original, cg, step = pcr_module.pc_proj, ridge._cg, project.apply_step

        def stage(*args):
            in_stage.append(1)
            try:
                return original(*args)
            finally:
                in_stage.pop()

        monkeypatch.setattr(pcr_module, "pc_proj", stage)
        monkeypatch.setattr(ridge, "_cg", lambda *a: stage_cg.extend(in_stage) or cg(*a))
        monkeypatch.setattr(project, "apply_step", lambda *a, **k: pk_calls.append(1) or step(*a, **k))
        A = kappa_1e3_matrix()
        b = np.random.default_rng(1002).standard_normal(40)
        s = pc_regress(A, PcrConfig(lam=1.0, gamma=0.125, eps=1e-4), b, matrix_stats(A, 1.0))
        assert pk_calls == [] and stage_cg == []
        assert gram_norm(A, s - exact_pcr(svd_small(A), 1.0, b)) <= 1e-4 * np.linalg.norm(b)

    def test_stage_and_series_counts(self, small_problem, monkeypatch):
        # Counts that hold on any machine: the projection stage makes one gram
        # product per multi-shift iteration plus one for its certificate, 26
        # on this problem (the bound below leaves 20% headroom), and no ridge
        # CG run; the series makes exactly q + 1 ridge solves, one CG run each.
        from ridgeproj import ridge

        problem, stats, _ = small_problem
        cfg = PcrConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=1e-3)
        q = cfg.resolve(stats)[0]
        calls = {"mv": 0, "rmv": 0, "cg": 0, "solve": 0}
        stage = {}
        mv, rmv, cg = DesignMatrix._mv, DesignMatrix._rmv, ridge._cg
        original, solve = pcr_module.pc_proj, pcr_module.ridge_solve

        def counted(name, fn):
            return lambda *a: calls.__setitem__(name, calls[name] + 1) or fn(*a)

        def counted_stage(*args):
            before = dict(calls)
            out = original(*args)
            stage.update({name: calls[name] - before[name] for name in calls})
            return out

        monkeypatch.setattr(DesignMatrix, "_mv", counted("mv", mv))
        monkeypatch.setattr(DesignMatrix, "_rmv", counted("rmv", rmv))
        monkeypatch.setattr(ridge, "_cg", counted("cg", cg))
        monkeypatch.setattr(pcr_module, "ridge_solve", counted("solve", solve))
        monkeypatch.setattr(pcr_module, "pc_proj", counted_stage)
        pc_regress(problem.A, cfg, problem.b, stats)
        assert stage["cg"] == 0 and stage["solve"] == 0
        assert stage["mv"] == stage["rmv"] <= 31
        assert calls["solve"] == q + 1
        assert calls["cg"] == q + 1

    def test_projection_budget_sees_the_residual_floor(self):
        # At kappa_lambda = 1e6 no projection stage can take eps' = 1.8e-9:
        # the rational engine's certificate would need gram-product rounding
        # terms below it, and p_k's budget guard sees the ridge handle's
        # residual floor, 1.4e-2 relative.  Both refuse instead of returning a
        # result many times over its contract.
        A = kappa_1e3_matrix(top=1e6)
        b = np.random.default_rng(1004).standard_normal(40)
        with pytest.raises(BudgetExceeded, match="error budget exhausted"):
            pc_regress(A, PcrConfig(lam=1.0, gamma=0.1, eps=1e-2), b, matrix_stats(A, 1.0))

    def test_meets_contract_at_kappa_1e4(self):
        A = kappa_1e3_matrix(top=1e4)
        b = np.random.default_rng(1004).standard_normal(40)
        s = pc_regress(A, PcrConfig(lam=1.0, gamma=0.1, eps=1e-2), b, matrix_stats(A, 1.0))
        assert gram_norm(A, s - exact_pcr(svd_small(A), 1.0, b)) <= 1e-2 * np.linalg.norm(b)

    def test_callback_reports_series(self, small_problem):
        problem, stats, _ = small_problem
        cfg = PcrConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=1e-2)
        q, _, _ = cfg.resolve(stats)
        seen = []
        pc_regress(problem.A, cfg, problem.b, stats,
                   callback=lambda i, s: seen.append(i))
        assert seen == list(range(q + 1))

    def test_inner_call_contracts_instrumented(self, small_problem):
        # Every ridge call inside the series meets the error bound the
        # analysis assumes: ||R(x) - M^{-1} x||_M <= eps' ||x||_2 / sqrt(lam).
        problem, stats, oracle = small_problem
        lam = problem.lam
        cfg = PcrConfig(lam=lam, gamma=problem.algorithm_gap(), eps=1e-3)
        q, eps_inner, _ = cfg.resolve(stats)
        calls = []
        original = pcr_module.ridge_solve

        def spy(A, params, v, st):
            out = original(A, params, v, st)
            exact = m_inverse_apply(oracle, lam, v)
            calls.append((m_norm(oracle, lam, out - exact), np.linalg.norm(v)))
            return out

        pcr_module.ridge_solve = spy
        try:
            pc_regress(problem.A, cfg, problem.b, stats)
        finally:
            pcr_module.ridge_solve = original
        assert calls
        for err_m, nx in calls:
            assert err_m <= eps_inner * nx / math.sqrt(lam) * (1.0 + 1e-9)

    @pytest.mark.parametrize("c", [1.0, 0.1, 0.01])
    def test_series_handle_meets_declared_bound(self, c, monkeypatch):
        # A -> cA, lam -> c^2 lam leaves the configuration's q and eps'
        # unchanged but scales M^{-1} by 1/c^2; the declared 2-norm bound
        # eps_op of resolve() has to scale with it.
        problem = gen_synthetic(60, 40, 10, 0.2, seed=321)
        A = DesignMatrix.from_dense(c * problem.A.toarray())
        lam = c * c * problem.lam
        stats = matrix_stats(A, lam)
        oracle = svd_small(A)
        cfg = PcrConfig(lam=lam, gamma=problem.algorithm_gap(), eps=1e-3)
        calls = []
        orig = pcr_module.ridge_solve

        def ridge_recording(A_, params, v, stats_):
            out = orig(A_, params, v, stats_)
            calls.append((v.copy(), np.array(out)))
            return out

        monkeypatch.setattr(pcr_module, "ridge_solve", ridge_recording)
        pc_regress(A, cfg, c * problem.b, stats)
        q, _, eps_op = cfg.resolve(stats)
        assert len(calls) == q + 1
        for v, out in calls:
            err = np.linalg.norm(out - m_inverse_apply(oracle, lam, v))
            assert err <= eps_op * np.linalg.norm(v)

    def test_stage_labels(self, small_problem, monkeypatch):
        problem, stats, _ = small_problem
        cfg = PcrConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=1e-3)

        def boom(*args, **kwargs):
            raise ConvergenceFailure("synthetic failure", diagnostic=1.0)

        monkeypatch.setattr(pcr_module, "pc_proj", boom)
        with pytest.raises(ConvergenceFailure, match="projection stage"):
            pc_regress(problem.A, cfg, problem.b, stats)

        monkeypatch.undo()
        monkeypatch.setattr(pcr_module, "ridge_solve", boom)
        with pytest.raises(ConvergenceFailure, match="series step 1"):
            pc_regress(problem.A, cfg, problem.b, stats)


class TestStabilityContrast:
    def test_direct_inverse_vs_series_pipeline(self):
        # One squared singular value at 1e-12: the plain inverse amplifies a
        # projection-contract-level error in that direction by 1/sigma_min
        # = 1e6 in the A^T A norm; the series pipeline never inverts it.
        from ridgeproj import ProjectionConfig, pc_proj

        rng = np.random.default_rng(2718)
        n, d = 60, 40
        U, _ = np.linalg.qr(rng.standard_normal((n, d)))
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sq = np.concatenate([np.linspace(1.0, 0.8, 10),
                             np.linspace(0.25, 0.01, d - 11), [1e-12]])
        sig = np.sqrt(sq)
        A = DesignMatrix.from_dense((U * sig) @ V.T)
        lam, eps = 0.5, 1e-3
        stats = matrix_stats(A, lam)
        oracle = svd_small(A)
        b = A.matvec(V[:, :10] @ rng.standard_normal(10))
        y = A.rmatvec(b)

        window_gap = 0.5 / (4.0 * 1.5)
        y_proj = pc_proj(A, ProjectionConfig(lam=lam, gamma=window_gap, eps=eps), y, stats)
        # Any eps-accurate projection oracle may embed its error anywhere,
        # including the tiny direction; exercise exactly that contract slack.
        y_tilde = y_proj + (eps / 2.0) * np.linalg.norm(y) * V[:, -1]
        naive = V @ ((V.T @ y_tilde) / sq)

        ref = exact_pcr(oracle, lam, b)
        naive_err = gram_norm(A, naive - ref)
        cfg = PcrConfig(lam=lam, gamma=window_gap, eps=eps)
        pcr_err = gram_norm(A, pc_regress(A, cfg, b, stats) - ref)
        assert pcr_err <= eps * np.linalg.norm(b)
        assert naive_err / pcr_err >= 1e6
