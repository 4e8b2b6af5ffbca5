import math
from dataclasses import replace

import numpy as np
import pytest

from ridgeproj import (
    BudgetExceeded,
    ConvergenceFailure,
    DesignMatrix,
    DimensionMismatch,
    MatrixStats,
    PcrConfig,
    ProjectionConfig,
    gram_apply,
    load_matrix,
    matrix_stats,
    pc_proj,
    pc_regress,
    ridge_solve,
    svd_small,
)
from ridgeproj import matrix as matrix_module
from ridgeproj import ridge as ridge_module
from helpers import (GramCounts, Recorder, m_inv_norm, m_inverse_apply, m_norm, random_csr,
                     random_dense, spectrum_dense)

EPS_MACH = float(np.finfo(np.float64).eps)


def _solve(A, lam, eps, y):
    stats = matrix_stats(A, lam)
    return ridge_solve(A, eps, y, stats)


class TestRidgeSolve:
    def test_identity(self):
        A = DesignMatrix.from_dense(np.eye(2))
        assert np.allclose(_solve(A, 1.0, 1e-12, np.array([2.0, 4.0])), [1.0, 2.0])

    def test_zero_rhs(self):
        A = DesignMatrix.from_dense(np.eye(3))
        assert np.all(_solve(A, 1.0, 0.5, np.zeros(3)) == 0.0)

    def test_diagonal(self):
        A = DesignMatrix.from_dense(np.diag([2.0, 0.5]))
        assert np.allclose(_solve(A, 1.0, 1e-12, np.array([5.0, 5.0])), [1.0, 4.0])

    def test_error_contract_100_instances(self):
        # Cold, and warm from the exact solution, a 1e-3-perturbed one and a
        # bad guess; guesses come from their own generator, so the instances
        # are the same as without them.
        rng = np.random.default_rng(2024)
        guess_rng = np.random.default_rng(2025)
        for trial in range(100):
            n = int(rng.integers(8, 60))
            d = int(rng.integers(4, min(n, 40) + 1))
            A = random_dense(rng, n, d, scale=float(rng.uniform(0.5, 2.0)))
            lam = float(rng.uniform(0.05, 5.0))
            eps = float(10 ** rng.uniform(-8, -0.5))
            y = rng.standard_normal(d)
            stats = matrix_stats(A, lam)
            F = svd_small(A)
            x_star = m_inverse_apply(F, lam, y)
            for x0 in (None, x_star, x_star * (1.0 + 1e-3 * guess_rng.standard_normal(d)),
                       10.0 * guess_rng.standard_normal(d)):
                x = ridge_solve(A, eps, y, stats, x0=x0)
                assert m_norm(F, lam, x - x_star) <= eps * m_inv_norm(F, lam, y), (
                    f"contract violated on trial {trial}"
                )

    def test_residual_below_threshold(self):
        rng = np.random.default_rng(5)
        A = random_dense(rng, 30, 20, scale=1.5)
        lam, eps = 0.8, 1e-6
        y = rng.standard_normal(20)
        stats = matrix_stats(A, lam)
        x = ridge_solve(A, eps, y, stats)
        resid = y - gram_apply(A, x) - lam * x
        threshold = eps * np.linalg.norm(y) * np.sqrt(lam / (stats.sigma1_estimate ** 2 + lam))
        assert np.linalg.norm(resid) <= threshold

    def test_max_iters_exhausted_reports_residual(self):
        rng = np.random.default_rng(6)
        A = random_dense(rng, 30, 20, scale=2.0)
        y = rng.standard_normal(20)
        with pytest.raises(ConvergenceFailure) as exc:
            ridge_module._cg(A, 0.3, y, 1e-10 * np.linalg.norm(y), 2)
        assert exc.value.diagnostic > 0

    def test_negative_shift_breaks_down(self):
        # A^T A - 10 I, sigma1 = 2: the first step already has p.Mp < 0.
        A = random_dense(np.random.default_rng(6), 30, 20, scale=2.0)
        y = np.random.default_rng(6).standard_normal(20)
        with pytest.raises(ConvergenceFailure, match="non-positive curvature") as exc:
            ridge_module._cg(A, -10.0, y, 1e-10 * np.linalg.norm(y), 100)
        assert exc.value.diagnostic == pytest.approx(np.linalg.norm(y), rel=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        A = random_dense(rng, 25, 12)
        y = rng.standard_normal(12)
        stats = matrix_stats(A, 1.0)
        a = ridge_solve(A, 1e-8, y, stats)
        b = ridge_solve(A, 1e-8, y, stats)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [-1000, -520, 520, 1000])
    def test_power_of_two_scaling_is_exact(self, k):
        # ||2^k y||^2 over- or underflows at these k; the solve runs on y
        # scaled to a largest entry in [1/2, 1), so x scales by 2^k to the bit.
        rng = np.random.default_rng(8)
        A = random_dense(rng, 30, 12)
        stats = matrix_stats(A, 0.5)
        y = rng.standard_normal(12)
        x = ridge_solve(A, 1e-8, np.ldexp(y, k), stats)
        assert x.tobytes() == np.ldexp(ridge_solve(A, 1e-8, y, stats), k).tobytes()
        # A warm start: the guess is scaled with y, so its bits do not move either.
        x0 = x * (1.0 + 1e-3 * rng.standard_normal(12))
        keep = x0.copy()
        warm = ridge_solve(A, 1e-8, np.ldexp(y, k), stats, x0=x0)
        assert x0.tobytes() == keep.tobytes()
        assert warm.tobytes() == np.ldexp(ridge_solve(A, 1e-8, y, stats, x0=np.ldexp(x0, -k)),
                                          k).tobytes()

    def test_guess_validation(self):
        A = DesignMatrix.from_dense(np.eye(3))
        stats = MatrixStats(sigma1_estimate=1.0, lam=1.0)
        with pytest.raises(DimensionMismatch, match="starting guess"):
            ridge_solve(A, 1e-6, np.ones(3), stats, x0=np.ones(2))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="starting guess"):
                ridge_solve(A, 1e-6, np.ones(3), stats, x0=np.array([0.0, bad, 0.0]))

    def test_params_validation(self):
        # lambda is checked where it lives, in MatrixStats; eps by the solver.
        with pytest.raises(ValueError, match="lambda"):
            MatrixStats(sigma1_estimate=1.0, lam=0.0)
        with pytest.raises(ValueError, match="sigma1_estimate must be finite and nonnegative"):
            MatrixStats(sigma1_estimate=-1.0, lam=1.0)
        A = DesignMatrix.from_dense(np.eye(2))
        stats = MatrixStats(sigma1_estimate=1.0, lam=1.0)
        for eps in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError, match="eps"):
                ridge_solve(A, eps, np.ones(2), stats)


def _apply_gram(A, eps, x, stats):
    """``B x`` for ``B = (A^T A + lambda I)^{-1} A^T A``: a ridge solve against ``A^T A x``."""
    return ridge_solve(A, eps, gram_apply(A, x), stats)


class TestRidgeApplyGram:
    def test_diagonal_mapping(self):
        A = DesignMatrix.from_dense(np.diag([2.0, 0.5]))
        stats = matrix_stats(A, 1.0)
        out = _apply_gram(A, 1e-12, np.array([1.0, 1.0]), stats)
        assert np.allclose(out, [0.8, 0.2])

    def test_null_space_maps_to_zero(self):
        A = DesignMatrix.from_dense(np.array([[1.0, 0.0]]))
        stats = matrix_stats(A, 1.0)
        out = _apply_gram(A, 1e-10, np.array([0.0, 1.0]), stats)
        assert np.abs(out).max() <= 1e-12

    def test_eigenvalue_at_lambda_halves(self):
        A = DesignMatrix.from_dense(np.diag([1.0]))
        stats = matrix_stats(A, 1.0)
        out = _apply_gram(A, 1e-12, np.array([2.0]), stats)
        assert out[0] == pytest.approx(1.0, abs=1e-10)

    def test_spectrum_mapping_diagonal(self):
        rng = np.random.default_rng(11)
        sig2 = np.array([4.0, 2.5, 1.0, 0.4, 0.01])
        A = DesignMatrix.from_dense(np.diag(np.sqrt(sig2)))
        lam, eps = 1.2, 1e-9
        stats = matrix_stats(A, lam)
        x = rng.standard_normal(5)
        out = _apply_gram(A, eps, x, stats)
        expect = sig2 / (sig2 + lam) * x
        budget = stats.sigma1_estimate / np.sqrt(lam) * eps * np.linalg.norm(x)
        assert np.linalg.norm(out - expect) <= budget


def _numpy_cg(A, lam, y, resid_target, max_iters):
    """Referee: the conjugate-gradient loop on numpy vector operations."""
    x = np.zeros(A.n_cols)
    r = y.copy()
    p = y.copy()
    rs = float(r @ r)
    target = 0.9 * resid_target
    target2 = target * target
    it = 0
    G = A._gram
    mv, rmv = G._mv, G._rmv
    while rs > target2:
        if it >= max_iters:
            raise ConvergenceFailure("exhausted", diagnostic=math.sqrt(rs))
        Mp = rmv(mv(p))
        Mp += lam * p
        denom = float(p @ Mp)
        if denom <= 0.0:
            raise ConvergenceFailure("breakdown", diagnostic=math.sqrt(rs))
        alpha = rs / denom
        x += alpha * p
        r -= alpha * Mp
        rs_new = float(r @ r)
        p *= rs_new / rs
        p += r
        rs = rs_new
        it += 1
    return x, math.sqrt(rs), it


def _kernel_case(kind, rng):
    shape = {"tall": (120, 80), "very_tall": (400, 40), "square": (60, 60), "wide": (40, 70),
             "csr": (200, 90)}[kind]
    if kind == "csr":
        return random_csr(rng, *shape, density=0.1)
    arr = rng.standard_normal(shape)
    return DesignMatrix.from_dense(arr), arr


class TestCgKernel:
    # lam = 0.1 sigma1^2 (kappa_lambda = 11) and residual targets well above
    # the rounding level: there both loops take the same steps and differ
    # only by fused multiply-adds, so 1e-12 is a rounding tolerance.  The
    # recursive residual carries absolute rounding error on the scale of
    # eps_machine * ||y||, so it is compared relative to ||y||.  On
    # ill-conditioned systems CG amplifies last-bit differences, and the
    # two loops agree only up to their stopping rule.
    @pytest.mark.parametrize("kind", ["tall", "square", "wide", "csr"])
    @pytest.mark.parametrize("rel", [1e-4, 1e-8])
    def test_matches_numpy_loop(self, kind, rel):
        rng = np.random.default_rng(404)
        A, arr = _kernel_case(kind, rng)
        assert (A._factor is not None) == (kind == "tall")
        lam = 0.1 * np.linalg.norm(arr, 2) ** 2
        y = rng.standard_normal(A.n_cols)
        target = rel * np.linalg.norm(y)
        x_ref, res_ref, it_ref = _numpy_cg(A, lam, y, target, 1000)
        x, res, it = ridge_module._cg(A, lam, y, target, 1000)
        assert it == it_ref > 0
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        assert abs(res - res_ref) <= 1e-12 * np.linalg.norm(y)
        true_res = y - arr.T @ (arr @ x) - lam * x
        assert np.linalg.norm(true_res) <= target

    @pytest.mark.parametrize("kind", ["tall", "csr"])
    def test_leaves_right_hand_side_unchanged(self, kind):
        rng = np.random.default_rng(405)
        A, arr = _kernel_case(kind, rng)
        lam = 0.1 * np.linalg.norm(arr, 2) ** 2
        y = rng.standard_normal(A.n_cols)
        keep = y.copy()
        x, _, it = ridge_module._cg(A, lam, y, 1e-8 * np.linalg.norm(y), 1000)
        assert it > 0 and np.array_equal(y, keep)
        y.setflags(write=False)
        x_ro, _, it_ro = ridge_module._cg(A, lam, y, 1e-8 * np.linalg.norm(y), 1000)
        assert np.array_equal(y, keep)
        assert it_ro == it and np.array_equal(x_ro, x)


class TestProductSeam:
    """Every gram product inside a solve goes through ``DesignMatrix._mv`` / ``_rmv``."""

    @pytest.mark.parametrize("kind", ["tall", "very_tall", "square", "csr"])
    def test_ridge_solve(self, kind, gram_counts):
        rng = np.random.default_rng(406)
        A, arr = _kernel_case(kind, rng)
        lam = 0.05 * np.linalg.norm(arr, 2) ** 2
        stats = matrix_stats(A, lam)
        gram_counts.clear()
        ridge_solve(A, 1e-8, rng.standard_normal(A.n_cols), stats)
        (iters,) = gram_counts.iters()
        assert iters > 0
        assert gram_counts.products() == (iters, iters)

    @pytest.mark.parametrize("kind", ["tall", "square", "csr"])
    def test_gram_solver_application(self, kind, gram_counts):
        rng = np.random.default_rng(407)
        A, arr = _kernel_case(kind, rng)
        lam = 0.05 * np.linalg.norm(arr, 2) ** 2
        stats = matrix_stats(A, lam)
        apply = ridge_module._gram_solver(A, stats, 1e-8, 0.0).apply
        gram_counts.clear()
        apply(rng.standard_normal(A.n_cols))
        (iters,) = gram_counts.iters()
        assert iters > 0
        assert gram_counts.products() == (iters, iters)  # CG on v itself, no rhs product

    @pytest.mark.parametrize("kind", ["tall", "square", "csr"])
    def test_exact_guess_costs_one_product(self, kind, gram_counts):
        # The residual of the guess is one gram product; it already meets the
        # stopping rule, so CG makes no iteration.
        rng = np.random.default_rng(417)
        A, arr = _kernel_case(kind, rng)
        lam = 0.05 * np.linalg.norm(arr, 2) ** 2
        stats = matrix_stats(A, lam)
        y = rng.standard_normal(A.n_cols)
        x0 = m_inverse_apply(svd_small(A), lam, y)
        gram_counts.clear()
        x = ridge_solve(A, 1e-8, y, stats, x0=x0)
        assert gram_counts.iters() == [0]
        assert gram_counts.products() == (1, 1)
        assert x.tobytes() == x0.tobytes()

    @pytest.mark.parametrize("kind", ["tall", "square", "csr"])
    def test_guess_no_better_than_zero_starts_cold(self, kind, gram_counts):
        # ||y - M x0|| >= ||y||: the guess is dropped after its residual
        # product and CG runs from 0, bit for bit as without a guess.  The
        # last guess overflows once scaled with y; that is dropped too.
        rng = np.random.default_rng(418)
        A, arr = _kernel_case(kind, rng)
        lam = 0.05 * np.linalg.norm(arr, 2) ** 2
        stats = matrix_stats(A, lam)
        y = rng.standard_normal(A.n_cols)
        gram_counts.clear()
        cold = ridge_solve(A, 1e-8, y, stats)
        (iters,) = gram_counts.iters()
        assert gram_counts.products()[0] == iters > 0
        tiny = np.ldexp(y, -1000)
        for rhs, x0 in ((y, 10.0 * rng.standard_normal(A.n_cols) / lam), (y, -y / lam),
                        (tiny, np.full(A.n_cols, 1e10))):
            gram_counts.clear()
            x = ridge_solve(A, 1e-8, rhs, stats, x0=x0)
            assert gram_counts.iters() == [iters]
            assert gram_counts.products() == (iters + 1, iters + 1)
            assert np.ldexp(x, 1000 if rhs is tiny else 0).tobytes() == cold.tobytes()

    def test_factored_gram_solver_application(self, gram_counts):
        rng = np.random.default_rng(408)
        A, arr = _kernel_case("very_tall", rng)
        lam = 0.05 * np.linalg.norm(arr, 2) ** 2
        apply = ridge_module._gram_solver(A, matrix_stats(A, lam), 1e-8, 0.0).apply
        gram_counts.clear()
        apply(rng.standard_normal(A.n_cols))
        assert gram_counts.products() == (0, 0)
        assert gram_counts.iters() == []


class TestFactoredGramSolver:
    """Dense matrices with ``n_rows >= 10 * n_cols`` apply B by the inverse ridge matrix."""

    @staticmethod
    def case(rng, n, d):
        arr = rng.standard_normal((n, d))
        A = DesignMatrix.from_dense(arr)
        return A, matrix_stats(A, 0.05 * np.linalg.norm(arr, 2) ** 2)

    @staticmethod
    def within_contract(A, stats, eps, query_norm, v, x):
        exact = m_inverse_apply(svd_small(A), stats.lam, gram_apply(A, v))
        bound = (stats.sigma1_estimate / math.sqrt(stats.lam) * eps * np.linalg.norm(v)
                 + np.finfo(float).eps * query_norm)
        return np.linalg.norm(x - exact) <= bound

    @pytest.mark.parametrize("n, factored", [(79, False), (80, True)])
    def test_ten_rows_per_column_boundary(self, n, factored):
        rng = np.random.default_rng(409)
        A, stats = self.case(rng, n, 8)
        v = rng.standard_normal(8)
        with Recorder(ridge_module, "_cg") as cg:
            x = ridge_module._gram_solver(A, stats, 1e-8, 0.0).apply(v)
        assert bool(cg.calls) != factored
        assert self.within_contract(A, stats, 1e-8, 0.0, v, x)

    def falls_back_to_cg(self):
        rng = np.random.default_rng(410)
        A, stats = self.case(rng, 400, 40)
        assert A._ridge_factor(stats.lam) is None
        y = rng.standard_normal(40)
        query_norm = float(np.linalg.norm(y))
        apply = ridge_module._gram_solver(A, stats, 1e-6, query_norm).apply
        for v in (y, 1e-3 * rng.standard_normal(40)):
            with Recorder(ridge_module, "_cg") as cg:
                x = apply(v)
            assert len(cg.calls) == 1
            assert self.within_contract(A, stats, 1e-6, query_norm, v, x)

    def test_failed_factorization_falls_back_to_cg(self, monkeypatch):
        monkeypatch.setattr(matrix_module, "dpotrf", lambda a, **kw: (a, 1))
        self.falls_back_to_cg()

    def test_failed_inversion_falls_back_to_cg(self, monkeypatch):
        # dpotrf succeeds, then dpotri reports a zero pivot.
        inversions = []
        monkeypatch.setattr(matrix_module, "dpotri",
                            lambda c, **kw: inversions.append(1) or (c, 1))
        self.falls_back_to_cg()
        assert inversions == [1, 1]  # one in the check above, one per handle

    @pytest.mark.parametrize("n, factored", [(399, False), (400, True)])
    def test_apply_leaves_its_input_alone(self, n, factored):
        # dsymv adds into a copy of y = v (overwrite_y = 0): apply_step
        # reuses the w it passes in, so v must come back bit for bit.
        rng = np.random.default_rng(416)
        A, stats = self.case(rng, n, 40)
        apply = ridge_module._gram_solver(A, stats, 1e-8, 1.0).apply
        v = rng.standard_normal(40)
        assert v.dtype == np.float64 and v.flags.writeable and v.flags.c_contiguous
        before = v.tobytes()
        with Recorder(ridge_module, "_cg") as cg:
            out = apply(v)
            assert v.tobytes() == before and not np.shares_memory(out, v)
            x = rng.standard_normal(80)
            x_before = x.tobytes()
            strided = apply(x[::2])
            assert x.tobytes() == x_before
            assert strided.tobytes() == apply(np.ascontiguousarray(x[::2])).tobytes()
        assert bool(cg.calls) != factored

    def test_no_columns_no_factor(self, capfd):
        # BLAS would print a parameter error for a 0-by-0 dsyrk; no factor is
        # tried, and the handle refuses dimension 0 as pc_proj always did.
        A = DesignMatrix.from_dense(np.ones((5, 0)))
        with pytest.raises(ValueError, match="dimension must be an integer of at least 1"):
            ridge_module._gram_solver(A, MatrixStats(sigma1_estimate=1.0, lam=1.0), 0.1, 1.0)
        assert capfd.readouterr().err == ""

    def test_repeat_calls_bit_identical(self):
        rng = np.random.default_rng(411)
        A, stats = self.case(rng, 400, 40)
        v = rng.standard_normal(40)
        outs = [ridge_module._gram_solver(A, stats, 1e-8, 1.0).apply(v) for _ in range(2)]
        apply = ridge_module._gram_solver(A, stats, 1e-8, 1.0).apply
        outs += [apply(v), apply(v)]
        assert all(out.tobytes() == outs[0].tobytes() for out in outs)

    def test_zero_below_query_floor(self):
        # The one zero rule of both back ends: +0.0 zeros once ||v|| <= 0.9 *
        # floor, floor = eps_machine * query_norm, which errs by ||B v|| <=
        # ||v||.  n = 399 runs CG, 400 factors.
        for n in (399, 400):
            rng = np.random.default_rng(412)
            A, stats = self.case(rng, n, 40)
            v = rng.standard_normal(40)
            floor_norm = np.linalg.norm(v) / np.finfo(float).eps  # floor = ||v||
            assert np.any(ridge_module._gram_solver(A, stats, 1e-8, 1.05 * floor_norm).apply(v))
            out = ridge_module._gram_solver(A, stats, 1e-8, 1.2 * floor_norm).apply(v)
            assert out.tobytes() == np.zeros(40).tobytes()
            zero = ridge_module._gram_solver(A, stats, 1e-8, 0.0).apply(np.zeros(40))
            assert zero.tobytes() == out.tobytes()

    def test_err_bound_states_the_residual_floor(self):
        # At kappa_lambda = 11 and eps = 3e-15 the CG target is clamped to
        # the float64 floor, so the handle states 64 eps_machine (kappa + 1)
        # kappa = 1.88e-12, not sqrt(kappa) eps = 9.9e-15, and meets it.
        rng = np.random.default_rng(413)
        A = spectrum_dense(rng, 60, np.geomspace(11.0, 0.1, 20))
        stats = matrix_stats(A, 1.0)
        kappa = stats.kappa_lambda
        handle = ridge_module._gram_solver(A, stats, 3e-15, 0.0)
        assert 10.9 < kappa < 11.1
        assert handle.err_bound == 64.0 * np.finfo(float).eps * (kappa + 1.0) * kappa
        assert 1.85e-12 < handle.err_bound < 1.9e-12
        v = rng.standard_normal(20)
        exact = m_inverse_apply(svd_small(A), 1.0, gram_apply(A, v))
        assert np.linalg.norm(handle.apply(v) - exact) <= handle.err_bound * np.linalg.norm(v)

    @pytest.mark.parametrize("n, factored", [(60, False), (200, True)])
    def test_err_bound_is_kappa_times_the_residual_target(self, n, factored):
        # Where eps binds, err_bound = kappa_lambda * eps * sqrt(lambda /
        # (sigma1^2 + lambda)) = eps kappa / sqrt(kappa + 1), about 3.18e-6 at
        # kappa_lambda = 11 and eps = 1e-6, below sqrt(kappa) eps = 3.32e-6;
        # both back ends meet it.
        rng = np.random.default_rng(413)
        A = spectrum_dense(rng, n, np.geomspace(11.0, 0.1, 20))
        stats = matrix_stats(A, 1.0)
        kappa, eps, s1 = stats.kappa_lambda, 1e-6, stats.sigma1_estimate
        handle = ridge_module._gram_solver(A, stats, eps, 0.0)
        assert 10.9 < kappa < 11.1
        assert handle.err_bound == eps * math.sqrt(1.0 / (s1 * s1 + 1.0)) * kappa
        assert 3.1e-6 < handle.err_bound < 3.25e-6 < math.sqrt(kappa) * eps
        v = rng.standard_normal(20)
        exact = m_inverse_apply(svd_small(A), 1.0, gram_apply(A, v))
        with Recorder(ridge_module, "_cg") as cg:
            out = handle.apply(v)
        assert np.linalg.norm(out - exact) <= handle.err_bound * np.linalg.norm(v)
        assert bool(cg.calls) != factored


class TestSmoothProjectionHandle:
    """``B v = v - lambda (A^T A + lambda I)^{-1} v`` against the SVD oracle, on both back ends."""

    @pytest.mark.parametrize("eps", [1e-2, 1e-8, 3e-15])
    @pytest.mark.parametrize("kappa", [0.01, 0.5, 11.0, 1e3])
    @pytest.mark.parametrize("n, factored", [(119, False), (120, True)])
    def test_meets_its_stated_error(self, n, factored, kappa, eps):
        rng = np.random.default_rng([414, n, int(math.log10(kappa) + 2), int(-math.log10(eps))])
        # Rank 9 of d = 12, sigma_1 = 1: lambda = 1 / kappa sets kappa_lambda.
        A = spectrum_dense(rng, n, np.r_[np.geomspace(1.0, 1e-2, 9), np.zeros(3)])
        stats = matrix_stats(A, 1.0 / kappa)
        lam, k, s1 = stats.lam, stats.kappa_lambda, stats.sigma1_estimate
        y = rng.standard_normal(12)
        handle = ridge_module._gram_solver(A, stats, eps, float(np.linalg.norm(y)))
        floor = 64.0 * EPS_MACH * (k + 1.0)
        kappa_rel = max(eps * math.sqrt(lam / (s1 * s1 + lam)), floor) * k  # kappa rel_target
        if k >= 1.0:
            assert handle.err_bound == kappa_rel
        else:  # v - lambda x is computed to a few eps_machine ||v|| only
            assert handle.err_bound == max(kappa_rel, floor)
        F = svd_small(A)
        sig2 = F.singular_values ** 2
        assert sig2.size == 9
        v = rng.standard_normal(12)
        null = v - F.V @ (F.V.T @ v)
        with Recorder(ridge_module, "_cg") as cg:
            for x in (y, v, null, 1e-14 * v):
                exact = F.V @ (sig2 / (sig2 + lam) * (F.V.T @ x))
                err = np.linalg.norm(handle.apply(x) - exact)
                assert err <= handle.err_bound * np.linalg.norm(x) + EPS_MACH * np.linalg.norm(y)
        assert bool(cg.calls) != factored

    def test_factored_handle_at_bench_width(self):
        # The tall-dense benchmark's width d = 200, at n = 10 d; squared
        # singular values from 1 down to 1e-8 put some on each side of every
        # lambda.  The error of the inverse is checked here, not proved.
        rng = np.random.default_rng(415)
        d = 200
        A = spectrum_dense(rng, 10 * d, np.geomspace(1.0, 1e-8, d))
        F = svd_small(A)
        sig2 = F.singular_values ** 2
        assert sig2.size == d
        y = rng.standard_normal(d)
        vectors = (y, rng.standard_normal(d), F.V[:, 0], F.V[:, -1])
        with Recorder(ridge_module, "_cg") as cg:
            for kappa in (0.5, 2.0, 1e3, 1e9):
                stats = matrix_stats(A, 1.0 / kappa)
                for eps in (1e-2, 1e-12):
                    handle = ridge_module._gram_solver(A, stats, eps, float(np.linalg.norm(y)))
                    for v in vectors:
                        exact = F.V @ (sig2 / (sig2 + stats.lam) * (F.V.T @ v))
                        err = np.linalg.norm(handle.apply(v) - exact)
                        bound = handle.err_bound * np.linalg.norm(v) + EPS_MACH * np.linalg.norm(y)
                        assert err <= bound, (kappa, eps, err / bound)
        assert cg.calls == []


class TestExtremeKappaLambda:
    """kappa_lambda = sigma1^2 / lambda whose float64 floor leaves nothing to certify is refused."""

    def test_budget_refuses_once_the_residual_floor_reaches_one(self):
        # 64 eps_machine (kappa + 1) crosses 1 between kappa = 7e13 and 7.1e13.
        rel_target, max_iters = ridge_module._cg_budget(MatrixStats(1.0, 1.0 / 7e13), 0.1)
        assert 0.99 < rel_target < 1.0 and max_iters > 0
        with pytest.raises(BudgetExceeded, match="residual floor"):
            ridge_module._cg_budget(MatrixStats(1.0, 1.0 / 7.1e13), 0.1)
        with pytest.raises(ValueError, match="eps must lie in"):
            ridge_module._cg_budget(MatrixStats(1.0, 1.0 / 7.1e13), 1.0)

    @pytest.mark.parametrize("lam", [1e-20, 1e-200, 1e-300])
    def test_every_entry_refuses(self, lam):
        # sigma1 = 3.15: kappa_lambda near 1e21, 1e201 and 1e301.
        A = DesignMatrix.from_dense(np.random.default_rng(0).standard_normal((5, 3)))
        stats = matrix_stats(A, lam)
        with pytest.raises(BudgetExceeded, match="residual floor"):
            ridge_solve(A, 1e-6, np.ones(3), stats)
        with pytest.raises(BudgetExceeded):
            pc_proj(A, ProjectionConfig(lam=lam, gamma=0.1, eps=1e-2), np.ones(3), stats)
        with pytest.raises(BudgetExceeded):
            pc_regress(A, PcrConfig(lam=lam, gamma=0.1, eps=1e-2), np.ones(5), stats)

    def test_handle_refuses_before_factor_or_product(self):
        A = DesignMatrix.from_dense(np.random.default_rng(1).standard_normal((40, 3)))
        stats = MatrixStats(sigma1_estimate=1.0, lam=1e-20)
        with Recorder(DesignMatrix, "_ridge_factor") as factor, GramCounts() as products:
            with pytest.raises(BudgetExceeded, match="residual floor"):
                ridge_module._gram_solver(A, stats, 1e-2, 1.0)
            with pytest.raises(BudgetExceeded, match="residual floor"):
                ridge_solve(A, 1e-2, np.ones(3), stats)
        assert factor.calls == [] and products.products() == (0, 0)


class TestZeroWidth:
    @staticmethod
    def matrices(tmp_path):
        path = tmp_path / "empty.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n3 0 0\n")
        return (DesignMatrix.from_dense(np.ones((3, 0))),
                DesignMatrix.from_csr(3, 0, [0, 0, 0, 0], [], []), load_matrix(str(path)))

    def test_solves_return_the_empty_solution(self, tmp_path):
        # BLAS level-1 calls refuse empty vectors; each entry answers first.
        stats = MatrixStats(sigma1_estimate=1.0, lam=1.0)
        rational = ProjectionConfig(lam=1.0, gamma=0.1, eps=1e-2, method="rational")
        for A in self.matrices(tmp_path):
            assert A.shape == (3, 0)
            for x in (ridge_solve(A, 1e-2, np.zeros(0), stats),
                      pc_proj(A, rational, np.zeros(0), stats),
                      pc_regress(A, PcrConfig(lam=1.0, gamma=0.1, eps=1e-2), np.ones(3), stats)):
                assert x.dtype == np.float64 and x.shape == (0,)
            with pytest.raises(ValueError, match="no columns"):
                matrix_stats(A, 1.0)

    @pytest.mark.parametrize("method", ["pk", "rational"])
    def test_pc_proj_returns_the_empty_vector(self, tmp_path, method):
        # OperatorHandle refuses dimension 0, so p_k answers before building one.
        stats = MatrixStats(sigma1_estimate=1.0, lam=0.5)
        cfg = ProjectionConfig(lam=0.5, gamma=0.1, eps=1e-2, method=method)
        for A in self.matrices(tmp_path):
            seen = []
            callback = None if method == "rational" else lambda k, s: seen.append((k, s.shape))
            x = pc_proj(A, cfg, np.zeros(0), stats, callback=callback)
            assert x.dtype == np.float64 and x.shape == (0,)
            if method == "pk":
                assert seen == [(k, (0,)) for k in range(cfg.resolve(stats)[0] + 1)]
            with pytest.raises(ValueError, match="MatrixStats built for lambda=0.5"):
                pc_proj(A, replace(cfg, lam=1.0), np.zeros(0), stats)
