import math

import numpy as np
import pytest

from ridgeproj import (
    ConvergenceFailure,
    DesignMatrix,
    MatrixStats,
    gram_apply,
    matrix_stats,
    ridge_solve,
    svd_small,
)
from ridgeproj import ridge as ridge_module
from helpers import m_inv_norm, m_norm, random_csr, random_dense


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
        rng = np.random.default_rng(2024)
        for trial in range(100):
            n = int(rng.integers(8, 60))
            d = int(rng.integers(4, min(n, 40) + 1))
            A = random_dense(rng, n, d, scale=float(rng.uniform(0.5, 2.0)))
            lam = float(rng.uniform(0.05, 5.0))
            eps = float(10 ** rng.uniform(-8, -0.5))
            y = rng.standard_normal(d)
            stats = matrix_stats(A, lam)
            x = ridge_solve(A, eps, y, stats)
            F = svd_small(A)
            x_star = _exact_solve(F, lam, y)
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

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        A = random_dense(rng, 25, 12)
        y = rng.standard_normal(12)
        stats = matrix_stats(A, 1.0)
        a = ridge_solve(A, 1e-8, y, stats)
        b = ridge_solve(A, 1e-8, y, stats)
        assert np.array_equal(a, b)

    def test_params_validation(self):
        # lambda is checked where it lives, in MatrixStats; eps by the solver.
        with pytest.raises(ValueError, match="lambda"):
            MatrixStats(sigma1_estimate=1.0, lam=0.0)
        A = DesignMatrix.from_dense(np.eye(2))
        stats = MatrixStats(sigma1_estimate=1.0, lam=1.0)
        for eps in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError, match="eps"):
                ridge_solve(A, eps, np.ones(2), stats)


def _exact_solve(F, lam, y):
    coeff = F.V.T @ y
    perp = y - F.V @ coeff
    return F.V @ (coeff / (F.singular_values ** 2 + lam)) + perp / lam


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
    shape = {"tall": (120, 80), "square": (60, 60), "wide": (40, 70), "csr": (200, 90)}[kind]
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

    @pytest.fixture
    def counted(self, monkeypatch):
        counts = {"mv": 0, "rmv": 0, "iters": []}
        mv, rmv, cg = DesignMatrix._mv, DesignMatrix._rmv, ridge_module._cg

        def count(name, orig):
            def wrapped(self, v):
                counts[name] += 1
                return orig(self, v)
            return wrapped

        def cg_spy(*args):
            out = cg(*args)
            counts["iters"].append(out[2])
            return out

        monkeypatch.setattr(DesignMatrix, "_mv", count("mv", mv))
        monkeypatch.setattr(DesignMatrix, "_rmv", count("rmv", rmv))
        monkeypatch.setattr(ridge_module, "_cg", cg_spy)
        return counts

    @pytest.mark.parametrize("kind", ["tall", "square", "csr"])
    def test_ridge_solve(self, kind, counted):
        rng = np.random.default_rng(406)
        A, arr = _kernel_case(kind, rng)
        lam = 0.05 * np.linalg.norm(arr, 2) ** 2
        stats = matrix_stats(A, lam)
        counted.update(mv=0, rmv=0)
        ridge_solve(A, 1e-8, rng.standard_normal(A.n_cols), stats)
        (iters,) = counted["iters"]
        assert iters > 0
        assert counted["mv"] == counted["rmv"] == iters

    @pytest.mark.parametrize("kind", ["tall", "square", "csr"])
    def test_gram_solver_application(self, kind, counted):
        rng = np.random.default_rng(407)
        A, arr = _kernel_case(kind, rng)
        lam = 0.05 * np.linalg.norm(arr, 2) ** 2
        stats = matrix_stats(A, lam)
        apply = ridge_module._gram_solver(A, stats, 1e-8, 0.0)
        counted.update(mv=0, rmv=0)
        apply(rng.standard_normal(A.n_cols))
        (iters,) = counted["iters"]
        assert iters > 0
        assert counted["mv"] == counted["rmv"] == iters + 1
