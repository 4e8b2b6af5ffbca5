import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from ridgeproj import (
    DesignMatrix,
    DimensionMismatch,
    PcrConfig,
    ProjectionConfig,
    exact_pcr,
    exact_projection,
    gen_synthetic,
    gram_apply,
    gram_norm,
    matrix_stats,
    pc_proj,
    pc_regress,
    ridge_solve,
    svd_small,
)
from ridgeproj import ridge as ridge_module
from helpers import random_csr

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ridgeproj").glob("*.py"))
# Storage attributes of a DesignMatrix, and the modules that may read them:
# the file writer picks its format by ``storage``.
STORAGE_READERS = {"_m": {"matrix.py"}, "_mt": {"matrix.py"}, "_factor": {"matrix.py"},
                   "storage": {"matrix.py", "fileio.py"}}


class TestGramApply:
    def test_diagonal_squares_entries(self):
        A = DesignMatrix.from_dense(np.diag([2.0, 3.0]))
        assert np.allclose(gram_apply(A, [1.0, 1.0]), [4.0, 9.0])

    def test_zero_vector(self):
        A = DesignMatrix.from_dense(np.random.default_rng(0).standard_normal((5, 3)))
        assert np.all(gram_apply(A, np.zeros(3)) == 0.0)

    def test_hand_computed_2x2(self):
        # A = [[1,1],[0,1]]: A^T A = [[1,1],[1,2]], so A^T A e_1 = (1, 1).
        A = DesignMatrix.from_dense([[1.0, 1.0], [0.0, 1.0]])
        assert np.allclose(gram_apply(A, [1.0, 0.0]), [1.0, 1.0])

    def test_dimension_mismatch_carries_both(self):
        A = DesignMatrix.from_dense(np.ones((4, 3)))
        with pytest.raises(DimensionMismatch) as exc:
            gram_apply(A, np.ones(5))
        assert exc.value.expected == 3
        assert exc.value.got == 5

    def test_rejects_nonfinite_input(self):
        A = DesignMatrix.from_dense(np.ones((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            gram_apply(A, np.array([1.0, np.nan]))


class TestGramNorm:
    def test_identity(self):
        A = DesignMatrix.from_dense(np.eye(2))
        assert gram_norm(A, [3.0, 4.0]) == pytest.approx(5.0)

    def test_zero(self):
        A = DesignMatrix.from_dense(np.eye(3))
        assert gram_norm(A, np.zeros(3)) == 0.0

    def test_diagonal(self):
        A = DesignMatrix.from_dense(np.diag([2.0, 3.0]))
        assert gram_norm(A, [1.0, 1.0]) == pytest.approx(np.sqrt(13.0))

    def test_agrees_with_gram_apply_quadratic_form(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            A = DesignMatrix.from_dense(rng.standard_normal((12, 8)))
            x = rng.standard_normal(8)
            lhs = float(gram_apply(A, x) @ x)
            rhs = gram_norm(A, x) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("k", [-664, 664])
    def test_power_of_two_scaling_is_exact(self, k):
        # The square of ||A 2^k x|| over- or underflows at these k; the norm
        # is taken of A x scaled to a largest entry in [1/2, 1).
        rng = np.random.default_rng(12)
        A = DesignMatrix.from_dense(rng.standard_normal((30, 10)))
        x = rng.standard_normal(10)
        assert gram_norm(A, np.ldexp(x, k)) == np.ldexp(gram_norm(A, x), k) > 0.0


class TestProductSeam:
    """Every product runs through ``DesignMatrix._mv`` / ``_rmv`` as looked up on the class.

    The benchmark counts products by patching those two methods on the
    class, so a product that bypassed them would go uncounted.
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"mv": 0, "rmv": 0, "iters": []}
        cg = ridge_module._cg

        def counted(name, orig):
            def wrapped(self, v):
                counts[name] += 1
                return orig(self, v)
            return wrapped

        def cg_spy(*args):
            out = cg(*args)
            counts["iters"].append(out[2])
            return out

        monkeypatch.setattr(DesignMatrix, "_mv", counted("mv", DesignMatrix._mv))
        monkeypatch.setattr(DesignMatrix, "_rmv", counted("rmv", DesignMatrix._rmv))
        monkeypatch.setattr(ridge_module, "_cg", cg_spy)
        return counts

    @pytest.mark.parametrize("kind", ["wide", "tall", "csr"])
    def test_every_entry_point_is_counted(self, kind, counts):
        rng = np.random.default_rng(31)
        if kind == "csr":
            A, arr = random_csr(rng, 60, 20)
        else:
            arr = rng.standard_normal((15, 40) if kind == "wide" else (200, 10))
            A = DesignMatrix.from_dense(arr)
        stats = matrix_stats(A, 0.05 * np.linalg.norm(arr, 2) ** 2)
        x, z = rng.standard_normal(A.n_cols), rng.standard_normal(A.n_rows)

        def products(fn, *args):
            counts.update(mv=0, rmv=0, iters=[])
            fn(*args)
            return counts["mv"], counts["rmv"]

        assert products(A.matvec, x) == (1, 0)
        assert products(A.rmatvec, z) == (0, 1)
        assert products(gram_apply, A, x) == (1, 1)
        solved = products(ridge_solve, A, 1e-8, x, stats)
        (iters,) = counts["iters"]
        assert iters > 0 and solved == (iters, iters)  # one gram product per CG iteration
        applied = products(ridge_module._gram_solver(A, stats, 1e-8, 0.0).apply, x)
        if kind == "tall":  # n >= 10 d: the factored handle makes no CG run and no product
            assert counts["iters"] == [] and applied == (0, 0)
        else:  # v - lam M^{-1} v: one gram product per CG iteration, none for the rhs
            (iters,) = counts["iters"]
            assert applied == (iters, iters)

    @pytest.mark.parametrize("shape", [(15, 40), (200, 10)])
    def test_dense_transpose_is_a_view(self, shape):
        A = DesignMatrix.from_dense(np.random.default_rng(32).standard_normal(shape))
        for M in [A] + ([] if A._factor is None else [A._factor]):
            assert np.shares_memory(M._mt, M._m) and M._mt.shape == M._m.shape[::-1]

    def test_csr_transpose_is_a_csr_matrix(self):
        A, arr = random_csr(np.random.default_rng(33), 30, 12)
        assert A._mt.format == "csr" and np.array_equal(A._mt.toarray(), arr.T)


class TestStorage:
    def test_rejects_nonfinite_matrix(self):
        with pytest.raises(ValueError, match="finite"):
            DesignMatrix.from_dense([[1.0, np.inf]])

    def test_csr_validation(self):
        with pytest.raises(ValueError, match="monotone"):
            DesignMatrix.from_csr(2, 2, [0, 2, 1], [0, 1, 0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="out of range"):
            DesignMatrix.from_csr(1, 2, [0, 1], [5], [1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            DesignMatrix.from_csr(1, 3, [0, 2], [1, 1], [1.0, 2.0])
        # Rows 0 and 1 are fine (row 1 empty, indices may drop across rows);
        # the error names row 2, the first offending one, not row 3.
        with pytest.raises(ValueError, match="strictly increasing in row 2$"):
            DesignMatrix.from_csr(4, 3, [0, 2, 2, 4, 6], [1, 2, 2, 0, 1, 1],
                                  [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        ok = DesignMatrix.from_csr(3, 3, [0, 2, 2, 4], [1, 2, 0, 1], [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(ok.toarray(), [[0, 1, 2], [0, 0, 0], [3, 4, 0]])
        with pytest.raises(ValueError, match="indptr"):
            DesignMatrix.from_csr(2, 2, [0, 1], [0], [1.0])
        for n, d, indptr, name in ((-1, 3, [], "n_rows"), (2, -1, [0, 0, 0], "n_cols")):
            with pytest.raises(ValueError, match=f"{name} must be an integer of at least 0, got -1$"):
                DesignMatrix.from_csr(n, d, indptr, [], [])
        # Refused, not truncated: 2.9 is not a row count, nor True a column count.
        for n, d in ((2.9, 2), (2, True), (np.float64(2.0), 2), ("2", 2)):
            with pytest.raises(ValueError, match="must be an integer of at least 0"):
                DesignMatrix.from_csr(n, d, [0, 1, 2], [0, 1], [1.0, 2.0])
        A = DesignMatrix.from_csr(np.int64(2), np.int32(2), [0, 1, 2], [0, 1], [1.0, 2.0])
        assert A.shape == (2, 2)

    def test_csr_row_check_matches_per_row_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            indptr = np.concatenate([[0], np.cumsum(rng.integers(0, 4, n))])
            indices = rng.integers(0, 4, indptr[-1])
            expect = None
            for i in range(n):
                if np.any(np.diff(indices[indptr[i]:indptr[i + 1]]) <= 0):
                    expect = f"CSR column indices not strictly increasing in row {i}"
                    break
            try:
                DesignMatrix.from_csr(n, 4, indptr, indices, np.ones(indices.size))
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == expect

    def test_csr_dense_agreement(self):
        rng = np.random.default_rng(11)
        B, arr = random_csr(rng, 20, 15, density=0.25)
        A = DesignMatrix.from_dense(arr)
        x = rng.standard_normal(15)
        z = rng.standard_normal(20)
        ax_d, ax_c = A.matvec(x), B.matvec(x)
        assert np.allclose(ax_c, ax_d, rtol=1e-12, atol=1e-14)
        assert np.allclose(B.rmatvec(z), A.rmatvec(z), rtol=1e-12, atol=1e-14)
        assert np.allclose(gram_apply(B, x), gram_apply(A, x), rtol=1e-12, atol=1e-13)

    def test_toarray_csr_roundtrip(self):
        rng = np.random.default_rng(3)
        B, arr = random_csr(rng, 9, 6)
        assert np.array_equal(B.toarray(), arr)
        indptr, indices, data = B.csr_parts()
        again = DesignMatrix.from_csr(9, 6, indptr, indices, data)
        assert np.array_equal(again.toarray(), arr)

    def test_shape_and_nnz(self):
        A = DesignMatrix.from_dense([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        assert A.shape == (3, 2)
        assert A.nnz == 2
        # CSR counts what it stores, explicit zeros included: the entries a product reads.
        B = DesignMatrix.from_csr(2, 2, [0, 1, 2], [0, 1], [1.0, 0.0])
        assert B.nnz == 2
        assert DesignMatrix.from_dense(B.toarray()).nnz == 1


def _factor_case(kind):
    rng = np.random.default_rng(21)
    if kind == "csr":
        return random_csr(rng, 60, 20)
    shape = {"tall": (60, 20), "square": (20, 20), "wide": (15, 40),
             "rank_deficient": (60, 20)}[kind]
    arr = rng.standard_normal(shape)
    if kind == "rank_deficient":
        arr[:, 5] = arr[:, 2]
        arr[:, 7] = 0.0
    return DesignMatrix.from_dense(arr), arr


class TestGramFactor:
    @pytest.mark.parametrize("kind", ["tall", "square", "wide", "rank_deficient", "csr"])
    def test_gram_apply_matches_two_products(self, kind):
        A, arr = _factor_case(kind)
        scale = np.linalg.norm(arr, 2) ** 2
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.standard_normal(arr.shape[1])
            err = np.linalg.norm(gram_apply(A, x) - arr.T @ (arr @ x))
            assert err <= 1e-13 * scale * np.linalg.norm(x)

    @pytest.mark.parametrize("kind", ["tall", "square", "wide", "rank_deficient", "csr"])
    def test_factor_only_for_tall_dense(self, kind):
        A, arr = _factor_case(kind)
        if kind in ("tall", "rank_deficient"):
            d = arr.shape[1]
            R = A._factor
            assert R.shape == (d, d) and R.storage == "dense"
            assert not R._m.flags.writeable
            assert R._factor is None
        else:
            assert A._factor is None
        # The public products still run on A itself.
        assert A.shape == arr.shape
        assert np.array_equal(A.toarray(), arr)

    def test_from_dense_leaves_caller_array_alone(self):
        arr = np.random.default_rng(8).standard_normal((30, 6))
        before = arr.copy()
        A = DesignMatrix.from_dense(arr)
        assert np.array_equal(arr, before)
        assert arr.flags.writeable
        assert A._m is not arr

    @pytest.mark.parametrize("shape", [(60, 20), (61, 7), (20, 20), (15, 40)])
    def test_stored_arrays_cache_line_aligned(self, shape):
        # A factor that starts mid-cache-line runs gram products up to 1.5x slower.
        arr = np.random.default_rng(10).standard_normal(shape)
        A = DesignMatrix.from_dense(arr)
        stored = [A._m] + ([] if A._factor is None else [A._factor._m])
        for a in stored:
            assert a.ctypes.data % 64 == 0
            assert a.flags.c_contiguous and not a.flags.writeable
            assert a.dtype == np.float64
        assert np.array_equal(A._m, arr)
        if A._factor is not None:
            assert np.array_equal(A._factor._m, np.linalg.qr(arr, mode="r"))

    def test_from_dense_memory_peak(self):
        arr = np.random.default_rng(9).standard_normal((400, 50))
        tracemalloc.start()
        try:
            A = DesignMatrix.from_dense(arr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One stored copy of A plus R; a second n-by-d copy would exceed this.
        assert peak <= 1.25 * (arr.nbytes + A._factor._m.nbytes)


class TestFactorReference:
    """The same tall matrix with (dense) and without (CSR) the gram factor."""

    @pytest.fixture(scope="class")
    def pair(self):
        problem = gen_synthetic(80, 30, 8, 0.2, seed=17)
        arr = problem.A.toarray()
        csr = sp.csr_matrix(arr)
        plain = DesignMatrix.from_csr(*arr.shape, csr.indptr, csr.indices, csr.data)
        assert problem.A._factor is not None and plain._factor is None
        return problem, plain, svd_small(problem.A)

    def test_matrix_stats_agree(self, pair):
        problem, plain, _ = pair
        s1 = matrix_stats(problem.A, problem.lam).sigma1_estimate
        s2 = matrix_stats(plain, problem.lam).sigma1_estimate
        assert abs(s1 - s2) <= 1e-12 * s2

    def test_pc_proj_agrees(self, pair):
        problem, plain, oracle = pair
        eps = 1e-6
        cfg = ProjectionConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=eps)
        y = np.random.default_rng(2).standard_normal(30)
        ref = exact_projection(oracle, problem.lam, y)
        outs = [pc_proj(A, cfg, y, matrix_stats(A, problem.lam)) for A in (problem.A, plain)]
        assert np.linalg.norm(outs[0] - outs[1]) <= 1e-10 * np.linalg.norm(y)
        for s in outs:
            assert np.linalg.norm(s - ref) <= eps * np.linalg.norm(y)

    def test_pc_regress_agrees(self, pair):
        problem, plain, oracle = pair
        eps = 1e-6
        cfg = PcrConfig(lam=problem.lam, gamma=problem.algorithm_gap(), eps=eps)
        b = problem.b
        ref = exact_pcr(oracle, problem.lam, b)
        outs = [pc_regress(A, cfg, b, matrix_stats(A, problem.lam)) for A in (problem.A, plain)]
        assert np.linalg.norm(outs[0] - outs[1]) <= 1e-10 * np.linalg.norm(b)
        for s in outs:
            assert gram_norm(problem.A, s - ref) <= eps * np.linalg.norm(b)


def storage_reads(path):
    """``attr:line`` of each storage attribute that ``path`` reads but may not."""
    return [f"{node.attr}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and path.name not in STORAGE_READERS.get(node.attr, {path.name})]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_storage_is_read_in_matrix_module_only(path):
    assert "matrix.py" in [p.name for p in SOURCES]
    assert storage_reads(path) == []
