import tracemalloc

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeproj.fileio as fileio

from ridgeproj import (
    ConvergenceTrace,
    DesignMatrix,
    load_matrix,
    load_trace_csv,
    load_vector,
    save_matrix,
    save_trace_csv,
    save_vector,
)
from helpers import random_csr


class TestMatrixMarket:
    def test_coordinate_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        A, arr = random_csr(rng, 12, 9, density=0.3)
        path = tmp_path / "m.mtx"
        save_matrix(A, str(path))
        back = load_matrix(str(path))
        assert back.storage == "csr"
        assert back.nnz == A.nnz
        assert np.array_equal(back.toarray(), arr)

    def test_array_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal((7, 5))
        A = DesignMatrix.from_dense(arr)
        path = tmp_path / "dense.mtx"
        save_matrix(A, str(path))
        back = load_matrix(str(path))
        assert np.array_equal(back.toarray(), arr)

    def test_scipy_reads_our_files(self, tmp_path):
        rng = np.random.default_rng(2)
        A, arr = random_csr(rng, 8, 6)
        path = tmp_path / "x.mtx"
        save_matrix(A, str(path))
        assert np.allclose(scipy.io.mmread(str(path)).toarray(), arr, atol=0)

    def test_we_read_scipy_files(self, tmp_path):
        rng = np.random.default_rng(3)
        arr = np.round(rng.standard_normal((6, 4)), 6)
        arr[np.abs(arr) < 0.6] = 0.0
        path = tmp_path / "s.mtx"
        scipy.io.mmwrite(str(path), scipy.sparse.coo_matrix(arr))
        assert np.allclose(load_matrix(str(path)).toarray(), arr, atol=0)

    def test_small_coordinate_literal(self, tmp_path):
        path = tmp_path / "lit.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "2 2 3\n"
            "1 1 1.5\n"
            "1 2 -2\n"
            "2 2 4\n"
        )
        A = load_matrix(str(path))
        assert A.storage == "csr"
        assert A.nnz == 3
        assert np.array_equal(A.toarray(), [[1.5, -2.0], [0.0, 4.0]])

    def test_errors_carry_line_numbers(self, tmp_path):
        cases = [
            ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 2\n", ":1:"),
            ("%%MatrixMarket matrix coordinate real general\n2 2\n", ":2:"),
            ("%%MatrixMarket matrix coordinate real general\n1 1 1\n5 5 2\n", ":3:"),
            ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 oops\n", ":3:"),
            ("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n", "expected 4 values"),
        ]
        for text, needle in cases:
            path = tmp_path / "bad.mtx"
            path.write_text(text)
            with pytest.raises(ValueError, match=needle):
                load_matrix(str(path))

    def test_array_column_major(self, tmp_path):
        path = tmp_path / "cm.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
        )
        assert np.array_equal(load_matrix(str(path)).toarray(), [[1.0, 3.0], [2.0, 4.0]])


class TestCsv:
    def test_matrix_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        arr = rng.standard_normal((5, 3))
        path = tmp_path / "m.csv"
        save_matrix(DesignMatrix.from_dense(arr), str(path))
        assert np.array_equal(load_matrix(str(path)).toarray(), arr)

    def test_vector_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(9)
        path = tmp_path / "v.csv"
        save_vector(x, str(path))
        assert np.array_equal(load_vector(str(path)), x)

    def test_vector_single_line_form(self, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text("1.5,2.5,-3\n")
        assert np.array_equal(load_vector(str(path)), [1.5, 2.5, -3.0])

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_matrix(str(path))
        with pytest.raises(ValueError, match="empty"):
            load_vector(str(path))

    def test_ragged_matrix_errors_with_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match=":2:"):
            load_matrix(str(path))

    def test_vector_rejects_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError, match="one value per line"):
            load_vector(str(path))


class TestTraceCsv:
    def test_roundtrip_identical_records(self, tmp_path):
        trace = ConvergenceTrace(records=[(0, 1.0), (1, 0.25), (2, 1e-17)],
                                 algorithm="projection",
                                 metadata={"gamma": 0.1})
        path = tmp_path / "t.csv"
        save_trace_csv(trace, str(path))
        back = load_trace_csv(str(path))
        assert back.records == trace.records

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("iter,err\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            load_trace_csv(str(path))


# ---------------------------------------------------------------------------
# The bulk MatrixMarket pass against the per-line reader it falls back to.

def _per_line(path):
    return fileio._parse_matrix_market(path, fileio._numbered_lines(path.read_text("ascii")))


def _bulk(path):
    with open(path, "rb") as fh:
        return fileio._bulk_matrix_market(path, fh.read())


def _assert_identical(A, B):
    assert (A.storage, A.shape) == (B.storage, B.shape)
    if A.storage == "dense":
        assert A.toarray().tobytes() == B.toarray().tobytes()
        return
    for a, b in zip(A.csr_parts(), B.csr_parts()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


_REAL_FORMS = (repr, "{:.17g}".format, "{:+.6e}".format, "{:.3E}".format, "{:+.0f}".format)


@st.composite
def _mtx_files(draw):
    """Well-formed files of both layouts, in the spellings the format allows."""
    layout = draw(st.sampled_from(["coordinate", "array"]))
    field = draw(st.sampled_from(["real", "integer"]))
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if field == "integer":
        number = st.builds(str.format, st.sampled_from(["{}", "{:+d}"]), st.integers(-99, 99))
    else:
        # Bounded so that no rounded spelling overflows to inf.
        number = st.builds(lambda form, v: form(v), st.sampled_from(_REAL_FORMS),
                           st.floats(-1e300, 1e300))
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    tail = st.sampled_from(["", " ", "\t", "  "])
    banner = f"%%MatrixMarket matrix {layout} {field} general"
    comments = draw(st.lists(st.sampled_from(["%", "% a comment", "%%note 1 2 3", ""]),
                             max_size=3))
    if layout == "coordinate":
        # Small shapes make duplicates and unsorted entries common.
        entries = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, d), number),
                                max_size=15))
        body = [f"{n} {d} {len(entries)}"]
        for i, j, v in entries:
            index = draw(st.sampled_from(["{}", "+{}", "0{}"]))
            body.append(draw(sep).join([index.format(i), str(j), v]) + draw(tail))
            if draw(st.booleans()):
                body.append(draw(st.sampled_from(["", " ", "\t"])))
    else:
        values = [draw(number) for _ in range(n * d)]
        body = [f"{n} {d}"]
        while values:
            k = draw(st.integers(1, 3))
            body.append(draw(sep).join(values[:k]) + draw(tail))
            values = values[k:]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join([banner, *comments, *body]) + eol


class TestBulkMatrixMarket:
    @given(text=_mtx_files())
    @settings(max_examples=200, deadline=None)
    def test_bulk_pass_builds_per_line_matrix(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("mtx") / "m.mtx"
        path.write_bytes(text.encode("ascii"))
        ref = _per_line(path)
        got = _bulk(path)
        assert got is not None  # no fallback for a well-formed file
        _assert_identical(got, ref)
        _assert_identical(load_matrix(path), ref)

    @staticmethod
    def _large_coordinate():
        """Lines of a 60x50 file with 3000 entries; entry k sits on line k + 2."""
        rng = np.random.default_rng(11)
        rows = [f"{rng.integers(1, 61)} {rng.integers(1, 51)} {rng.standard_normal()!r}"
                for _ in range(3000)]
        return ["%%MatrixMarket matrix coordinate real general", "60 50 3000", *rows]

    @pytest.mark.parametrize("case, needle", [
        ("two-fields", r":2402: coordinate entry must be 'row col value'$"),
        ("four-fields", r":2402: coordinate entry must be 'row col value'$"),
        ("float-index", r":2402: bad indices in '1\.0 1 2\.5'$"),
        ("index-zero", r":2402: index \(0, 1\) outside 60x50$"),
        ("index-out-of-range", r":2402: index \(61, 1\) outside 60x50$"),
        ("nan-value", r"^matrix contains non-finite entries$"),
        ("entry-count", r":2: expected 3001 entries, found 3000$"),
        ("non-ascii", r"'ascii' codec can't decode byte 0xc3"),
    ])
    def test_fallback_raises_per_line_error(self, tmp_path, case, needle):
        lines = self._large_coordinate()
        bad = {"two-fields": "1 1", "four-fields": "1 1 2.5 7", "float-index": "1.0 1 2.5",
               "index-zero": "0 1 2.5", "index-out-of-range": "61 1 2.5",
               "nan-value": "1 1 nan", "non-ascii": "1 1 2.5é"}
        if case == "entry-count":
            lines[1] = "60 50 3001"
        else:
            lines[2401] = bad[case]
        path = tmp_path / "bad.mtx"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        try:
            assert _bulk(path) is None
        except (ValueError, OverflowError):
            pass
        with pytest.raises(ValueError) as per_line:
            _per_line(path)
        with pytest.raises(ValueError, match=needle) as loaded:
            load_matrix(path)
        assert type(loaded.value) is type(per_line.value)
        assert str(loaded.value) == str(per_line.value)

    def test_comment_inside_body_falls_back(self, tmp_path):
        lines = self._large_coordinate()
        lines.insert(1500, "% a comment between entries")
        path = tmp_path / "commented.mtx"
        path.write_text("\n".join(lines) + "\n")
        assert _bulk(path) is None
        _assert_identical(load_matrix(path), _per_line(path))

    def test_bulk_peak_memory_below_per_line(self, tmp_path):
        rng = np.random.default_rng(12)
        A, _ = random_csr(rng, 400, 250, density=0.2)
        path = tmp_path / "big.mtx"
        save_matrix(A, str(path))
        assert 18_000 < A.nnz < 22_000

        def peak(load):
            tracemalloc.start()
            try:
                load(path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert _bulk(path) is not None
        assert peak(load_matrix) < peak(_per_line)
