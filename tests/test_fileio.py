import re
import tracemalloc
from itertools import product

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
            ("%%MatrixMarket tensor coordinate real general\n1 1 1\n1 1 2\n",
             ":1: malformed MatrixMarket header$"),
            ("%%MatrixMarket matrix dense real general\n1 1\n2\n",
             ":1: unsupported layout 'dense'$"),
            ("%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 2\n",
             r":1: unsupported symmetry 'symmetric' \(general only\)$"),
            ("%%MatrixMarket matrix array real general\n1 1 1\n2\n",
             ":2: array size line must be 'rows cols'$"),
            ("%%MatrixMarket matrix coordinate real general\n% a comment, no size line\n",
             ":2: missing size line$"),
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

    @pytest.mark.parametrize("text", [
        "%%MatrixMarket matrix coordinate real general\n-5 5 0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
        "%%MatrixMarket matrix array real general\n-2 -3\n1\n2\n3\n4\n5\n6\n",
    ], ids=["rows", "entries", "array"])
    def test_negative_size_refused(self, tmp_path, text):
        path = tmp_path / "neg.mtx"
        path.write_text(text)
        with pytest.raises(ValueError, match=r":2: sizes must be nonnegative integers") as exc:
            load_matrix(str(path))
        assert str(exc.value).startswith(f"{path}:")

    @pytest.mark.parametrize("text", [
        "%%MatrixMarket matrix coordinate real general\nx 2 0\n",
        "%%MatrixMarket matrix coordinate real general\n1.5 2 0\n",
        "%%MatrixMarket matrix array real general\n2 y\n1\n2\n",
    ], ids=["letter", "float", "array"])
    def test_non_integer_size_refused(self, tmp_path, text):
        path = tmp_path / "size.mtx"
        path.write_text(text)
        with pytest.raises(ValueError, match=r":2: sizes must be nonnegative integers, got '") as exc:
            load_matrix(str(path))
        assert str(exc.value).startswith(f"{path}:")


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

    @pytest.mark.parametrize("load, data, needle", [
        (load_matrix, b"1,2\n\n3,4\xc3\xa9\n", r":3: non-ASCII byte 0xc3$"),
        (load_matrix, b"1,2\r\xe9,3\n", r":2: non-ASCII byte 0xe9$"),
        (load_vector, b"1\n\xff\n", r":2: non-ASCII byte 0xff$"),
        (load_trace_csv, b"iteration,rel_error\n0,1\n1,0.5\xc2\xb5\n",
         r":3: non-ASCII byte 0xc2$"),
    ])
    def test_non_ascii_byte_reports_path_and_line(self, tmp_path, load, data, needle):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=needle) as exc:
            load(str(path))
        assert str(exc.value).startswith(f"{path}:")

    def test_vector_rejects_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError, match=r":1: expected 1 columns, found 2$") as exc:
            load_vector(str(path))
        assert str(exc.value).startswith(f"{path}:")
        with pytest.raises(ValueError, match=r"expected a vector, got shape \(2, 2\)"):
            save_vector(np.ones((2, 2)), str(tmp_path / "v.csv"))
        assert not (tmp_path / "v.csv").exists()


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

    def test_row_of_other_than_two_fields_refused(self, tmp_path):
        path = tmp_path / "wide.csv"
        for row in ("1,0.5,0.25", "1"):
            path.write_text(f"iteration,rel_error\n0,1\n{row}\n")
            with pytest.raises(ValueError, match=":3: expected 'iteration,rel_error'$"):
                load_trace_csv(str(path))

    def test_nan_error_refused(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("iteration,rel_error\n0,nan\n")
        with pytest.raises(ValueError, match="nonnegative"):
            load_trace_csv(str(path))


# int and float read "1_0" as 10; no number in these formats holds a "_".
@pytest.mark.parametrize("load, text, needle", [
    (load_matrix, "1,2\n3,1_0\n", r":2: could not parse number in \['3', '1_0'\]$"),
    (load_vector, "1\n1_0\n", r":2: could not parse number in \['1_0'\]$"),
    (load_trace_csv, "iteration,rel_error\n0,1\n1_0,0.5\n",
     r":3: bad iteration index '1_0'$"),
    (load_matrix, "%%MatrixMarket matrix coordinate real general\n20 2 1\n1_0 1 1\n",
     r":3: bad indices in '1_0 1 1'$"),
    (load_matrix, "%%MatrixMarket matrix coordinate real general\n20 2 1\n1 1 1_0\n",
     r":3: could not parse number in \['1_0'\]$"),
    (load_matrix, "%%MatrixMarket matrix array real general\n2 1\n1_0\n2\n",
     r":3: could not parse number in \['1_0'\]$"),
    (load_matrix, "%%MatrixMarket matrix coordinate real general\n1_0 2 0\n",
     r":2: sizes must be nonnegative integers, got '1_0 2 0'$"),
], ids=["csv-matrix", "vector", "trace", "mtx-index", "mtx-value", "mtx-array", "mtx-size"])
def test_digit_separator_refused(tmp_path, load, text, needle):
    path = tmp_path / "data"
    path.write_text(text)
    with pytest.raises(ValueError, match=needle) as exc:
        load(str(path))
    assert str(exc.value).startswith(f"{path}:")


# ---------------------------------------------------------------------------
# The bulk MatrixMarket pass against the per-line reader it falls back to.

def _per_line(path, raw=None):
    """The per-line reader's matrix of ``raw``, by default the bytes at ``path``."""
    raw = path.read_bytes() if raw is None else raw
    return fileio._parse_matrix_market(path, fileio._numbered_lines(path, raw))


def _bulk(path, raw=None):
    """The bulk pass's matrix of ``raw``, or None where ``load_matrix`` falls back."""
    try:
        return fileio._bulk_matrix_market(path, path.read_bytes() if raw is None else raw)
    except (ValueError, OverflowError):
        return None


def _peak(load, path):
    """The traced peak of one ``load(path)``, in bytes."""
    tracemalloc.start()
    try:
        load(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        if text.startswith("%%MatrixMarket matrix array"):
            assert got is None  # array bodies are left to the per-line reader
        else:
            assert got is not None  # no fallback for a well-formed coordinate file
            _assert_identical(got, ref)
        _assert_identical(load_matrix(path), ref)

    @staticmethod
    def _large_coordinate(field="real"):
        """Lines of a 60x50 file with 3000 entries; entry k sits on line k + 2."""
        rng = np.random.default_rng(11)
        value = {"real": lambda: repr(rng.standard_normal()),
                 "integer": lambda: str(rng.integers(-99, 100))}[field]
        rows = [f"{rng.integers(1, 61)} {rng.integers(1, 51)} {value()}" for _ in range(3000)]
        return [f"%%MatrixMarket matrix coordinate {field} general", "60 50 3000", *rows]

    def test_well_formed_file_skips_per_line_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "large.mtx"
        path.write_text("\n".join(self._large_coordinate()) + "\n")
        ref = _per_line(path)
        calls = []
        monkeypatch.setattr(fileio, "_parse_matrix_market", lambda *args: calls.append(args))
        _assert_identical(load_matrix(path), ref)
        assert calls == []

    # Tokens that a lenient reader would read as a prefix, or to another
    # value than int / float, among ones that read whole.
    @pytest.mark.parametrize("field, line", [
        ("real", "1 1 1-2"), ("real", "1 1 1e"), ("real", "1 1 1..2"), ("real", "1 1 1e+"),
        ("real", "1 1 0x1p0"), ("real", "1 1 1_0"), ("real", "1 1 +.5"), ("real", "+1 1 2.5"),
        ("integer", "1 1 3.5"), ("real", "1 1 2.5 7"), ("real", "99999999999999999999 1 2.5"),
        ("real", "1 1 1e999"), ("real", "-1 1 2.5"), ("real", "1 -0 2.5"), ("real", "1 1 1e5.3"),
        ("real", "1 1 .e5"), ("real", "1 1 1e-.5"), ("real", "1 1.0 2.5"), ("real", "1 1 2.5 x"),
        ("real", "1 1 1.e5"), ("real", "1 1 -.5E+3"), ("integer", "1 1 99999999999999999999"),
    ])
    def test_token_reads_as_per_line(self, tmp_path, field, line):
        lines = self._large_coordinate(field)
        lines[2401] = line
        path = tmp_path / "token.mtx"
        path.write_text("\n".join(lines) + "\n")
        try:
            ref = _per_line(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as loaded:
                load_matrix(path)
            assert type(loaded.value) is type(exc) and str(loaded.value) == str(exc)
            return
        _assert_identical(load_matrix(path), ref)

    # Each body, after a size line of a 9x9 file, falls back or reads as the
    # per-line reader reads it; ``ok`` says which.
    @pytest.mark.parametrize("body, count, ok", [
        pytest.param("\n +1\t02 -.5E+3 \n\n1 1 1.\r\n\n", 2, True, id="well-formed"),
        pytest.param("\n1 1 1 2 2 2\n\n", 2, False, id="two-entries-on-one-line"),
        pytest.param("\n1 1\n2 2 2 2\n", 2, False, id="two-fields-then-four"),
        pytest.param("\n1 1 1\n2 2 2\n", 1, False, id="more-entries-than-nnz"),
        pytest.param("\n1 1 1\n", 2, False, id="fewer-entries-than-nnz"),
        pytest.param("\n1 1 .\n", 1, False, id="point-without-digit"),
        pytest.param("\n1 1 +\n", 1, False, id="bare-sign"),
        pytest.param("\n x\n", 0, False, id="byte-no-token-holds"),
        pytest.param("\n1 1\r1\n", 1, False, id="lone-cr"),
        pytest.param("\n1\r1 1\n", 1, False, id="lone-cr-after-row"),
        pytest.param("\n1 1 1\n% c\n", 1, False, id="comment"),
        pytest.param("\n \n", 0, True, id="no-entries"),
        pytest.param("\n\n", 1, False, id="entries-missing"),  # loadtxt warns on no data
    ])
    def test_strict_body(self, tmp_path, body, count, ok):
        path = tmp_path / "body.mtx"
        path.write_bytes(f"%%MatrixMarket matrix coordinate real general\n9 9 {count}{body}"
                         .encode("ascii"))
        got = _bulk(path)
        assert (got is not None) is ok
        try:
            ref = _per_line(path)
        except ValueError:
            assert not ok
            return
        _assert_identical(got if ok else load_matrix(path), ref)

    def test_strict_body_token_grammar(self, tmp_path):
        """Every token of up to five bytes from a small alphabet, as value and as column.

        The bulk pass reads a token as the per-line reader does or falls
        back, and reads every token of the strict grammar.
        """
        value = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
        index = re.compile(r"[+-]?\d+")
        path = tmp_path / "token.mtx"  # named in errors, never written
        for size in range(1, 6):
            for token in map("".join, product("1+-.ex", repeat=size)):
                for line, grammar in ((f"1 1 {token}", value), (f"1 {token} 1", index)):
                    raw = b"%%MatrixMarket matrix coordinate real general\n9 99999 1\n"
                    raw += f"{line}\n".encode("ascii")
                    got = _bulk(path, raw)
                    try:
                        ref = _per_line(path, raw)
                    except ValueError:
                        assert got is None, line
                        continue
                    if got is not None:
                        _assert_identical(got, ref)
                    else:  # the per-line reader reads it, so it is outside the grammar
                        assert not grammar.fullmatch(token), line

    # Checks of the bytes, line ends and entry count: each file reads as
    # the per-line reader reads it.
    @pytest.mark.parametrize("case", ["lone-cr", "blank-x0b", "blank-x0c", "blank-x1c",
                                      "non-ascii-comment", "comment-x0b", "comment-cr",
                                      "no-final-lf", "count-2**32"])
    def test_grammar_checks_read_as_per_line(self, tmp_path, case):
        needle = {"non-ascii-comment": r":2: non-ASCII byte 0xc3$",
                  "comment-x0b": r":3: coordinate size line must be 'rows cols nnz'$",
                  "comment-cr": r":3: coordinate size line must be 'rows cols nnz'$",
                  "count-2**32": r":2: expected 4294967296 entries, found 3$"}.get(case)
        lines = self._large_coordinate()
        if case == "lone-cr":
            lines[1] = "60 50 3001"
            lines[2401] = "1 1 1\r2 2 2"
        elif case.startswith("blank-"):
            lines.insert(1500, f" {chr(int(case[-2:], 16))} ")
        elif case == "non-ascii-comment":
            lines.insert(1, "% café")
        elif case.startswith("comment-"):  # a line break only the per-line reader sees
            lines.insert(1, {"comment-x0b": "% a\x0bb", "comment-cr": "% a\rb"}[case])
        elif case == "count-2**32":
            lines[1:] = ["60 50 4294967296", *lines[2:5]]
        text = "\n".join(lines) + ("" if case == "no-final-lf" else "\n")
        path = tmp_path / "case.mtx"
        path.write_bytes(text.encode("utf-8"))
        if needle is None:
            _assert_identical(load_matrix(path), _per_line(path))
            assert case != "no-final-lf" or _bulk(path) is not None
            return
        with pytest.raises(ValueError, match=needle) as per_line:
            _per_line(path)
        with pytest.raises(ValueError) as loaded:
            load_matrix(path)
        assert type(loaded.value) is type(per_line.value)
        assert str(loaded.value) == str(per_line.value)

    @pytest.mark.parametrize("case, needle", [
        ("two-fields", r":2402: coordinate entry must be 'row col value'$"),
        ("four-fields", r":2402: coordinate entry must be 'row col value'$"),
        ("float-index", r":2402: bad indices in '1\.0 1 2\.5'$"),
        ("index-zero", r":2402: index \(0, 1\) outside 60x50$"),
        ("index-out-of-range", r":2402: index \(61, 1\) outside 60x50$"),
        ("nan-value", r"^matrix contains non-finite entries$"),
        ("entry-count", r":2: expected 3001 entries, found 3000$"),
        ("non-ascii", r":2402: non-ASCII byte 0xc3$"),
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
        assert _bulk(path) is None
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
        assert _bulk(path) is not None
        assert _peak(load_matrix, path) < _peak(_per_line, path)

    def test_load_peak_memory_within_four_times_file(self, tmp_path):
        # 50,000 entries of a 5000x1000 matrix, the size of a pcr-sparse file.
        rng = np.random.default_rng(13)
        entries = np.column_stack([rng.integers(1, 5001, 50_000), rng.integers(1, 1001, 50_000),
                                   rng.standard_normal(50_000)])
        path = tmp_path / "big.mtx"
        np.savetxt(path, entries, fmt=("%d", "%d", "%.17g"), comments="",
                   header="%%MatrixMarket matrix coordinate real general\n5000 1000 50000")
        assert _peak(load_matrix, path) <= 4 * path.stat().st_size
