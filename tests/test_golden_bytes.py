"""The exact bytes of every file the package writes, pinned as literals.

The literals hold values whose 17-digit spellings are easy to get wrong: a
negative zero, 1e-300, 1e300 and 1/3.  A writer change that keeps
round-trips exact but alters a spelling fails here.
"""

import numpy as np
import pytest

from ridgeproj import (
    ConvergenceTrace,
    DesignMatrix,
    load_matrix,
    save_matrix,
    save_trace_csv,
    save_vector,
)
from ridgeproj.cli import main

DENSE = np.array([[1 / 3, -0.0, 1e-300], [-2.5, 1e300, 7.0]])


def written(tmp_path, name, write):
    path = tmp_path / name
    write(str(path))
    return path.read_bytes().decode("ascii")


def test_dense_matrix_market_is_column_major(tmp_path):
    text = written(tmp_path, "d.mtx", lambda p: save_matrix(DesignMatrix.from_dense(DENSE), p))
    assert text == ("%%MatrixMarket matrix array real general\n2 3\n0.33333333333333331\n"
                    "-2.5\n-0\n1.0000000000000001e+300\n1e-300\n7\n")


def test_dense_csv(tmp_path):
    text = written(tmp_path, "d.csv", lambda p: save_matrix(DesignMatrix.from_dense(DENSE), p))
    assert text == "0.33333333333333331,-0,1e-300\n-2.5,1.0000000000000001e+300,7\n"


def test_csr_matrix_market_skips_the_empty_row(tmp_path):
    A = DesignMatrix.from_csr(3, 4, np.array([0, 2, 2, 3]), np.array([0, 3, 1]),
                              np.array([0.1, -1e-300, 2.0]))
    text = written(tmp_path, "s.mtx", lambda p: save_matrix(A, p))
    assert text == ("%%MatrixMarket matrix coordinate real general\n3 4 3\n"
                    "1 1 0.10000000000000001\n1 4 -1e-300\n3 2 2\n")


def test_vector(tmp_path):
    text = written(tmp_path, "v.csv", lambda p: save_vector(np.array([1 / 3, -0.0, 1e300]), p))
    assert text == "0.33333333333333331\n-0\n1.0000000000000001e+300\n"


def test_trace(tmp_path):
    trace = ConvergenceTrace(records=[(0, 1.0), (1, 0.1), (2, 1e-17)])
    text = written(tmp_path, "t.csv", lambda p: save_trace_csv(trace, p))
    assert text == "iteration,rel_error\n0,1\n1,0.10000000000000001\n2,1.0000000000000001e-17\n"


@pytest.mark.parametrize("args, expected", [
    (["--kind", "pk", "--k", "3", "--grid", "5"],
     "x,p_k,bound\n-1,-1,0.028744577324348552\n-0.5,-0.85888671875,0.54544191276240084\n"
     "0,0,inf\n0.5,0.85888671875,0.54544191276240084\n1,1,0.028744577324348552\n"),
    (["--kind", "bound", "--k", "2", "--grid", "3"],
     "x,bound\n-1,0.095696496510410928\n0,inf\n1,0.095696496510410928\n"),
    (["--kind", "chebyshev", "--alpha", "0.5", "--eps", "0.2", "--grid", "3"],
     "x,q\n-1,-0.99999999999999034\n0,0\n1,0.99999999999999034\n"),
])
def test_poly_tables(tmp_path, args, expected):
    assert written(tmp_path, "poly.csv", lambda p: main(["poly", *args, "--out", p])) == expected


@pytest.mark.parametrize("lead", ["\x1c", "\x1f", " \x1d\n\x1e\t"])
def test_banner_after_separator_bytes_is_matrix_market(tmp_path, lead):
    # str.strip and str.splitlines treat \x1c-\x1f as space; bytes \s does not.
    path = tmp_path / "sep.mtx"
    path.write_bytes(f"{lead}%%MatrixMarket matrix coordinate real general\n"
                     "2 2 1\n2 1 -3.5\n".encode("ascii"))
    A = load_matrix(path)
    assert A.storage == "csr"
    assert np.array_equal(A.toarray(), [[0.0, 0.0], [-3.5, 0.0]])
