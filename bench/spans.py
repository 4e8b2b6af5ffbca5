"""Spans recorded around the library's public seams, and the per-layer metrics.

Tracing lives entirely in the benchmark: :func:`instrumented` swaps the
module attributes through which the library's layers call each other for
wrappers that record a span per call, and restores them on exit.  Nothing
in the library changes, so an untraced call runs exactly the shipped code.

A span holds a name, start, end, parent span and unit: the query index for
spans inside a query, ``-1 - k`` for spans inside the k-th set-up.  Spans are
kept in compact in-memory arrays and written once, when the run ends.  A
span's self time is its duration minus the durations of its children; calls
are nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import dataclasses
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NAMES = (
    "project",      # pc_proj, called by the benchmark or by pcr
    "stepfn",       # project.apply_step
    "ridge.gram",   # OperatorHandle.apply handed to apply_step: gram product + CG
    "ridge.solve",  # pcr.ridge_solve: CG only
    "pcr",          # pc_regress, called by the benchmark
    "spectral",     # matrix_stats, called by the benchmark
    "power_iter",   # spectral.gram_apply: one power-iteration step
    "fileio",       # load_matrix, called by the benchmark
    "matrix.mv",    # DesignMatrix._mv:  A x
    "matrix.rmv",   # DesignMatrix._rmv: A^T z
)
(PROJECT, STEPFN, RIDGE_GRAM, RIDGE_SOLVE, PCR, SPECTRAL, POWER_ITER, FILEIO,
 MATRIX_MV, MATRIX_RMV) = range(len(NAMES))


class Recorder:
    """In-memory span store; :meth:`call` runs a function inside a new span."""

    def __init__(self):
        self.name = array("b")
        self.parent = array("q")
        self.unit = array("q")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.unit_id = 0
        self._stack = [-1]

    def call(self, code, fn, *args, **kwargs):
        idx = len(self.name)
        self.name.append(code)
        self.parent.append(self._stack[-1])
        self.unit.append(self.unit_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.failed.append(0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failed[idx] = 1
            raise
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def arrays(self):
        """The spans as numpy arrays keyed by field name."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int8),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "unit": np.frombuffer(self.unit, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
        }

    def save(self, path):
        np.savez(path, names=np.array(NAMES), **self.arrays())


def plain_call(code, fn, *args, **kwargs):
    """The untraced counterpart of :meth:`Recorder.call`."""
    return fn(*args, **kwargs)


@contextmanager
def instrumented(rec: Recorder, rp):
    """Route the library's inter-module seams through ``rec`` while active.

    ``rp`` is the imported ``ridgeproj`` package.  A seam that no longer
    exists raises ``AttributeError`` here instead of silently going
    uncounted.
    """
    import ridgeproj.pcr as pcr
    import ridgeproj.project as project
    import ridgeproj.spectral as spectral

    saved = []

    def patch(owner, attr, make):
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def traced(code):
        return lambda orig: lambda *a, **k: rec.call(code, orig, *a, **k)

    def step_with_traced_operator(orig):
        def apply_step(S, *a, **k):
            def solve(v):
                return rec.call(RIDGE_GRAM, S.apply, v)
            return rec.call(STEPFN, orig, dataclasses.replace(S, apply=solve), *a, **k)
        return apply_step

    try:
        patch(project, "apply_step", step_with_traced_operator)
        patch(pcr, "pc_proj", traced(PROJECT))
        patch(pcr, "ridge_solve", traced(RIDGE_SOLVE))
        patch(spectral, "gram_apply", traced(POWER_ITER))
        patch(rp.DesignMatrix, "_mv", traced(MATRIX_MV))
        patch(rp.DesignMatrix, "_rmv", traced(MATRIX_RMV))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def product_bytes(A):
    """Bytes one ``A x`` and one ``A^T z`` read and write, computed from array sizes.

    Counts the stored matrix plus the input and output vectors; caches are
    ignored, so this is a computed figure, not a measured bandwidth.
    """
    n, d = A.shape
    vectors = 8 * (n + d)
    if A.storage == "dense":
        return 8 * n * d + vectors, 8 * n * d + vectors
    indptr, indices, data = A.csr_parts()
    entries = A.nnz * (data.itemsize + indices.itemsize)
    return (entries + (n + 1) * indptr.itemsize + vectors,
            entries + (d + 1) * indptr.itemsize + vectors)


def layer_metrics(rec: Recorder, mv_bytes: int, rmv_bytes: int) -> dict:
    """Per-layer metrics from the recorded spans, as ``name -> (value, unit)``.

    Query metrics are averaged over the traced queries, set-up metrics over
    the traced set-ups.  CG iterations are derived from the products inside
    each solve: two per iteration, plus the two of the right-hand side
    ``A^T A v`` for a gram solve.  Outer iterations are derived from the
    solves inside each ``apply_step``: one to start, then two per iteration.
    """
    s = rec.arrays()
    name, parent, unit = s["name"], s["parent"], s["unit"]
    dur = s["end"] - s["start"]
    n = name.shape[0]
    has_parent = parent >= 0
    parent_name = np.where(has_parent, name[parent], -1)

    def per_parent(mask, weights=None):
        sel = mask & has_parent
        w = None if weights is None else weights[sel]
        return np.bincount(parent[sel], weights=w, minlength=n)

    self_time = dur - per_parent(np.ones(n, bool), dur)
    product = (name == MATRIX_MV) | (name == MATRIX_RMV)
    ridge = (name == RIDGE_GRAM) | (name == RIDGE_SOLVE)
    children_products = per_parent(product)
    children_ridge = per_parent(ridge)

    in_query = unit >= 0
    nq = max(len(np.unique(unit[in_query])), 1)
    ns = max(len(np.unique(unit[~in_query])), 1)

    def q(code):
        return in_query & (name == code)

    prod_q = in_query & product
    ridge_q = in_query & ridge
    iters = np.where(name == RIDGE_GRAM, (children_products - 2) // 2, children_products // 2)
    matrix_busy = float(dur[prod_q].sum())
    matrix_bytes = float(q(MATRIX_MV).sum() * mv_bytes + q(MATRIX_RMV).sum() * rmv_bytes)
    proj_in_pcr = q(PROJECT) & (parent_name == PCR)
    series = s["end"][parent[proj_in_pcr]] - s["end"][proj_in_pcr]

    metrics = {
        "matrix.products": (prod_q.sum() / nq, "count"),
        "matrix.busy_s": (matrix_busy / nq, "s"),
        "matrix.bytes_computed": (matrix_bytes / nq, "B"),
        "matrix.gbps": (matrix_bytes / matrix_busy / 1e9 if matrix_busy > 0 else 0.0, "GB/s"),
        "ridge.solves": (ridge_q.sum() / nq, "count"),
        "ridge.cg_iters": (iters[ridge_q].sum() / nq, "count"),
        "ridge.cg_iters_max": (iters[ridge_q].max() if ridge_q.any() else 0, "count"),
        "ridge.busy_s": (dur[ridge_q].sum() / nq, "s"),
        "ridge.self_s": (self_time[ridge_q].sum() / nq, "s"),
        "ridge.failures": (s["failed"][ridge_q].sum() / nq, "count"),
        "stepfn.outer_iters": (((children_ridge[q(STEPFN)] - 1) // 2).sum() / nq, "count"),
        "stepfn.busy_s": (dur[q(STEPFN)].sum() / nq, "s"),
        "stepfn.self_s": (self_time[q(STEPFN)].sum() / nq, "s"),
        "project.busy_s": (dur[q(PROJECT)].sum() / nq, "s"),
        "project.self_s": (self_time[q(PROJECT)].sum() / nq, "s"),
        "pcr.proj_stage_s": (dur[proj_in_pcr].sum() / nq, "s"),
        "pcr.series_s": (series.sum() / nq, "s"),
        "pcr.series_solves": ((q(RIDGE_SOLVE) & (parent_name == PCR)).sum() / nq, "count"),
        "spectral.stats_s": (dur[~in_query & (name == SPECTRAL)].sum() / ns, "s"),
        "spectral.power_iters": ((~in_query & (name == POWER_ITER)).sum() / ns, "count"),
        "fileio.load_s": (dur[~in_query & (name == FILEIO)].sum() / ns, "s"),
    }
    return {k: (float(v), unit) for k, (v, unit) in metrics.items()}
