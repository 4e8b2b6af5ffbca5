"""Workloads, reference solutions and the measurement loop of the ridgeproj benchmark.

Load model: one process and one closed-loop caller, which issues the next
query only after the previous one returns.  A workload sets up one matrix
(``DesignMatrix`` plus ``matrix_stats``) and answers a stream of seeded query
vectors against it.  All inputs come from ``--seed``; the library receives
only the generated arrays and files.

Every returned vector is checked, after the timed phase, against a reference
computed here from numpy's dense ``eigh`` of ``A^T A``, and its hash against
the first output for the same query vector.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def import_library():
    """Import ``ridgeproj`` from this checkout's ``src``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import ridgeproj

    if Path(ridgeproj.__file__).resolve().parent.parent != src:
        raise ImportError(f"ridgeproj imported from {ridgeproj.__file__}, not from {src}")
    return ridgeproj


@dataclass(frozen=True)
class Workload:
    """Parameters of one workload.

    Dense workloads spread ``top_rank`` squared singular values evenly over
    ``[0.5 (1 + gap), 1]`` and the rest over ``[0, 0.5 (1 - gap)]``, with
    ``lam = 0.5``.  The sparse workload prescribes squared singular values
    ``exp(-j / tau)`` with a planted drop of ``drop`` in singular value after
    ``top_rank``, ``lam`` in the middle of that drop, and ``tau`` chosen so
    that ``sigma_1^2 / lam == kappa``.
    """

    name: str
    call: str           # "pc_proj" or "pc_regress"
    n: int
    d: int
    top_rank: int
    eps: float
    storage: str = "dense"
    gap: float = 0.0    # dense: relative band gap of the squared spectrum
    kappa: float = 0.0  # csr: sigma_1^2 / lam
    drop: float = 0.0   # csr: singular-value ratio across the threshold
    blocks: int = 0     # csr: diagonal blocks, so the density is 1 / blocks


WORKLOADS = {
    w.name: w
    for w in (
        Workload("proj-small-gap", "pc_proj", n=120, d=80, top_rank=20, gap=0.1, eps=1e-2),
        Workload("proj-tall-dense", "pc_proj", n=4000, d=200, top_rank=40, gap=0.2, eps=1e-2),
        Workload("pcr-sparse", "pc_regress", n=5000, d=1000, top_rank=50, eps=1e-2,
                 storage="csr", kappa=11.0, drop=2.0, blocks=100),
    )
}


# Distinct query vectors per run, cycled through so that repeats can be
# checked against the first output.
POOL = 3

# Distinct matrices set up per run.  The cost of matrix_stats' power
# iteration varies with the singular vectors, so setup_s is the median over
# several seeded matrices rather than over repeats of one.
SETUP_MATRICES = 9


@dataclass
class Inputs:
    """Generated matrices, query vectors and their reference solutions.

    Queries run against ``matrices[0]``; the others only take part in set-up
    timing.
    """

    matrices: list          # dense ndarrays or scipy CSR matrices
    lam: float
    gamma: float            # the algorithm's gap parameter
    queries: list
    refs: list
    gram: np.ndarray        # dense A^T A, for the A^T A-norm error of pc_regress


def _haar(rng, rows, cols):
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def _band(lo, hi, count):
    """Midpoints of ``count`` equal parts of ``[lo, hi]``, descending."""
    return hi - (hi - lo) * (np.arange(count) + 0.5) / count


def _dense_matrix(w: Workload, rng):
    """``U diag(sigma) V^T`` with Haar factors.

    The spectrum is fixed and only the singular vectors depend on the seed,
    so the power-iteration and CG counts, and with them the run time, vary
    little from seed to seed.
    """
    m = min(w.n, w.d)
    sigma = np.sqrt(np.concatenate([_band(0.5 * (1.0 + w.gap), 1.0, w.top_rank),
                                    _band(0.0, 0.5 * (1.0 - w.gap), m - w.top_rank)]))
    values = (_haar(rng, w.n, m) * sigma) @ _haar(rng, w.d, m).T
    return values, 0.5, w.gap / (4.0 * (1.0 + w.gap))


def _sparse_spectrum(w: Workload):
    """Squared singular values, lam and the algorithm gap of the sparse workload."""
    tau = (w.top_rank - 0.5) / math.log(w.kappa / w.drop)
    sq = np.exp(-np.arange(w.d) / tau)
    sq[w.top_rank:] /= w.drop ** 2
    lam = math.sqrt(sq[w.top_rank - 1] * sq[w.top_rank])
    window = min(sq[w.top_rank - 1] / lam - 1.0, 1.0 - sq[w.top_rank] / lam)
    return sq, lam, window / (4.0 * (1.0 + window))


def _sparse_matrix(w: Workload, rng):
    """Block-diagonal CSR matrix with the prescribed spectrum, rows and columns shuffled.

    Each of the ``blocks`` dense ``(n/blocks) x (d/blocks)`` blocks is
    ``U diag(s) V^T`` with Haar factors and a random share of the singular
    values, so the spectrum, and with it the outer and CG iteration counts,
    is the same for every seed.
    """
    sq, lam, gamma = _sparse_spectrum(w)
    r, k = w.n // w.blocks, w.d // w.blocks
    share = rng.permutation(w.d).reshape(w.blocks, k)
    data = np.stack([(_haar(rng, r, k) * np.sqrt(sq[share[b]])) @ _haar(rng, k, k).T
                     for b in range(w.blocks)])
    rows = rng.permutation(w.n).reshape(w.blocks, r, 1)
    cols = rng.permutation(w.d).reshape(w.blocks, 1, k)
    shape = (w.blocks, r, k)
    coo = sp.coo_matrix((data.ravel(), (np.broadcast_to(rows, shape).ravel(),
                                        np.broadcast_to(cols, shape).ravel())),
                        shape=(w.n, w.d))
    csr = coo.tocsr()
    csr.sort_indices()
    return csr, lam, gamma


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Generate the matrices and query pool of ``w`` for ``seed``, with references."""
    rng_queries, *rng_matrices = (np.random.default_rng(s) for s in
                                  np.random.SeedSequence(seed).spawn(1 + SETUP_MATRICES))
    generate = _dense_matrix if w.storage == "dense" else _sparse_matrix
    generated = [generate(w, rng) for rng in rng_matrices]
    values, lam, gamma = generated[0]
    gram = values.T @ values
    if w.storage == "csr":
        gram = gram.toarray()

    evals, evecs = np.linalg.eigh(gram)
    keep = evals >= lam
    # The pc_proj / pc_regress bounds hold only inside the gap window.
    slack = 1e-9 * evals[-1]
    if (np.any(evals[keep] < lam / (1.0 - 4.0 * gamma) - slack)
            or np.any(evals[~keep] > (1.0 - 4.0 * gamma) * lam + slack)):
        raise ValueError(f"{w.name}: generated spectrum violates the gap window")
    top, top_evals = evecs[:, keep], evals[keep]

    queries, refs = [], []
    for _ in range(POOL):
        if w.call == "pc_proj":
            y = rng_queries.standard_normal(w.d)
            queries.append(y)
            refs.append(top @ (top.T @ y))
        else:
            signal = values @ rng_queries.standard_normal(w.d)
            noise = rng_queries.standard_normal(w.n)
            b = signal + 0.1 * np.linalg.norm(signal) / np.linalg.norm(noise) * noise
            queries.append(b)
            refs.append(top @ ((top.T @ (values.T @ b)) / top_evals))
    return Inputs([g[0] for g in generated], lam, gamma, queries, refs, gram)


def write_mtx(csr, path):
    """Write a CSR matrix as MatrixMarket coordinate real general, 17 digits."""
    coo = csr.tocoo()
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{csr.shape[0]} {csr.shape[1]} {coo.nnz}\n")
        np.savetxt(fh, np.column_stack([coo.row + 1, coo.col + 1, coo.data]),
                   fmt=("%d", "%d", "%.17g"))


def write_sources(w: Workload, inputs: Inputs, workdir: Path) -> list:
    """What each set-up reads: the dense arrays, or ``.mtx`` files written here, untimed."""
    if w.storage == "dense":
        return list(inputs.matrices)
    paths = [workdir / f"{w.name}-{j}.mtx" for j in range(len(inputs.matrices))]
    for csr, path in zip(inputs.matrices, paths):
        write_mtx(csr, path)
    return paths


class Session:
    """Set-ups and queries of one workload, traced through ``call`` when it records."""

    def __init__(self, rp, w: Workload, inputs: Inputs, sources: list):
        self.rp, self.w, self.inputs, self.sources = rp, w, inputs, sources
        if w.call == "pc_proj":
            self.cfg = rp.ProjectionConfig(lam=inputs.lam, gamma=inputs.gamma, eps=w.eps)
            self.fn, self.code = rp.pc_proj, spans.PROJECT
        else:
            self.cfg = rp.PcrConfig(lam=inputs.lam, gamma=inputs.gamma, eps=w.eps)
            self.fn, self.code = rp.pc_regress, spans.PCR
        self.A = self.stats = None

    def setup(self, j=0, call=spans.plain_call):
        """Make matrix ``j`` ready for queries; query with ``j = 0`` only."""
        if self.w.storage == "dense":
            A = self.rp.DesignMatrix.from_dense(self.sources[j])
        else:
            A = call(spans.FILEIO, self.rp.load_matrix, self.sources[j])
        self.stats = call(spans.SPECTRAL, self.rp.matrix_stats, A, self.inputs.lam)
        self.A = A

    def query(self, i, call=spans.plain_call):
        return call(self.code, self.fn, self.A, self.cfg, self.inputs.queries[i], self.stats)

    def err_ratio(self, i, x):
        """Achieved error divided by the bound the call states."""
        inp, diff = self.inputs, x - self.inputs.refs[i]
        if self.w.call == "pc_proj":
            err = float(np.linalg.norm(diff))
        else:
            err = math.sqrt(max(float(diff @ inp.gram @ diff), 0.0))
        return err / (self.w.eps * float(np.linalg.norm(inp.queries[i])))


def timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def setup_times(session, budget_s=1.5, max_rounds=40):
    """Set up every matrix in turn, round after round, for at least ``budget_s`` seconds."""
    times = []
    t_end = time.perf_counter() + budget_s
    rounds = 0
    while rounds < max_rounds and (rounds == 0 or time.perf_counter() < t_end):
        times.extend(timed(session.setup, j) for j in range(len(session.sources)))
        rounds += 1
    return times


def memory_pass(session):
    """Peak traced heap, in bytes, of one set-up plus one query; returns (peak, output)."""
    tracemalloc.start()
    try:
        session.setup(0)
        x = session.query(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, x


class Outcomes:
    """Checks outputs after the timed phase: error bound and repeat hashes."""

    def __init__(self, session):
        self.session = session
        self.first_hash = {}
        self.attempted = self.failed = 0
        self.err_ratio_max = 0.0

    def add(self, i, x, exc=None):
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            if self.failed == 1:
                traceback.print_exception(exc, file=sys.stderr)
            return
        digest = hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()
        ratio = self.session.err_ratio(i, x)
        self.err_ratio_max = max(self.err_ratio_max, ratio)
        first = self.first_hash.setdefault(i, digest)
        if not ratio <= 1.0 or digest != first:
            self.failed += 1
            print(f"query {i}: error ratio {ratio:.3g}, hash {digest[:12]}"
                  f" (first {first[:12]})", file=sys.stderr)


def closed_loop(session, seconds, traced_every=0, rec=None):
    """Issue queries back to back for ``seconds``.

    At least one query is made, and at least one of each kind when tracing.
    With ``traced_every = 2`` every second query runs instrumented and records
    spans into ``rec``.  Returns ``(latencies, traced_flags, outputs, elapsed)``
    where ``outputs`` holds ``(pool index, vector or None, exception or None)``.
    """
    lat, flags, outs = [], [], []
    t_start = time.perf_counter()
    i = 0
    while True:
        k = i % POOL
        trace = bool(traced_every) and i % traced_every == 1
        if trace:
            rec.unit_id = i
        x = exc = None
        with spans.instrumented(rec, session.rp) if trace else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                x = session.query(k, rec.call if trace else spans.plain_call)
            except Exception as e:  # a failed query is counted, the loop goes on
                exc = e
            t1 = time.perf_counter()
        lat.append(t1 - t0)
        flags.append(trace)
        outs.append((k, x, exc))
        i += 1
        if t1 - t_start >= seconds and i >= max(traced_every, 1):
            return lat, flags, outs, t1 - t_start


PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def timing_summary(samples):
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    n = len(samples)
    tail = [p for p in PERCENTILES if n * (1.0 - p / 100.0) >= 10.0]
    top = (tail[-1], float(np.percentile(samples, tail[-1]))) if tail else None
    return {"median": statistics.median(samples), "n": n, "tail": top}


def run_workload(rp, w: Workload, seed: int, seconds: float, trace: bool):
    """Run one workload; returns ``(outcomes, metrics, diagnostics)``.

    Untraced: set-up repeats, a memory pass, then the closed loop; metrics
    are the end-to-end ones.  Traced: set-up repeats, one instrumented set-up
    of each matrix, then a closed loop alternating untraced and instrumented
    queries; metrics are the per-layer ones.
    """
    inputs = make_inputs(w, seed)
    (BENCH_DIR / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH_DIR / "work"))
    try:
        session = Session(rp, w, inputs, write_sources(w, inputs, workdir))
        outcomes = Outcomes(session)
        setups = setup_times(session)
        diag = {"setup": timing_summary(setups), "lam": inputs.lam, "gamma": inputs.gamma}
        if not trace:
            peak, x = memory_pass(session)
            outcomes.add(0, x)
            lat, _, outs, elapsed = closed_loop(session, seconds)
            for k, x, exc in outs:
                outcomes.add(k, x, exc)
            done = sum(exc is None for _, _, exc in outs)
            diag["solve"] = timing_summary(lat)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "solve_s": (statistics.median(lat), "s"),
                "queries_per_s": (done / elapsed, "1/s"),
                "ok_frac": (1.0 - outcomes.failed / outcomes.attempted, "1"),
                "mem_peak_mb": (peak / 1e6, "MB"),
            }
            return outcomes, metrics, diag

        rec = spans.Recorder()
        with spans.instrumented(rec, rp):
            for j in range(len(session.sources)):
                rec.unit_id = -1 - j
                session.setup(j, rec.call)
        session.setup(0)
        lat, flags, outs, _ = closed_loop(session, seconds, traced_every=2, rec=rec)
        for k, x, exc in outs:
            outcomes.add(k, x, exc)
        plain = [t for t, f in zip(lat, flags) if not f]
        traced = [t for t, f in zip(lat, flags) if f]
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        rec.save(out_dir / f"spans-{w.name}.npz")
        metrics = spans.layer_metrics(rec, *spans.product_bytes(session.A))
        read = [p.stat().st_size for p in session.sources] if w.storage == "csr" else [0]
        metrics["fileio.bytes_read"] = (float(statistics.mean(read)), "B")
        metrics["check.err_ratio_max"] = (outcomes.err_ratio_max, "ratio")
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
        diag["solve"] = timing_summary(plain)
        diag["solve_traced"] = timing_summary(traced)
        return outcomes, metrics, diag
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
