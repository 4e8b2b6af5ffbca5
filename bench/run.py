"""Run one ridgeproj benchmark workload and print its metrics.

    python3 bench/run.py --workload proj-small-gap --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn, each with its own result line.
``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
prints the per-layer metrics of a run that alternates untraced and
instrumented queries and writes its spans to ``bench/out/``.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS threads are pinned to the number of CPUs this process may use, before
numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys


def pin_blas_threads() -> int:
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def machine_info(threads: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": threads, "cpu": cpu, "nproc": os.cpu_count()}


def _fmt_timing(t):
    tail = "none" if t["tail"] is None else f"p{t['tail'][0]:g}={t['tail'][1]:.6g} s"
    return f"n={t['n']} median={t['median']:.6g} s tail {tail}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    import harness

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(harness.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; one of {list(harness.WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    rp = harness.import_library()
    print(f"machine {json.dumps(machine_info(threads))}")
    for name in names:
        w = harness.WORKLOADS[name]
        print(f"workload {w.name} seed {args.seed} trace {args.trace} {w}")
        report(w, *harness.run_workload(rp, w, args.seed, args.seconds, bool(args.trace)))
    return 0


def report(w, outcomes, metrics, diag):
    """Print one workload's diagnostics and metrics, then its JSON result line."""
    print(f"  lam={diag['lam']:.6g} gamma={diag['gamma']:.6g}")
    print(f"  setup_s timing: {_fmt_timing(diag['setup'])}")
    alias = "proj_s" if w.call == "pc_proj" else "pcr_s"
    print(f"  {alias} ({w.call}, reported as solve_s) timing: {_fmt_timing(diag['solve'])}")
    if "solve_traced" in diag:
        print(f"  {alias} traced timing: {_fmt_timing(diag['solve_traced'])}")
    print(f"  fail_frac {outcomes.failed / outcomes.attempted:.6g} 1"
          f" ({outcomes.failed} of {outcomes.attempted} queries failed)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:.6g} {unit}")
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
