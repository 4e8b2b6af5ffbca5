"""Command-line interface.

Subcommands::

    synth        generate a synthetic problem (matrix + labels + ground truth)
    project      project a vector onto top principal components via ridge calls
    pcr          solve principal component regression via ridge calls
    convergence  per-iteration error trace against the exact oracle, as CSV
    poly         dump sign-polynomial tables as CSV

Exit codes: 0 on success, 1 on usage or input errors, 2 on numerical
failure.  All floating-point output uses 17 significant digits.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .exceptions import ConvergenceFailure
from .experiments import convergence_trace
from .fileio import (_FMT, _write_table, load_matrix, load_vector, save_matrix,
                     save_trace_csv, save_vector)
from .pcr import PcrConfig, pc_regress
from .project import ProjectionConfig, pc_proj
from .signpoly import compressed_sign_poly, p_k_grid, sign_error_bound
from .spectral import matrix_stats
from .synthetic import gen_synthetic


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ridgeproj", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"ridgeproj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic problem")
    p.add_argument("--n", type=int, required=True, help="number of rows (samples)")
    p.add_argument("--d", type=int, required=True, help="number of columns (features)")
    p.add_argument("--rank", type=int, required=True, help="number of top components")
    p.add_argument("--gamma", type=float, required=True, help="spectral gap of the data")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.1, help="relative label noise (default 0.1)")
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>_A.mtx, <prefix>_b.csv, <prefix>_xtrue.csv")

    for name, vec_flag, vec_help in (
        ("project", "--vector", "vector to project (CSV)"),
        ("pcr", "--rhs", "label vector b (CSV)"),
    ):
        p = sub.add_parser(name, help=f"run {name} on data from files")
        p.add_argument("--matrix", required=True, help="design matrix (MatrixMarket or CSV)")
        p.add_argument(vec_flag, required=True, help=vec_help)
        p.add_argument("--lambda", dest="lam", type=float, required=True)
        p.add_argument("--gamma", type=float, required=True, help="algorithm gap parameter")
        p.add_argument("--eps", type=float, required=True)
        if name == "project":
            p.add_argument("--q", type=int, default=None, help="override outer iteration count")
        p.add_argument("--out", required=True, help="output vector (CSV)")

    p = sub.add_parser("convergence", help="trace per-iteration error vs the exact oracle")
    p.add_argument("--algo", choices=("project", "pcr"), required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True, help="algorithm gap parameter")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--max-iters", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV (header iteration,rel_error)")

    p = sub.add_parser("poly", help="dump sign-polynomial tables as CSV")
    p.add_argument("--kind", choices=("pk", "bound", "chebyshev"), required=True)
    p.add_argument("--k", type=int, default=None, help="polynomial index (pk, bound)")
    p.add_argument("--alpha", type=float, default=None, help="margin (chebyshev)")
    p.add_argument("--eps", type=float, default=None, help="target accuracy (chebyshev)")
    p.add_argument("--grid", type=int, default=1001, help="number of grid points")
    p.add_argument("--out", required=True)
    return parser


def _cmd_synth(args):
    problem = gen_synthetic(args.n, args.d, args.rank, args.gamma, args.seed,
                            noise_scale=args.noise)
    save_matrix(problem.A, f"{args.out_prefix}_A.mtx")
    save_vector(problem.b, f"{args.out_prefix}_b.csv")
    save_vector(problem.x_true, f"{args.out_prefix}_xtrue.csv")
    return 0


def _cmd_project(args):
    A = load_matrix(args.matrix)
    y = load_vector(args.vector)
    stats = matrix_stats(A, args.lam)
    cfg = ProjectionConfig(lam=args.lam, gamma=args.gamma, eps=args.eps, q_override=args.q)
    save_vector(pc_proj(A, cfg, y, stats), args.out)
    return 0


def _cmd_pcr(args):
    A = load_matrix(args.matrix)
    b = load_vector(args.rhs)
    stats = matrix_stats(A, args.lam)
    cfg = PcrConfig(lam=args.lam, gamma=args.gamma, eps=args.eps)
    save_vector(pc_regress(A, cfg, b, stats), args.out)
    return 0


def _cmd_convergence(args):
    A = load_matrix(args.matrix)
    b = load_vector(args.rhs)
    trace = convergence_trace(A, b, args.lam, args.gamma, args.algo, args.eps,
                              args.max_iters)
    save_trace_csv(trace, args.out)
    return 0


def _cmd_poly(args):
    if args.grid < 1:
        raise ValueError(f"--grid must be a positive integer, got {args.grid}")
    if args.kind in ("pk", "bound"):
        if args.k is None or args.k < 1:
            raise ValueError("--k (a positive integer) is required for pk/bound tables")
        xs = np.linspace(-1.0, 1.0, args.grid)
        bounds = np.array([sign_error_bound(abs(x), args.k) if x != 0.0 else np.inf
                           for x in xs])
        if args.kind == "pk":
            columns, header = [xs, p_k_grid(xs, args.k), bounds], "x,p_k,bound"
        else:
            columns, header = [xs, bounds], "x,bound"
    else:
        if args.alpha is None or args.eps is None:
            raise ValueError("--alpha and --eps are required for chebyshev tables")
        poly = compressed_sign_poly(args.alpha, args.eps)
        xs = np.linspace(-1.0, 1.0, args.grid)
        columns, header = [xs, poly(xs)], "x,q"
    _write_table(args.out, np.column_stack(columns), _FMT, header=header)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "project": _cmd_project,
    "pcr": _cmd_pcr,
    "convergence": _cmd_convergence,
    "poly": _cmd_poly,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConvergenceFailure as exc:
        print(f"ridgeproj: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"ridgeproj: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
