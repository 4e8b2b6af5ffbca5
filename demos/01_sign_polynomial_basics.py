"""Walk through the scalar sign-polynomial toolkit.

The polynomial family p_k approximates sgn(x) on [-1, 1] through a simple
term recurrence.  This script evaluates it, checks it against the
guaranteed error bound and the independent quadrature oracle, sizes the
degree for a target accuracy, and builds the lower-degree Chebyshev
compression.  A CSV table suitable for plotting lands next to the script.
"""

import numpy as np

from ridgeproj import (
    chebyshev_monomial_approx,
    compressed_sign_poly,
    integral_step_oracle,
    p_k_eval,
    p_k_grid,
    sign_error_bound,
    sign_poly_degree,
)


def main():
    print("== evaluating p_k ==")
    for k in (1, 4, 16, 64):
        vals = ", ".join(f"p_{k}({x:+.2f}) = {p_k_eval(x, k):+.6f}"
                         for x in (-0.8, -0.2, 0.2, 0.8))
        print(f"  {vals}")

    print("\n== guaranteed error bound vs truth at x = 0.3 ==")
    for k in (16, 64, 256):
        gap = 1.0 - p_k_eval(0.3, k)
        print(f"  k={k:4d}: sgn - p_k = {gap:.3e}  <=  bound {sign_error_bound(0.3, k):.3e}")

    print("\n== independent quadrature oracle agrees ==")
    for x, k in ((0.5, 3), (0.25, 20), (-0.7, 11)):
        rec = p_k_eval(x, k)
        orc = integral_step_oracle(x, k, quad_tol=1e-10)
        print(f"  x={x:+.2f} k={k:2d}: recurrence {rec:.12f}  quadrature {orc:.12f}"
              f"  diff {abs(rec - orc):.1e}")

    print("\n== degree rule: accuracy eps on |x| >= alpha ==")
    for alpha, eps in ((0.5, 1e-2), (0.25, 1e-4), (0.1, 1e-4)):
        k = sign_poly_degree(alpha, eps)
        xs = np.linspace(alpha, 1.0, 2000)
        worst = np.abs(1.0 - p_k_grid(xs, k)).max()
        print(f"  alpha={alpha:4.2f} eps={eps:.0e} -> k={k:5d},"
              f" measured max error {worst:.2e}")

    print("\n== Chebyshev compression ==")
    poly = chebyshev_monomial_approx(16, 8)
    xs = np.linspace(-1, 1, 10001)
    print(f"  degree-8 stand-in for x^16: sup error {np.abs(poly(xs) - xs**16).max():.4f}"
          f"  (bound {2*np.exp(-64/32.0):.4f})")
    q = compressed_sign_poly(0.25, 0.1)
    k = sign_poly_degree(0.25, 0.05)  # comparable plain degree
    keep = np.abs(xs) >= 0.25
    err = np.abs(np.sign(xs[keep]) - q(xs[keep])).max()
    print(f"  compressed sign poly: degree {q.degree()} (plain p_k would use 2k+1 = {2*k+1}),"
          f" error {err:.4f} on |x| >= 0.25")

    out = "sign_poly_table.csv"
    with open(out, "w") as fh:
        fh.write("x,p_16,p_64,bound_64\n")
        grid = np.linspace(-1, 1, 401)
        p16, p64 = p_k_grid(grid, 16), p_k_grid(grid, 64)
        for x, a, b in zip(grid, p16, p64):
            bd = sign_error_bound(abs(x), 64) if x != 0 else float("inf")
            fh.write(f"{x:.6f},{a:.12e},{b:.12e},{bd:.12e}\n")
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
