"""Project a vector onto top principal components using only ridge solves.

No eigenvector is ever computed: the iteration sharpens the smooth ridge
operator (A^T A + lam I)^{-1} A^T A toward the hard spectral step.  The
desk-scale SVD factorization appears here purely as a referee.
"""

import numpy as np

from ridgeproj import (
    DesignMatrix,
    ProjectionConfig,
    exact_projection,
    gen_synthetic,
    matrix_stats,
    pc_proj,
    svd_small,
)


def main():
    problem = gen_synthetic(n=120, d=80, top_rank=20, gamma=0.2, seed=11)
    print(f"synthetic problem: A is 120x80, top 20 squared singular values in"
          f" [{0.5 * 1.2:.2f}, 1.00], tail below {0.5 * 0.8:.2f}, threshold"
          f" lam = {problem.lam}")

    stats = matrix_stats(problem.A, problem.lam)
    gap = problem.algorithm_gap()
    cfg = ProjectionConfig(lam=problem.lam, gamma=gap, eps=1e-6)
    q, eps_inner, _ = cfg.resolve(stats)
    print(f"algorithm gap parameter {gap:.4f} -> q = {q} iterations,"
          f" inner ridge tolerance {eps_inner:.2e}")

    rng = np.random.default_rng(0)
    y = rng.standard_normal(80)
    s = pc_proj(problem.A, cfg, y, stats)

    reference = exact_projection(svd_small(problem.A), problem.lam, y)
    err = np.linalg.norm(s - reference) / np.linalg.norm(y)
    print(f"||pc_proj(y) - P y|| / ||y|| = {err:.2e}   (requested eps = 1e-6)")

    # The callback sees every iterate: the error sharpens geometrically.
    errors = []

    def on_iterate(k, s_k):
        errors.append(np.linalg.norm(s_k - reference) / np.linalg.norm(reference))

    pc_proj(problem.A, cfg, y, stats, callback=on_iterate)
    print("relative error along the iteration:")
    for k in (0, 1, 2, 5, 10, 50, 200, len(errors) - 1):
        print(f"  iteration {k:5d}: {errors[k]:.3e}")

    # Eigenvalues inside the (1 +/- g) lam window are soft-projected, not
    # mishandled: build a small diagonal example to see the monotone step.
    window = 0.3
    sig2 = np.array([0.95, 0.5 * (1 + window) + 0.02, 0.5, 0.5 * (1 - window) - 0.02, 0.05])
    A = DesignMatrix.from_dense(np.diag(np.sqrt(sig2)))
    st = matrix_stats(A, 0.5)
    g = window / (2.0 * (2.0 + window))
    out = pc_proj(A, ProjectionConfig(lam=0.5, gamma=g, eps=1e-6), np.ones(5), st)
    print("\nsoft projection of all-ones vector on diag spectrum", sig2)
    print("  ->", np.round(out, 6), "(middle coordinate lands between 0 and 1)")


if __name__ == "__main__":
    main()
