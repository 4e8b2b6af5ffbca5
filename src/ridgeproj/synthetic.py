"""Synthetic problems with a prescribed spectral gap around the threshold.

A problem draws its squared singular values from two bands separated
around lambda = 0.5: the top ``top_rank`` values uniformly from
``[0.5 (1 + gamma), 1]`` and the rest uniformly from ``[0, 0.5 (1 - gamma)]``.
Drawing the *squared* values from these bands is what makes the gap
straddle the threshold in the domain the algorithms see.  The matrix is
assembled as ``U diag(s) V^T`` with Haar-distributed orthonormal factors,
and the response is a noisy linear function of a ground truth supported on
the top right singular vectors.

Random streams: the seed is split into five independent substreams
consumed in a fixed order (U, V, spectrum, x_true, noise), so each
component is reproducible independently of the others.  The generator is
numpy's PCG64; identical seeds give bit-identical problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import DesignMatrix

__all__ = ["SyntheticProblem", "gen_synthetic", "haar_orthonormal"]

SYNTHETIC_LAMBDA = 0.5


@dataclass(frozen=True)
class SyntheticProblem:
    """A generated design matrix with labels, ground truth, and provenance."""

    A: DesignMatrix
    b: np.ndarray
    x_true: np.ndarray
    gamma: float
    lam: float
    top_rank: int
    seed: int
    squared_spectrum: np.ndarray

    def algorithm_gap(self) -> float:
        """Largest gap parameter admissible for this problem's spectrum.

        The projection guarantee needs
        ``sigma_{k+1}^2/(1-4g) <= lambda <= (1-4g) sigma_k^2``; with squared
        values at least ``0.5 (1 + gamma)`` above the threshold and at most
        ``0.5 (1 - gamma)`` below it, the binding side gives
        ``g = gamma / (4 (1 + gamma))``.
        """
        return self.gamma / (4.0 * (1.0 + self.gamma))


def haar_orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-distributed matrix with orthonormal columns (rows >= cols)."""
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    # Sign-fix so the distribution is exactly Haar rather than QR-convention biased.
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def gen_synthetic(n: int, d: int, top_rank: int, gamma: float, seed: int,
                  noise_scale: float = 0.1) -> SyntheticProblem:
    """Generate a gap-respecting synthetic regression problem.

    The squared singular values of the result lie in
    ``[0, 0.5(1-gamma)] U [0.5(1+gamma), 1]`` with exactly ``top_rank``
    values in the upper band; ``b = A x_true + noise`` where ``x_true`` has
    Gaussian coefficients over the top right singular vectors and the noise
    has Euclidean norm ``noise_scale * ||A x_true||_2``.
    """
    if n < 1 or d < 1:
        raise ValueError("matrix dimensions must be positive")
    if not 0 < top_rank < min(n, d):
        raise ValueError(f"top_rank must lie strictly between 0 and min(n, d)={min(n, d)}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if not 0.0 <= noise_scale < np.inf:
        raise ValueError(f"noise_scale must be nonnegative and finite, got {noise_scale}")

    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(5)]
    rng_u, rng_v, rng_spec, rng_x, rng_noise = streams

    m = min(n, d)
    U = haar_orthonormal(rng_u, n, m)
    V = haar_orthonormal(rng_v, d, m)

    lo_top = 0.5 * (1.0 + gamma)
    hi_tail = 0.5 * (1.0 - gamma)
    sq_top = np.sort(rng_spec.uniform(lo_top, 1.0, size=top_rank))[::-1]
    sq_tail = np.sort(rng_spec.uniform(0.0, hi_tail, size=m - top_rank))[::-1]
    squared = np.concatenate([sq_top, sq_tail])
    sigma = np.sqrt(squared)

    A = DesignMatrix.from_dense((U * sigma) @ V.T)

    x_true = V[:, :top_rank] @ rng_x.standard_normal(top_rank)
    response = A.matvec(x_true)
    noise = rng_noise.standard_normal(n)
    norm_noise = np.linalg.norm(noise)
    norm_resp = np.linalg.norm(response)
    if noise_scale > 0.0 and norm_noise > 0.0 and norm_resp > 0.0:
        noise *= noise_scale * norm_resp / norm_noise
    else:
        noise = np.zeros(n)
    b = response + noise

    return SyntheticProblem(
        A=A,
        b=b,
        x_true=x_true,
        gamma=gamma,
        lam=SYNTHETIC_LAMBDA,
        top_rank=top_rank,
        seed=seed,
        squared_spectrum=squared,
    )
