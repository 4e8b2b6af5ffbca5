"""Property tests of pc_proj and pc_regress on drawn spectra.

Each example builds ``A = U diag(sigma) V^T`` with Haar factors and a
prescribed squared spectrum, so the exact projection and PCR solution are
known from the construction.  The spectra cover the edge cases of the
gap-window analysis: threshold above the whole spectrum, below it, zero
singular values, and eigenvalues inside the window itself.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgeproj import (
    DesignMatrix,
    PcrConfig,
    ProjectionConfig,
    gram_norm,
    matrix_stats,
    p_k_grid,
    pc_proj,
    pc_regress,
)
from ridgeproj.stepfn import _rational_plan

EPS_MACH = float(np.finfo(np.float64).eps)
LAM = 1.0
GAMMA = 0.1
EPS = 1e-2
# Squared singular values at or beyond these edges keep the gap window.
KEEP_LO = LAM / (1.0 - 4.0 * GAMMA)
DROP_HI = (1.0 - 4.0 * GAMMA) * LAM


def haar(rng, rows, cols):
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def build(values, storage):
    if storage == "dense":
        return DesignMatrix.from_dense(values)
    csr = sp.csr_matrix(values)
    csr.sort_indices()
    return DesignMatrix.from_csr(*values.shape, csr.indptr, csr.indices, csr.data)


class Problem:
    """A drawn design matrix with known spectrum, plus one query of each kind."""

    def __init__(self, seed, d, extra_rows, storage, kept, dropped, zeros, inside=0):
        rng = np.random.default_rng(seed)
        sq = np.concatenate([rng.uniform(KEEP_LO, 3.0 * LAM, kept),
                             rng.uniform(DROP_HI, KEEP_LO, inside),
                             rng.uniform(0.0, DROP_HI, dropped),
                             np.zeros(zeros)])
        assert sq.size == d
        n = d + extra_rows
        self.U, self.V = haar(rng, n, d), haar(rng, d, d)
        self.sq = sq
        self.values = (self.U * np.sqrt(sq)) @ self.V.T
        self.storage = storage
        self.A = build(self.values, storage)
        self.y = rng.standard_normal(d)
        self.b = rng.standard_normal(n)

    def exact_projection(self, y):
        keep = self.sq >= LAM
        return self.V[:, keep] @ (self.V[:, keep].T @ y)

    def exact_pcr(self, b):
        keep = self.sq >= LAM
        coeff = (self.U[:, keep].T @ b) / np.sqrt(self.sq[keep])
        return self.V[:, keep] @ coeff


@st.composite
def problems(draw, kept=None, dropped=None, zeros=None, inside=0):
    """Problems whose spectrum honours the window except for ``inside`` values."""
    d = draw(st.integers(min_value=inside + 2, max_value=10))
    if kept is None:
        kept = draw(st.integers(min_value=1, max_value=d - 1 - inside))
    if zeros is None:
        # A = 0 has no threshold to find; keep one nonzero value.
        zeros = draw(st.integers(min_value=0, max_value=d - kept - inside - (kept == 0)))
    if dropped is None:
        dropped = d - kept - inside - zeros
    d = kept + inside + dropped + zeros
    return Problem(seed=draw(st.integers(min_value=0, max_value=2 ** 32 - 1)),
                   d=d, extra_rows=draw(st.integers(min_value=0, max_value=6)),
                   storage=draw(st.sampled_from(["dense", "csr"])),
                   kept=kept, dropped=dropped, zeros=zeros, inside=inside)


def proj_cfg(lam=LAM):
    return ProjectionConfig(lam=lam, gamma=GAMMA, eps=EPS)


def rational_cfg(lam=LAM):
    return ProjectionConfig(lam=lam, gamma=GAMMA, eps=EPS, method="rational")


def pcr_cfg(lam=LAM):
    return PcrConfig(lam=lam, gamma=GAMMA, eps=EPS)


@pytest.mark.parametrize("c", [0.25, 0.5, 2.0, 8.0])
@given(problem=problems())
@settings(max_examples=10, deadline=None)
def test_power_of_two_rescaling_is_bit_identical(c, problem):
    # A -> cA, lam -> c^2 lam leaves B = (A^T A + lam I)^{-1} A^T A and, with
    # b -> cb, the PCR solution unchanged; a power of two scales every
    # intermediate exactly.
    A, y, b = problem.A, problem.y, problem.b
    cA = build(c * problem.values, problem.storage)
    stats = matrix_stats(A, LAM)
    c_stats = matrix_stats(cA, c * c * LAM)
    assert c_stats.kappa_lambda == stats.kappa_lambda
    assert (pc_proj(cA, proj_cfg(c * c * LAM), y, c_stats).tobytes()
            == pc_proj(A, proj_cfg(), y, stats).tobytes())
    assert (pc_regress(cA, pcr_cfg(c * c * LAM), c * b, c_stats).tobytes()
            == pc_regress(A, pcr_cfg(), b, stats).tobytes())


@given(problem=problems(kept=0))
@settings(max_examples=15, deadline=None)
def test_lambda_above_spectrum_projects_to_zero(problem):
    # Scale 1e-8 puts kappa_lambda below 1e-16, where an inner tolerance
    # divided by sqrt(kappa_lambda) itself would exceed 1.
    for scale in (1.0, 1e-8):
        A = build(scale * problem.values, problem.storage)
        stats = matrix_stats(A, LAM)
        s = pc_proj(A, proj_cfg(), problem.y, stats)
        assert np.linalg.norm(s) <= EPS * np.linalg.norm(problem.y)
        x = pc_regress(A, pcr_cfg(), problem.b, stats)
        assert gram_norm(A, x) <= EPS * np.linalg.norm(problem.b)


@given(problem=problems(dropped=0, zeros=0))
@settings(max_examples=15, deadline=None)
def test_lambda_below_spectrum_is_identity(problem):
    stats = matrix_stats(problem.A, LAM)
    s = pc_proj(problem.A, proj_cfg(), problem.y, stats)
    assert np.linalg.norm(s - problem.y) <= EPS * np.linalg.norm(problem.y)


@given(problem=problems())
@settings(max_examples=15, deadline=None)
def test_rank_deficient_and_general_spectra_meet_both_bounds(problem):
    # zeros is drawn from 0 up to every non-kept direction, so many examples
    # are rank-deficient.
    stats = matrix_stats(problem.A, LAM)
    s = pc_proj(problem.A, proj_cfg(), problem.y, stats)
    assert (np.linalg.norm(s - problem.exact_projection(problem.y))
            <= EPS * np.linalg.norm(problem.y))
    x = pc_regress(problem.A, pcr_cfg(), problem.b, stats)
    assert (gram_norm(problem.A, x - problem.exact_pcr(problem.b))
            <= EPS * np.linalg.norm(problem.b))


@given(problem=problems(inside=1) | problems(inside=2))
@settings(max_examples=15, deadline=None)
def test_in_window_eigenvalues_follow_the_soft_step(problem):
    # Every direction, inside the window or not, maps to 1/2 (1 + p_q(2b - 1))
    # with b = sigma^2 / (sigma^2 + lam), up to the noise budget resolve() checks.
    stats = matrix_stats(problem.A, LAM)
    cfg = proj_cfg()
    q, _, eps_op = cfg.resolve(stats)
    s = pc_proj(problem.A, cfg, problem.y, stats)
    b = problem.sq / (problem.sq + LAM)
    step = 0.5 * (1.0 + p_k_grid(2.0 * b - 1.0, q))
    expect = problem.V @ (step * (problem.V.T @ problem.y))
    budget = 7.0 * q * (eps_op + EPS_MACH) * np.linalg.norm(problem.y)
    assert np.linalg.norm(s - expect) <= budget


@given(problem=problems())
@settings(max_examples=15, deadline=None)
def test_projection_is_idempotent(problem):
    # ||pc_proj(s) - s|| <= eps ||s|| + ||P s - s|| and ||s|| <= (1 + eps) ||y||.
    stats = matrix_stats(problem.A, LAM)
    s = pc_proj(problem.A, proj_cfg(), problem.y, stats)
    again = pc_proj(problem.A, proj_cfg(), s, stats)
    assert np.linalg.norm(again - s) <= (2.0 + EPS) * EPS * np.linalg.norm(problem.y)


# The rational engine (ProjectionConfig(method="rational")) on the same spectra.


@pytest.mark.parametrize("c", [0.25, 4.0])
@given(problem=problems())
@settings(max_examples=10, deadline=None)
def test_rational_power_of_two_rescaling_is_bit_identical(c, problem):
    cA = build(c * problem.values, problem.storage)
    stats = matrix_stats(problem.A, LAM)
    c_stats = matrix_stats(cA, c * c * LAM)
    assert (pc_proj(cA, rational_cfg(c * c * LAM), problem.y, c_stats).tobytes()
            == pc_proj(problem.A, rational_cfg(), problem.y, stats).tobytes())


@given(problem=problems(kept=0))
@settings(max_examples=15, deadline=None)
def test_rational_lambda_above_spectrum_projects_to_zero(problem):
    for scale in (1.0, 1e-8):
        A = build(scale * problem.values, problem.storage)
        s = pc_proj(A, rational_cfg(), problem.y, matrix_stats(A, LAM))
        assert np.linalg.norm(s) <= EPS * np.linalg.norm(problem.y)


@given(problem=problems(dropped=0, zeros=0))
@settings(max_examples=15, deadline=None)
def test_rational_lambda_below_spectrum_is_identity(problem):
    s = pc_proj(problem.A, rational_cfg(), problem.y, matrix_stats(problem.A, LAM))
    assert np.linalg.norm(s - problem.y) <= EPS * np.linalg.norm(problem.y)


@given(problem=problems())
@settings(max_examples=15, deadline=None)
def test_rational_rank_deficient_and_general_spectra(problem):
    s = pc_proj(problem.A, rational_cfg(), problem.y, matrix_stats(problem.A, LAM))
    assert (np.linalg.norm(s - problem.exact_projection(problem.y))
            <= EPS * np.linalg.norm(problem.y))


@given(problem=problems(inside=1) | problems(inside=2))
@settings(max_examples=15, deadline=None)
def test_rational_in_window_eigenvalues_follow_the_soft_step(problem):
    # Every direction maps to 1/2 (1 + r(2b - 1)), r the engine's Zolotarev
    # approximation, up to the certificate's solve and handle terms, which
    # do not depend on the window; the factors lie in [-delta/2, 1 + delta/2].
    s = pc_proj(problem.A, rational_cfg(), problem.y, matrix_stats(problem.A, LAM))
    r = _rational_plan(2.0 * GAMMA / (1.0 - 2.0 * GAMMA), EPS, 0.0)[0]
    b = problem.sq / (problem.sq + LAM)
    step = 0.5 * (1.0 + r(2.0 * b - 1.0))
    assert np.all((-r.error / 2 <= step) & (step <= 1.0 + r.error / 2))
    expect = problem.V @ (step * (problem.V.T @ problem.y))
    assert np.linalg.norm(s - expect) <= EPS * np.linalg.norm(problem.y)
