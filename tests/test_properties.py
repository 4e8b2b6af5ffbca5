"""Property tests of the three projection engines and pc_regress on drawn spectra.

Each example builds ``A = U diag(sigma) V^T`` with Haar factors and a
prescribed squared spectrum, so the exact projection and PCR solution are
known from the construction.  The spectra cover the edge cases of the
gap-window analysis: threshold above the whole spectrum, below it, zero
singular values, and eigenvalues inside the window itself.
"""

from collections import namedtuple

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
from ridgeproj.project import _window_alpha
from ridgeproj.stepfn import _rational_plan
from ridgeproj.synthetic import haar_orthonormal
from helpers import black_box_rational, gram_step_calls, recorded_gram_step

LAM = 1.0
GAMMA = 0.1
EPS = 1e-2
# Squared singular values at or beyond these edges keep the gap window.
KEEP_LO = LAM / (1.0 - 4.0 * GAMMA)
DROP_HI = (1.0 - 4.0 * GAMMA) * LAM


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
        self.U, self.V = haar_orthonormal(rng, n, d), haar_orthonormal(rng, d, d)
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


def run_pk(A, y, lam=LAM):
    return pc_proj(A, proj_cfg(lam), y, matrix_stats(A, lam)), EPS


def run_gram(A, y, lam=LAM):
    return recorded_gram_step(pc_proj, A, rational_cfg(lam), y, matrix_stats(A, lam))


def run_black_box(A, y, lam=LAM):
    return black_box_rational(A, matrix_stats(A, lam), y, GAMMA, EPS)


def pk_step(stats, b, bound):
    # 1/2 (1 + p_q(2b - 1)), up to the noise budget resolve() checks.
    q, _, eps_op = proj_cfg().resolve(stats)
    return 0.5 * (1.0 + p_k_grid(2.0 * b - 1.0, q)), 7.0 * q * (eps_op + np.finfo(float).eps)


def rational_step(stats, b, bound):
    # 1/2 (1 + r(2b - 1)) for the Zolotarev r, up to the bound's window-free terms
    # (all but delta/2); every factor lies in [-delta/2, 1 + delta/2].
    r = _rational_plan(_window_alpha(GAMMA), EPS)[0]
    step = 0.5 * (1.0 + r(2.0 * b - 1.0))
    assert np.all((-r.error / 2 <= step) & (step <= 1.0 + r.error / 2))
    return step, bound - r.error / 2


# The engine table.  A row runs its engine on (A, y, lam) and returns (s, stated
# bound / ||y||); its soft step gives, at b = sigma^2 / (sigma^2 + lam), each
# direction's factor and the error over ||y|| allowed around it.  Every property
# below runs on every row, so a new engine joins the suite by adding a row.
Engine = namedtuple("Engine", "run soft_step")
ENGINES = {"p_k": Engine(run_pk, pk_step),
           "gram": Engine(run_gram, rational_step),
           "black-box": Engine(run_black_box, rational_step)}
every_engine = pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES.keys())


@every_engine
@pytest.mark.parametrize("c", [0.25, 0.5, 2.0, 4.0, 8.0])
@given(problem=problems())
@settings(max_examples=10, deadline=None)
def test_power_of_two_rescaling_is_bit_identical(engine, c, problem):
    # A -> cA, lam -> c^2 lam leaves B = (A^T A + lam I)^{-1} A^T A
    # unchanged; a power of two scales every intermediate exactly.
    cA = build(c * problem.values, problem.storage)
    assert matrix_stats(cA, c * c * LAM).kappa_lambda == matrix_stats(problem.A, LAM).kappa_lambda
    assert (engine.run(cA, problem.y, c * c * LAM)[0].tobytes()
            == engine.run(problem.A, problem.y)[0].tobytes())


@every_engine
@pytest.mark.parametrize("k", [-300, 250])
@pytest.mark.parametrize("storage", ["dense", "csr"])
@given(problem=problems())
@settings(max_examples=5, deadline=None)
def test_rescaled_a_far_from_unit_scale_is_bit_identical(engine, storage, k, problem):
    # (A, lam) -> (2^k A, 4^k lam): a Lanczos product's squared entries, or
    # a gram-engine solution's (it grows like y / lam), would leave the
    # float64 range here if their norms were taken unscaled.
    A = build(problem.values, storage)
    kA = build(np.ldexp(problem.values, k), storage)
    lam = np.ldexp(LAM, 2 * k)
    stats, k_stats = matrix_stats(A, LAM), matrix_stats(kA, lam)
    assert k_stats.sigma1_estimate == np.ldexp(stats.sigma1_estimate, k)
    assert k_stats.kappa_lambda == stats.kappa_lambda
    assert engine.run(kA, problem.y, lam)[0].tobytes() == engine.run(A, problem.y)[0].tobytes()


@every_engine
@given(problem=problems(), k=st.integers(min_value=-900, max_value=900))
@settings(max_examples=15, deadline=None)
def test_power_of_two_query_is_bit_identical(engine, problem, k):
    s, bound = engine.run(problem.A, problem.y)
    s_k, bound_k = engine.run(problem.A, np.ldexp(problem.y, k))
    assert s_k.tobytes() == np.ldexp(s, k).tobytes() and bound_k == bound


@every_engine
@given(problem=problems(kept=0))
@settings(max_examples=15, deadline=None)
def test_lambda_above_spectrum_projects_to_zero(engine, problem):
    # Scale 1e-8 puts kappa_lambda below 1e-16, where an inner tolerance
    # divided by sqrt(kappa_lambda) itself would exceed 1.
    for scale in (1.0, 1e-8):
        s, bound = engine.run(build(scale * problem.values, problem.storage), problem.y)
        assert np.linalg.norm(s) <= bound * np.linalg.norm(problem.y)
        assert bound <= EPS


@every_engine
@given(problem=problems(dropped=0, zeros=0))
@settings(max_examples=15, deadline=None)
def test_lambda_below_spectrum_is_identity(engine, problem):
    s, bound = engine.run(problem.A, problem.y)
    assert np.linalg.norm(s - problem.y) <= bound * np.linalg.norm(problem.y)
    assert bound <= EPS


@every_engine
@given(problem=problems())
@settings(max_examples=15, deadline=None)
def test_rank_deficient_and_general_spectra_meet_the_bound(engine, problem):
    # zeros runs from 0 up to every non-kept direction: many examples are rank-deficient.
    s, bound = engine.run(problem.A, problem.y)
    err = np.linalg.norm(s - problem.exact_projection(problem.y)) / np.linalg.norm(problem.y)
    assert err <= bound <= EPS


@every_engine
@given(problem=problems(inside=1) | problems(inside=2))
@settings(max_examples=15, deadline=None)
def test_in_window_eigenvalues_follow_the_soft_step(engine, problem):
    # Every direction, inside the window or not, follows the engine's soft step.
    s, bound = engine.run(problem.A, problem.y)
    b = problem.sq / (problem.sq + LAM)
    step, tol = engine.soft_step(matrix_stats(problem.A, LAM), b, bound)
    expect = problem.V @ (step * (problem.V.T @ problem.y))
    ny = np.linalg.norm(problem.y)
    assert np.linalg.norm(s - expect) <= tol * ny <= EPS * ny


@every_engine
@given(problem=problems())
@settings(max_examples=15, deadline=None)
def test_projection_is_idempotent(engine, problem):
    # ||pc(s) - s|| <= eps ||s|| + ||P s - s|| and ||s|| <= (1 + eps) ||y||.
    s = engine.run(problem.A, problem.y)[0]
    again = engine.run(problem.A, s)[0]
    assert np.linalg.norm(again - s) <= (2.0 + EPS) * EPS * np.linalg.norm(problem.y)


@pytest.mark.parametrize("c", [0.25, 0.5, 2.0, 8.0])
@given(problem=problems())
@settings(max_examples=10, deadline=None)
def test_pcr_power_of_two_rescaling_is_bit_identical(c, problem):
    # A -> cA, lam -> c^2 lam and b -> cb leave the PCR solution unchanged.
    cA = build(c * problem.values, problem.storage)
    c_lam = c * c * LAM
    assert (pc_regress(cA, pcr_cfg(c_lam), c * problem.b, matrix_stats(cA, c_lam)).tobytes()
            == pc_regress(problem.A, pcr_cfg(), problem.b, matrix_stats(problem.A, LAM)).tobytes())


@pytest.mark.parametrize("k", [-300, 250])
@pytest.mark.parametrize("storage", ["dense", "csr"])
@given(problem=problems())
@settings(max_examples=5, deadline=None)
def test_pcr_rescaled_a_far_from_unit_scale_is_bit_identical(storage, k, problem):
    A = build(problem.values, storage)
    kA = build(np.ldexp(problem.values, k), storage)
    lam = np.ldexp(LAM, 2 * k)
    assert (pc_regress(kA, pcr_cfg(lam), problem.b, matrix_stats(kA, lam)).tobytes()
            == np.ldexp(pc_regress(A, pcr_cfg(), problem.b, matrix_stats(A, LAM)), -k).tobytes())


@given(problem=problems(kept=0))
@settings(max_examples=15, deadline=None)
def test_pcr_lambda_above_spectrum_is_zero(problem):
    for scale in (1.0, 1e-8):
        A = build(scale * problem.values, problem.storage)
        x = pc_regress(A, pcr_cfg(), problem.b, matrix_stats(A, LAM))
        assert gram_norm(A, x) <= EPS * np.linalg.norm(problem.b)


@given(problem=problems())
@settings(max_examples=15, deadline=None)
def test_pcr_rank_deficient_and_general_spectra_meet_the_bound(problem):
    x = pc_regress(problem.A, pcr_cfg(), problem.b, matrix_stats(problem.A, LAM))
    assert (gram_norm(problem.A, x - problem.exact_pcr(problem.b))
            <= EPS * np.linalg.norm(problem.b))


@given(problem=problems(), k=st.integers(min_value=-900, max_value=900))
@settings(max_examples=15, deadline=None)
def test_gram_engine_receives_a_prepared_vector(problem, k):
    # pc_proj validates and scales the query once for both engines: every
    # gram-engine run, also pc_regress's stage, receives a zero vector or one
    # whose largest absolute entry lies in [1/2, 1).
    stats = matrix_stats(problem.A, LAM)
    d, n = problem.A.n_cols, problem.A.n_rows
    for fn, cfg, v in ((pc_proj, rational_cfg(), problem.y), (pc_proj, rational_cfg(), np.zeros(d)),
                       (pc_regress, pcr_cfg(), problem.b), (pc_regress, pcr_cfg(), np.zeros(n))):
        _, calls = gram_step_calls(fn, problem.A, cfg, np.ldexp(v, k), stats)
        ((y, _),) = calls
        assert not y.any() or 0.5 <= np.abs(y).max() < 1.0
