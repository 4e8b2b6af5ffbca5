"""Shared test utilities: exact norms from the factorization, matrix makers, call recorders."""

from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

import ridgeproj.project as project
import ridgeproj.ridge as ridge
from ridgeproj import DesignMatrix, SvdFactors


def random_dense(rng, n, d, scale=None):
    """Random Gaussian design matrix, optionally normalized to unit spectral norm."""
    arr = rng.standard_normal((n, d))
    if scale is not None:
        arr *= scale / np.linalg.norm(arr, 2)
    return DesignMatrix.from_dense(arr)


def random_csr(rng, n, d, density=0.3):
    mask = rng.random((n, d)) < density
    arr = np.where(mask, rng.standard_normal((n, d)), 0.0)
    import scipy.sparse as sp

    csr = sp.csr_matrix(arr)
    csr.sort_indices()
    return DesignMatrix.from_csr(n, d, csr.indptr, csr.indices, csr.data), arr


def m_norm(F: SvdFactors, lam, v):
    """Exact ||v||_M for M = A^T A + lam I, from the factorization."""
    coeff = F.V.T @ v
    perp = v - F.V @ coeff
    return float(np.sqrt(
        np.sum((F.singular_values ** 2 + lam) * coeff ** 2) + lam * (perp @ perp)
    ))


def m_inv_norm(F: SvdFactors, lam, y):
    """Exact ||y||_{M^{-1}} for M = A^T A + lam I, from the factorization."""
    coeff = F.V.T @ y
    perp = y - F.V @ coeff
    return float(np.sqrt(
        np.sum(coeff ** 2 / (F.singular_values ** 2 + lam)) + (perp @ perp) / lam
    ))


def m_inverse_apply(F: SvdFactors, lam, y):
    """Exact M^{-1} y from the factorization."""
    coeff = F.V.T @ y
    perp = y - F.V @ coeff
    return F.V @ (coeff / (F.singular_values ** 2 + lam)) + perp / lam


def rotated_symmetric(rng, eigenvalues):
    """Symmetric matrix with the given spectrum and Haar-random eigenvectors."""
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    d = eigenvalues.shape[0]
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diag(r))
    return (q * eigenvalues) @ q.T, q


def spectrum_dense(rng, n, squared):
    """Dense n x d matrix with the given squared singular values (d of them) and Haar factors."""
    squared = np.asarray(squared, dtype=np.float64)
    d = squared.shape[0]
    U, _ = np.linalg.qr(rng.standard_normal((n, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return DesignMatrix.from_dense((U * np.sqrt(squared)) @ V.T)


def kappa_1e3_matrix(top=1e3):
    """40 x 30, lambda = 1: squared singular values from ``top`` down to 2, then below 0.5.

    The gap window at lambda = 1 holds for gamma up to 0.125, and kappa_lambda is ``top``.
    """
    rng = np.random.default_rng(1000)
    squared = np.concatenate([np.geomspace(top, 2.0, 6), rng.uniform(0.0, 0.5, 24)])
    return spectrum_dense(rng, 40, squared)


def black_box_rational(A, stats, y, gamma, eps):
    """The Zolotarev engine over the projection's black-box ridge handle: ``(s, bound / ||y||)``.

    ``apply_rational_step`` on ``_gram_solver(A, stats, eps', ||y||)``, eps'
    the inner tolerance of ``ProjectionConfig(lam, gamma, eps)``, for y
    scaled by the power of two that puts its largest entry in [1/2, 1); s
    is scaled back.
    """
    from ridgeproj import ProjectionConfig
    from ridgeproj._float64 import _exponent
    from ridgeproj.project import _window_alpha
    from ridgeproj.ridge import _gram_solver
    from ridgeproj.stepfn import apply_rational_step

    eps_inner = ProjectionConfig(lam=stats.lam, gamma=gamma, eps=eps).resolve(stats)[1]
    e = _exponent(y)
    y = np.ldexp(y, -e)
    ny = float(np.linalg.norm(y))
    handle = _gram_solver(A, stats, eps_inner, query_norm=ny)
    s, bound = apply_rational_step(handle, y, _window_alpha(gamma), eps)
    return np.ldexp(s, e), bound / ny


# The recorded calls now running, innermost last: shared by every Recorder,
# so each call knows the recorded call it ran inside.
_RUNNING = []


def _snapshot(value):
    """``value`` with its arrays copied, also inside tuples and dicts."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, tuple):
        return tuple(_snapshot(v) for v in value)
    if isinstance(value, dict):
        return {k: _snapshot(v) for k, v in value.items()}
    return value


@dataclass
class Call:
    """One recorded call: its arguments and result as they were, and the recorded call around it."""

    recorder: "Recorder"
    parent: "Call | None"
    args: tuple
    kwargs: dict
    result: object = None
    error: "BaseException | None" = None

    def ran_inside(self, outer) -> bool:
        """Whether ``outer`` -- a Call, or any call of a Recorder -- encloses this call."""
        call = self.parent
        while call is not None and outer is not call and outer is not call.recorder:
            call = call.parent
        return call is not None


class Recorder:
    """Context manager: while open, each call of ``owner.name`` runs the original and is recorded.

    ``owner`` is a class (a ``DesignMatrix`` method) or a module (a module
    function); callers that look the attribute up at call time reach the
    recorder.  Each :class:`Call` keeps copies of the arrays among its
    arguments and result, so a later in-place write does not alter the
    record, and the raised exception, if any.  The attribute is restored on
    exit, exception or not, so nested and repeated recorders compose under
    pytest, inside hypothesis examples and in worker processes alike.
    """

    def __init__(self, owner, name):
        self.owner, self.name, self.calls = owner, name, []

    def __enter__(self):
        self.original = original = getattr(self.owner, self.name)

        def recorded(*args, **kwargs):
            parent = _RUNNING[-1] if _RUNNING else None
            call = Call(self, parent, _snapshot(args), _snapshot(kwargs))
            self.calls.append(call)
            _RUNNING.append(call)
            try:
                out = original(*args, **kwargs)
            except BaseException as exc:
                call.error = exc
                raise
            finally:
                _RUNNING.pop()
            call.result = _snapshot(out)
            return out

        setattr(self.owner, self.name, recorded)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.name, self.original)

    def inside(self, outer=None) -> list:
        """The calls that ran inside ``outer`` (a Call or a Recorder); every call for None."""
        return [call for call in self.calls if outer is None or call.ran_inside(outer)]


class GramCounts(ExitStack):
    """``DesignMatrix._mv``, ``_rmv`` and ``ridge._cg`` recorded over a ``with`` block."""

    def __enter__(self):
        super().__enter__()
        seams = ((DesignMatrix, "_mv"), (DesignMatrix, "_rmv"), (ridge, "_cg"))
        self.mv, self.rmv, self.cg = (self.enter_context(Recorder(*seam)) for seam in seams)
        return self

    def clear(self):
        for recorder in (self.mv, self.rmv, self.cg):
            recorder.calls.clear()

    def products(self, outer=None):
        """``(mv, rmv)`` products made inside ``outer``, or in all."""
        return len(self.mv.inside(outer)), len(self.rmv.inside(outer))

    def iters(self, outer=None):
        """Iterations of each CG run made inside ``outer``, or of all."""
        return [call.result[2] for call in self.cg.inside(outer)]


def gram_step_calls(fn, *args):
    """``fn(*args)`` and ``(y, bound)`` of every gram-engine run it makes."""
    with Recorder(project, "_rational_gram_step") as engine:
        out = fn(*args)
    return out, [(call.args[2], call.result[1]) for call in engine.calls]


def recorded_gram_step(fn, *args):
    """``fn(*args)`` and the bound over ``||y||`` of the one gram-engine run it makes.

    The engine runs on y as ``pc_proj`` prepares it, with its largest entry
    in [1/2, 1), so the ratio is exact whenever the caller's ``||y||``
    over- or underflows.
    """
    out, calls = gram_step_calls(fn, *args)
    ((y, bound),) = calls
    return out, bound / float(np.linalg.norm(y))
