import dataclasses

import numpy as np
import pytest

import ridgeproj.project as project
from ridgeproj import (
    BudgetExceeded,
    DesignMatrix,
    OperatorHandle,
    ProjectionConfig,
    apply_step,
    matrix_stats,
    p_k_eval,
    pc_proj,
)
from ridgeproj.synthetic import haar_orthonormal
from helpers import rotated_symmetric


def exact_handle(S):
    S = np.asarray(S, dtype=np.float64)
    return OperatorHandle(dimension=S.shape[0], apply=lambda v: S @ v, err_bound=0.0)


def noisy_handle(S, eps, rng):
    S = np.asarray(S, dtype=np.float64)

    def apply(v):
        noise = rng.standard_normal(S.shape[0])
        noise *= eps * np.linalg.norm(v) / np.linalg.norm(noise)
        return S @ v + noise

    return OperatorHandle(dimension=S.shape[0], apply=apply, err_bound=eps)


def step_reference(eigs, Q, y, q):
    """Exact (1/2)(y + p_q(2S - I) y) through the known eigenstructure."""
    vals = np.array([0.5 * (1.0 + p_k_eval(2.0 * e - 1.0, q)) for e in eigs])
    return Q @ (vals * (Q.T @ y))


class TestApplyStep:
    def test_identity_operator_fixes_y(self):
        y = np.array([1.0, -2.0, 0.5])
        S = exact_handle(np.eye(3))
        for q in (1, 5, 40):
            assert np.allclose(apply_step(S, y, q), y, atol=1e-13)

    def test_zero_operator_kills_y(self):
        y = np.array([1.0, -2.0])
        S = exact_handle(np.zeros((2, 2)))
        assert np.abs(apply_step(S, y, 30)).max() <= 1e-13

    def test_diagonal_two_sided(self):
        S = exact_handle(np.diag([0.9, 0.1]))
        out = apply_step(S, np.array([1.0, 1.0]), 50)
        assert np.abs(out - np.array([1.0, 0.0])).max() <= 1e-5

    def test_exact_equivalence_random_symmetric(self):
        rng = np.random.default_rng(17)
        for d, q in ((10, 30), (50, 200)):
            eigs = rng.uniform(0.0, 1.0, size=d)
            S, Q = rotated_symmetric(rng, eigs)
            y = rng.standard_normal(d)
            out = apply_step(exact_handle(S), y, q)
            ref = step_reference(eigs, Q, y, q)
            assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_spectral_pointwise_diagonal(self):
        sig = np.array([0.95, 0.7, 0.5, 0.2, 0.03])
        S = exact_handle(np.diag(sig))
        y = np.ones(5)
        q = 25
        out = apply_step(S, y, q)
        expect = np.array([0.5 * (1.0 + p_k_eval(2 * s - 1.0, q)) for s in sig])
        assert np.abs(out - expect).max() <= 1e-12

    def test_soft_step_monotone(self):
        q = 40
        sigmas = np.linspace(0.0, 1.0, 401)
        vals = 0.5 * (1.0 + np.array([p_k_eval(2 * s - 1.0, q) for s in sigmas]))
        assert np.all(np.diff(vals) >= -1e-14)

    def test_noise_robustness(self):
        rng = np.random.default_rng(99)
        q, eps = 40, 1e-6
        for _ in range(20):
            d = 12
            eigs = rng.uniform(0.0, 1.0, size=d)
            S, _ = rotated_symmetric(rng, eigs)
            y = rng.standard_normal(d)
            exact = apply_step(exact_handle(S), y, q)
            noisy = apply_step(noisy_handle(S, eps, rng), y, q)
            assert np.linalg.norm(noisy - exact) <= 7 * q * eps * np.linalg.norm(y) * 1.5

    def test_budget_guard(self):
        S = OperatorHandle(dimension=2, apply=lambda v: v, err_bound=1e-3)
        limit = 1.0 / (7.0 * 4.0 * 1e-3 * (2.0 + 1e-3))
        with pytest.raises(BudgetExceeded):
            apply_step(S, np.ones(2), int(limit) + 2)

    def test_callback_and_iterate_invariant(self):
        rng = np.random.default_rng(5)
        eigs = rng.uniform(0.0, 1.0, size=8)
        S, Q = rotated_symmetric(rng, eigs)
        y = rng.standard_normal(8)
        iterates = []
        out = apply_step(exact_handle(S), y, 12,
                         callback=lambda k, s: iterates.append((k, s)))
        assert [k for k, _ in iterates] == list(range(13))
        assert np.array_equal(iterates[-1][1], out)
        for k, s in iterates:
            ref = step_reference(eigs, Q, y, k)
            assert np.linalg.norm(s - ref) <= 1e-11 * max(1.0, np.linalg.norm(ref))

    def test_validation(self):
        S = exact_handle(np.eye(2))
        with pytest.raises(ValueError):
            apply_step(S, np.ones(2), 0)
        with pytest.raises(Exception):
            apply_step(S, np.ones(3), 3)
        with pytest.raises(ValueError, match="non-finite"):
            apply_step(S, np.array([1.0, np.nan]), 3)
        with pytest.raises(ValueError):
            apply_step(S, np.ones((2, 1)), 3)
        with pytest.raises(ValueError):
            OperatorHandle(dimension=0, apply=lambda v: v)
        for bad in (-1.0, np.nan, np.inf):  # NaN would skip apply_step's budget guard
            with pytest.raises(ValueError, match="err_bound"):
                OperatorHandle(dimension=2, apply=lambda v: v, err_bound=bad)


def apply_step_every_step(S, y, q, callback=None):
    """The recurrence through all q steps, with no stop at a zero increment: the referee."""
    s = np.asarray(S.apply(y), dtype=np.float64)
    w = s - 0.5 * y
    if callback is not None:
        callback(0, s.copy())
    for k in range(q):
        inner = np.asarray(S.apply(w), dtype=np.float64)
        w = (4.0 * (2 * k + 1) / (2 * k + 2)) * np.asarray(S.apply(w - inner), dtype=np.float64)
        s = s + w
        if callback is not None:
            callback(k + 1, s.copy())
    return s


class TestZeroIncrement:
    @staticmethod
    def floored_handle(S, floor, inputs):
        """``S v``, or +0.0 once it is below ``floor``, as the ridge handles' query floor does."""
        def apply(v):
            inputs.append(bool(v.any()))
            out = S @ v
            return out if np.linalg.norm(out) > floor else np.zeros(S.shape[0])
        return OperatorHandle(dimension=S.shape[0], apply=apply)

    def test_no_application_after_zero_increment(self):
        rng = np.random.default_rng(23)
        S, _ = rotated_symmetric(rng, np.r_[rng.uniform(0.8, 1.0, 4), rng.uniform(0.0, 0.2, 4)])
        y = rng.standard_normal(8)
        q = 80
        runs = []
        for run in (apply_step_every_step, apply_step):
            inputs, records = [], []
            handle = self.floored_handle(S, 1e-9 * np.linalg.norm(y), inputs)
            out = run(handle, y, q, callback=lambda k, s: records.append((k, s.tobytes())))
            runs.append((out.tobytes(), records, inputs))
        (ref, ref_records, ref_inputs), (got, got_records, got_inputs) = runs
        assert got == ref and got_records == ref_records
        assert [k for k, _ in got_records] == list(range(q + 1))
        # The referee's first zero input follows the zero increment; every
        # application after it is of a zero vector, and none is made.
        first_zero = ref_inputs.index(False)
        assert 0 < first_zero < 2 * q + 1 and not any(ref_inputs[first_zero:])
        assert got_inputs == ref_inputs[:first_zero]

    def test_pc_proj_outputs_bit_identical_to_every_step(self, monkeypatch):
        # Squared singular values far from lam: the increments reach the
        # ridge handle's query floor long before q = 133 steps.
        rng = np.random.default_rng(31)
        sigma = np.sqrt(np.r_[4.0, 3.0, 2.0, 0.05, 0.02, 0.01])
        A = DesignMatrix.from_dense((haar_orthonormal(rng, 12, 6) * sigma)
                                    @ haar_orthonormal(rng, 6, 6).T)
        stats = matrix_stats(A, 0.5)
        cfg = ProjectionConfig(lam=0.5, gamma=0.1, eps=1e-2)
        y = rng.standard_normal(6)
        runs = []
        for run in (apply_step_every_step, apply_step):
            calls, records = [], []

            def counted_step(S, *args, run=run, calls=calls, **kwargs):
                def apply(v):
                    calls.append(1)
                    return S.apply(v)
                return run(dataclasses.replace(S, apply=apply), *args, **kwargs)

            monkeypatch.setattr(project, "apply_step", counted_step)
            out = pc_proj(A, cfg, y, stats, callback=lambda k, s: records.append((k, s.tobytes())))
            runs.append((out.tobytes(), records, len(calls)))
        (ref, ref_records, ref_calls), (got, got_records, got_calls) = runs
        assert got == ref and got_records == ref_records
        q = cfg.resolve(stats)[0]
        assert len(got_records) == q + 1
        assert got_calls < ref_calls == 2 * q + 1
