import dataclasses

import numpy as np
import pytest

import ridgeproj.project as project
import ridgeproj.ridge as ridge
from ridgeproj import (
    BudgetExceeded,
    ConvergenceFailure,
    DesignMatrix,
    DimensionMismatch,
    OperatorHandle,
    ProjectionConfig,
    apply_step,
    matrix_stats,
    p_k_eval,
    pc_proj,
)
from ridgeproj.stepfn import _certified_level, _rational_plan, _zolotarev, apply_rational_step
from ridgeproj.synthetic import haar_orthonormal
from helpers import rotated_symmetric

EPS_MACH = float(np.finfo(np.float64).eps)


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

    @pytest.mark.parametrize("alpha, q", [(0.2, 200), (0.05, 2000)])
    @pytest.mark.parametrize("edge", [1, -1])
    def test_absolute_noise_bound_edge_aligned(self, alpha, q, edge):
        # A per-application error of fixed size eta ||y||, aimed along the
        # eigenvector with |2 mu - 1| = alpha, exceeds 7 q eta ||y|| four- to
        # eighty-fold and stays within the proven 8 q (1 + min(q, 1/alpha^2))
        # eta ||y|| (see OperatorHandle).
        eta = 1e-9
        S = np.diag([0.5 * (1.0 + edge * alpha), 0.5 * (1.0 - edge * alpha), 0.95, 0.05])
        y = np.ones(4)
        ny = np.linalg.norm(y)
        kick = eta * ny * np.eye(4)[0]
        noisy = OperatorHandle(dimension=4, apply=lambda v: S @ v + kick)
        err = np.linalg.norm(apply_step(noisy, y, q) - apply_step(exact_handle(S), y, q))
        assert err > 4.0 * 7 * q * eta * ny
        assert err <= 8 * q * (1 + min(q, 1 / alpha ** 2)) * eta * ny

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

    @pytest.mark.parametrize("dimension", [2.5, np.nan, True, 3.0, "3"])
    def test_dimension_must_be_an_integer(self, dimension):
        # A float or a bool is no dimension, even where it compares as one.
        with pytest.raises(ValueError, match="dimension must be an integer"):
            OperatorHandle(dimension=dimension, apply=lambda v: v)

    def test_output_of_the_wrong_shape_is_refused(self):
        # A (3, 1) column would broadcast against y into a 3 x 3 iterate.
        S = np.diag([0.9, 0.2, 0.7])
        column = OperatorHandle(3, lambda v: (S @ v)[:, None])
        with pytest.raises(DimensionMismatch, match="iteration 0: operator output shape"):
            apply_step(column, np.ones(3), 5)
        calls = []
        # The fourth application is the first of iteration 1.
        late = OperatorHandle(3, lambda v: calls.append(1) or (S @ v)[:2 if len(calls) == 4 else 3])
        with pytest.raises(DimensionMismatch, match="iteration 1: operator output shape"):
            apply_step(late, np.ones(3), 5)
        with pytest.raises(DimensionMismatch, match="operator output shape"):
            apply_rational_step(column, np.ones(3), 0.3, 1e-3)
        # A list of the right length is still taken, through np.asarray.
        listed = OperatorHandle(3, lambda v: list(S @ v))
        assert apply_step(listed, np.ones(3), 5).tobytes() == \
            apply_step(exact_handle(S), np.ones(3), 5).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_output_is_refused(self, bad):
        S = np.diag([0.9, 0.2, 0.7])
        calls = []

        def apply(v):
            calls.append(1)
            with np.errstate(invalid="ignore"):  # once fed an inf, S v holds 0 * inf
                out = S @ v
            if len(calls) == 4:
                out[1] = bad
            return out

        with pytest.raises(ValueError, match="non-finite"):
            apply_step(OperatorHandle(3, apply), np.ones(3), 5)


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

    @staticmethod
    def every_step_vs_early_stop(monkeypatch, n_rows):
        """pc_proj with apply_step and with the every-step referee on one n_rows-by-6 matrix."""
        # Squared singular values far from lam: the increments reach the
        # ridge handle's query floor long before q = 133 steps.
        rng = np.random.default_rng(31)
        sigma = np.sqrt(np.r_[4.0, 3.0, 2.0, 0.05, 0.02, 0.01])
        A = DesignMatrix.from_dense((haar_orthonormal(rng, n_rows, 6) * sigma)
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

    def test_pc_proj_outputs_bit_identical_to_every_step(self, monkeypatch):
        self.every_step_vs_early_stop(monkeypatch, 12)

    def test_pc_proj_factored_solver_ends_early(self, monkeypatch):
        # At n = 10 d the ridge handle applies the inverse ridge matrix, not CG,
        # and its zero return below the query floor still ends the loop.
        cg_calls = []
        cg = ridge._cg
        monkeypatch.setattr(ridge, "_cg", lambda *a: cg_calls.append(1) or cg(*a))
        self.every_step_vs_early_stop(monkeypatch, 60)
        assert cg_calls == []


def windowed_eigs(rng, d, alpha):
    """Eigenvalues of S in [0, 1] with ``|2 mu - 1| >= alpha``, both window edges included."""
    x = rng.uniform(alpha, 1.0, size=d) * rng.choice([-1.0, 1.0], size=d)
    x[:2] = (alpha, -alpha)
    return 0.5 * (1.0 + x)


def sign_reference(eigs, Q, y):
    """Exact (1/2)(y + sgn(2S - I) y), the target of the rational engine."""
    return Q @ (np.where(eigs > 0.5, 1.0, 0.0) * (Q.T @ y))


class TestZolotarev:
    @pytest.mark.parametrize("alpha", [0.3, 0.2, 0.0476])
    @pytest.mark.parametrize("eps, slack", [(1e-2, 0.0), (1e-4, 8.0 * EPS_MACH)])
    def test_equioscillation_points_give_the_grid_maximum(self, alpha, eps, slack):
        # delta_n, read off the 2n + 2 closed-form points, is the maximum
        # error over a fine geometric grid (whose ends, alpha and 1, are two
        # of the points), and n is the least count that meets eps / 2.  The
        # values near 1 round to a few eps_machine, which at eps = 1e-4
        # (delta_n of 6e-6 to 2e-5) is up to 1e-10 of delta_n: that case gets
        # the slack.
        r, tol = _rational_plan(alpha, eps)
        assert tol == eps and r.error <= eps / 2
        assert r.poles.size == 1 or _zolotarev(alpha, r.poles.size - 1).error > eps / 2
        xs = np.geomspace(alpha, 1.0, 20_001)
        for grid in (np.abs(r(xs) - 1.0).max(), np.abs(r(-xs) + 1.0).max()):
            assert abs(float(grid) - r.error) <= 1e-12 * r.error + slack

    @pytest.mark.parametrize("alpha", [0.3, 0.0476])
    def test_window_is_a_monotone_soft_step(self, alpha):
        # Inside |x| < alpha, r rises from r(0) = 0 to r(alpha) = 1 - delta_n.
        r = _rational_plan(alpha, 1e-4)[0]
        xs = np.linspace(0.0, alpha, 10_001)
        vals = r(xs)
        assert vals[0] == 0.0 and np.all(np.diff(vals) > 0.0)
        assert vals[-1] == pytest.approx(1.0 - r.error, abs=1e-15)

    def test_poles_and_weights_positive_and_ascending(self):
        r = _zolotarev(0.1, 6)
        assert np.all(r.poles > 0) and np.all(r.weights > 0) and np.all(np.diff(r.poles) > 0)

    def test_float64_floor_keeps_n_finite(self):
        # eps = 1e-200 is clamped to 64 eps_machine for n and the CG target,
        # and the certified level rises to four times the a-priori
        # eps_machine terms of the handle, never by its relative error.
        r, tol = _rational_plan(0.1, 1e-200)
        level = _certified_level(r, tol, 0.0)
        assert tol == 64.0 * EPS_MACH
        assert r.error <= tol / 2 and r.poles.size < 20
        assert level == max(tol, 4.0 * r.noise(0.0)) and level < 1e-12
        # At alpha = 1e-4 the float64 error stops falling near 6e-13: tol
        # rises to twice the least error reached, which still bounds the grid.
        r, tol = _rational_plan(1e-4, 1e-200)
        assert 64.0 * EPS_MACH < tol == 2.0 * r.error < 1e-11
        xs = np.geomspace(1e-4, 1.0, 20_001)
        assert np.abs(r(xs) - 1.0).max() <= r.error * (1.0 + 1e-9) + 8.0 * EPS_MACH


    @pytest.mark.parametrize("alpha, eps, err", [(0.1, 1e-200, 1e-13), (0.2, 1e-4, 1e-5),
                                                 (1e-3, 1e-2, 1e-6)])
    def test_handle_error_beyond_the_level_is_refused(self, alpha, eps, err):
        # The handle's relative error may not raise the certified level of
        # apply_rational_step: four times its a-priori noise above the level
        # is refused with BudgetExceeded, also for an eps below the float64
        # floor.
        r, tol = _rational_plan(alpha, eps)
        with pytest.raises(BudgetExceeded, match="cannot be certified"):
            _certified_level(r, tol, err)
        level = _certified_level(r, tol, 0.0)
        assert 4.0 * r.noise(err) > level

    def test_handle_error_within_the_level_is_taken(self):
        r, tol = _rational_plan(0.2, 1e-4)
        level = _certified_level(r, tol, 1e-7)
        assert tol == level == 1e-4 and 4.0 * r.noise(1e-7) <= level


class TestApplyRationalStep:
    def test_meets_and_bounds_the_sign_step(self):
        rng = np.random.default_rng(404)
        for d, alpha, eps in ((10, 0.3, 1e-2), (40, 0.1, 1e-4), (60, 0.05, 1e-6)):
            eigs = windowed_eigs(rng, d, alpha)
            S, Q = rotated_symmetric(rng, eigs)
            y = rng.standard_normal(d)
            s, bound = apply_rational_step(exact_handle(S), y, alpha, eps)
            err = np.linalg.norm(s - sign_reference(eigs, Q, y))
            assert err <= bound <= eps * np.linalg.norm(y)

    def test_follows_r_of_x_whatever_the_spectrum(self):
        # Inside the window the output follows (1/2)(1 + r(x)); only the
        # delta_n / 2 term of the bound depends on the window.
        rng = np.random.default_rng(405)
        alpha, eps = 0.2, 1e-3
        eigs = rng.uniform(0.0, 1.0, size=30)
        S, Q = rotated_symmetric(rng, eigs)
        y = rng.standard_normal(30)
        s, bound = apply_rational_step(exact_handle(S), y, alpha, eps)
        r = _rational_plan(alpha, eps)[0]
        expect = Q @ (0.5 * (1.0 + r(2.0 * eigs - 1.0)) * (Q.T @ y))
        assert np.linalg.norm(s - expect) <= bound - 0.5 * r.error * np.linalg.norm(y)

    def test_float64_floor_on_an_exact_handle(self):
        # At eps = 1e-200 the run stops at the float64 level of the plan and
        # certifies it.
        rng = np.random.default_rng(408)
        eigs = windowed_eigs(rng, 30, 0.1)
        S, Q = rotated_symmetric(rng, eigs)
        y = rng.standard_normal(30)
        s, bound = apply_rational_step(exact_handle(S), y, 0.1, 1e-200)
        level = _certified_level(*_rational_plan(0.1, 1e-200), 0.0)
        err = np.linalg.norm(s - sign_reference(eigs, Q, y))
        assert err <= bound <= level * np.linalg.norm(y) < 1e-12 * np.linalg.norm(y)

    def test_handle_error_refused_before_any_application(self):
        calls = []
        S = OperatorHandle(dimension=3, apply=lambda v: calls.append(1) or 0.5 * v,
                           err_bound=1e-6)
        with pytest.raises(BudgetExceeded, match="cannot be certified"):
            apply_rational_step(S, np.ones(3), 0.2, 1e-6)
        assert calls == []

    def test_zero_input_and_repeat_runs(self):
        rng = np.random.default_rng(406)
        S, _ = rotated_symmetric(rng, windowed_eigs(rng, 12, 0.2))
        s, bound = apply_rational_step(exact_handle(S), np.zeros(12), 0.2, 1e-3)
        assert not s.any() and bound == 0.0
        y = rng.standard_normal(12)
        first = apply_rational_step(exact_handle(S), y, 0.2, 1e-3)
        again = apply_rational_step(exact_handle(S), y, 0.2, 1e-3)
        assert first[0].tobytes() == again[0].tobytes() and first[1] == again[1]

    @pytest.mark.parametrize("k", [-664, 664])
    def test_power_of_two_scaling_is_exact(self, k):
        # Squared norms of 2^k y over- or underflow at these k; the engine
        # runs on y scaled to a largest entry in [1/2, 1), so s and the bound
        # scale by 2^k to the bit.
        S = exact_handle(np.diag([0.9, 0.2, 0.7]))
        y = np.array([1.0, 2.0, 3.0])
        s, bound = apply_rational_step(S, y, 0.3, 1e-6)
        s_k, bound_k = apply_rational_step(S, np.ldexp(y, k), 0.3, 1e-6)
        assert s_k.tobytes() == np.ldexp(s, k).tobytes()
        assert bound_k == np.ldexp(bound, k) > 0.0

    def test_never_returns_an_uncertified_vector(self):
        # A handle that errs a thousand times beyond its stated bound makes
        # the recomputed residuals disagree with the recursive ones; the
        # engine raises instead of returning the vector.
        rng = np.random.default_rng(407)
        S, _ = rotated_symmetric(rng, windowed_eigs(rng, 20, 0.1))
        lying = noisy_handle(S, 1e-5, rng)
        lying = dataclasses.replace(lying, err_bound=1e-8)
        with pytest.raises(ConvergenceFailure, match="certified bound"):
            apply_rational_step(lying, rng.standard_normal(20), 0.1, 1e-4)

    def test_validation(self):
        S = exact_handle(np.eye(2))
        for alpha in (0.0, 9.9e-7, 1.0, np.nan):  # the least alpha is 1e-6
            with pytest.raises(BudgetExceeded, match="alpha must lie in"):
                apply_rational_step(S, np.ones(2), alpha, 1e-3)
        with pytest.raises(ValueError, match="non-finite"):
            apply_rational_step(S, np.array([1.0, np.inf]), 0.2, 1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_output_is_refused(self, bad):
        # As apply_step refuses it: a NaN must not read as a curvature breakdown.
        S = np.diag([0.9, 0.2, 0.7])
        calls = []

        def apply(v):
            calls.append(1)
            out = S @ v
            if len(calls) == 3:
                out[1] = bad
            return out

        with pytest.raises(ValueError, match="non-finite"):
            apply_rational_step(OperatorHandle(3, apply), np.array([1.0, 2.0, 3.0]), 0.3, 1e-6)
        assert len(calls) == 3

    @pytest.mark.parametrize("eps", [np.nan, 0.0, -1.0, 1.0, 2.0, np.inf])
    def test_eps_outside_the_unit_interval_is_refused(self, eps):
        # Refused before any application, like ridge._cg_budget and both configs.
        calls = []
        diag = np.diag([0.9, 0.2, 0.7])
        S = OperatorHandle(dimension=3, apply=lambda v: calls.append(1) or diag @ v)
        with pytest.raises(ValueError, match="eps must lie in"):
            apply_rational_step(S, np.ones(3), 0.3, eps)
        assert calls == []
