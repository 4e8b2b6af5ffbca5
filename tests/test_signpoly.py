import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Chebyshev
from numpy.polynomial import chebyshev as cheb

from ridgeproj import (
    chebyshev_monomial_approx,
    compressed_sign_poly,
    integral_step_oracle,
    p_k_eval,
    p_k_grid,
    sign_error_bound,
    sign_poly_degree,
)

GRID = np.arange(1, 1001) / 1000.0  # (0, 1]


def p_k_direct(x, k):
    """Direct summation of the closed form, term by term."""
    total = 0.0
    for i in range(k + 1):
        prod = 1.0
        for j in range(1, i + 1):
            prod *= (2 * j - 1) / (2 * j)
        total += x * (1.0 - x * x) ** i * prod
    return total


def p_k_direct_grid(xs, k):
    """Closed form over a grid: explicit powers of (1 - x^2), no recurrence."""
    i = np.arange(k + 1)
    factors = np.concatenate([[1.0], np.cumprod((2 * i[1:] - 1) / (2 * i[1:]))])
    powers = np.power.outer(1.0 - xs * xs, i)
    return xs * (powers @ factors)


def cheb_power_referee(s, d):
    """Exact Chebyshev coefficients of x^s through degree d, trailing zeros trimmed.

    ``binom(s, (s-j)/2) / 2^(s-1)`` for j of the parity of s, halved at j = 0;
    each is one correctly rounded quotient of Python integers.
    """
    coef = np.zeros(min(s, d) + 1)
    for j in range(s % 2, min(s, d) + 1, 2):
        coef[j] = math.comb(s, (s - j) // 2) / 2 ** (s if j == 0 else s - 1)
    return np.trim_zeros(coef, "b")


def per_term_sign_poly(alpha, eps, degree):
    """``x * sum_i w_i trunc_m((1 - x^2)^i)`` interpolated at ``degree = 2m + 1``."""
    k = sign_poly_degree(alpha, eps / 2.0)
    j = np.arange(1, k + 1)
    weights = np.concatenate([[1.0], np.cumprod((2 * j - 1) / (2 * j))])
    terms = [cheb_power_referee(i, (degree - 1) // 2) for i in range(k + 1)]

    def evaluate(x):
        y = 1.0 - x * x
        return x * sum(w * cheb.chebval(y, t) for w, t in zip(weights, terms))

    coef = cheb.chebinterpolate(evaluate, degree)
    coef[::2] = 0.0
    return coef


class TestPkEval:
    def test_zero_for_any_k(self):
        for k in (0, 1, 7, 100):
            assert p_k_eval(0.0, k) == 0.0

    def test_one_for_any_k(self):
        for k in (0, 1, 7, 100):
            assert p_k_eval(1.0, k) == 1.0

    def test_hand_value_p1(self):
        assert p_k_eval(0.5, 1) == pytest.approx(0.6875, abs=0.0)

    def test_domain_error(self):
        for bad in (1.5, -1.0001, math.inf, math.nan):
            with pytest.raises(ValueError):
                p_k_eval(bad, 3)
        for k in (3.0, -1, True, np.float64(2.0)):
            with pytest.raises(ValueError, match="k must be an integer of at least 0"):
                p_k_eval(0.5, k)
        assert p_k_eval(0.5, np.int64(3)) == p_k_eval(0.5, 3)

    def test_matches_direct_summation(self):
        for x in (-0.9, -0.3, 0.45, 1.0):
            for k in (1, 2, 5, 16):
                assert p_k_eval(x, k) == pytest.approx(p_k_direct(x, k),
                                                       rel=1e-12, abs=1e-14)

    def test_matches_direct_summation_full_grid(self):
        xs = np.linspace(-1.0, 1.0, 1000)
        for k in range(1, 65):
            direct = p_k_direct_grid(xs, k)
            got = p_k_grid(xs, k)
            assert np.allclose(got, direct, rtol=1e-12, atol=1e-14)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           st.integers(min_value=0, max_value=200))
    @settings(max_examples=200, deadline=None)
    def test_odd_to_the_ulp(self, x, k):
        assert p_k_eval(-x, k) == -p_k_eval(x, k)

    @given(st.floats(min_value=1e-6, max_value=1.0), st.integers(min_value=1, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_k(self, x, k):
        assert p_k_eval(x, k + 1) >= p_k_eval(x, k)

    def test_grid_matches_scalar(self):
        for k in (0, 3, 33):
            grid = p_k_grid(GRID, k)
            for idx in (0, 499, 999):
                assert grid[idx] == p_k_eval(float(GRID[idx]), k)

    def test_grid_domain_error(self):
        with pytest.raises(ValueError):
            p_k_grid(np.array([0.5, 1.2]), 3)


class TestSandwich:
    def test_bounds_hold_on_grid(self):
        for k in (1, 2, 4, 8, 16, 64, 256):
            gap = np.sign(GRID) - p_k_grid(GRID, k)
            bound = np.exp(-k * GRID ** 2) / (GRID * math.sqrt(k))
            assert gap.min() >= 0.0
            assert np.max(gap - bound) <= 1e-12

    def test_mirrored_negative_side(self):
        k = 32
        gap = p_k_grid(-GRID, k) - np.sign(-GRID)
        bound = np.exp(-k * GRID ** 2) / (GRID * math.sqrt(k))
        assert gap.min() >= 0.0
        assert np.max(gap - bound) <= 1e-12


class TestDegreeRule:
    def test_examples(self):
        for alpha, eps, k in ((0.5, math.exp(-4.0), 16), (1.0, math.exp(-1.0), 1),
                              (0.1, 1e-6, 1382)):
            got = sign_poly_degree(alpha, eps)
            assert type(got) is int and got == k

    def test_domain(self):
        for alpha, eps in ((0.0, 0.1), (1.5, 0.1), (0.5, 0.0), (0.5, 1.0)):
            with pytest.raises(ValueError):
                sign_poly_degree(alpha, eps)

    def test_accuracy_at_selected_degree(self):
        for alpha in (0.5, 0.25, 0.1):
            for eps in (1e-2, 1e-4):
                k = sign_poly_degree(alpha, eps)
                xs = np.linspace(alpha, 1.0, 2000)
                err = np.abs(1.0 - p_k_grid(xs, k)).max()
                assert err <= eps


class TestErrorBound:
    def test_formula(self):
        assert sign_error_bound(0.5, 16) == pytest.approx(math.exp(-4.0) / 2.0)
        assert sign_error_bound(1.0, 1) == pytest.approx(math.exp(-1.0))

    def test_monotone_decreasing_in_k(self):
        vals = [sign_error_bound(0.3, k) for k in range(1, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        for x in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                sign_error_bound(x, 4)
        for k in (0, True, 2.0):
            with pytest.raises(ValueError, match="k must be an integer of at least 1"):
                sign_error_bound(0.5, k)


class TestIntegralOracle:
    def test_endpoints(self):
        assert integral_step_oracle(1.0, 5) == pytest.approx(1.0, abs=1e-12)
        assert integral_step_oracle(0.0, 5) == 0.0

    def test_matches_recurrence(self):
        quad_tol = 1e-9
        for k in (1, 3, 8, 21, 64):
            for x in (-0.9, -0.5, 0.1, 0.5, 0.77):
                oracle = integral_step_oracle(x, k, quad_tol)
                assert abs(oracle - p_k_eval(x, k)) <= quad_tol + 1e-12

    def test_quad_tol_domain(self):
        with pytest.raises(ValueError):
            integral_step_oracle(0.5, 3, quad_tol=1e-3)
        with pytest.raises(ValueError):
            integral_step_oracle(0.5, 3, quad_tol=0.0)


class TestChebyshevMonomial:
    def test_exact_when_degree_suffices(self):
        poly = chebyshev_monomial_approx(1, 1)
        xs = np.linspace(-1, 1, 101)
        assert np.array_equal(poly(xs), xs)
        poly16 = chebyshev_monomial_approx(16, 20)
        assert poly16.degree() == 16
        assert np.abs(poly16(xs) - xs ** 16).max() <= 5e-15

    def test_bound_s16_d8(self):
        poly = chebyshev_monomial_approx(16, 8)
        xs = np.linspace(-1, 1, 10001)
        err = np.abs(poly(xs) - xs ** 16).max()
        assert err <= 2 * math.exp(-64 / 32.0) + 1e-10

    def test_bound_sampled_pairs(self):
        xs = np.linspace(-1, 1, 10001)
        rng = np.random.default_rng(0)
        for _ in range(30):
            s = int(rng.integers(1, 65))
            d = int(rng.integers(1, 65))
            poly = chebyshev_monomial_approx(s, d)
            err = np.abs(poly(xs) - xs ** s).max()
            assert err <= 2 * math.exp(-d * d / (2.0 * s)) + 1e-10

    def test_matches_binomial_referee(self):
        for s in range(1, 65):
            for d in range(1, 65):
                got = chebyshev_monomial_approx(s, d).coef
                ref = cheb_power_referee(s, d)
                assert got.shape == ref.shape, (s, d)
                assert np.array_equal(got == 0.0, ref == 0.0), (s, d)
                assert np.abs(got - ref).max() <= 1e-16, (s, d)

    def test_parity_structure(self):
        poly = chebyshev_monomial_approx(7, 5)
        assert np.all(poly.coef[::2] == 0.0)

    def test_domain(self):
        for s, d in ((0, 3), (3, 0), (-1, 2), (True, 2), (2, True), (2.0, 3)):
            with pytest.raises(ValueError, match="must be an integer of at least 1"):
                chebyshev_monomial_approx(s, d)


class TestCompressedSignPoly:
    def test_meets_eps_and_compresses(self):
        alpha, eps = 0.25, 0.1
        poly = compressed_sign_poly(alpha, eps)
        k = math.ceil(alpha ** -2 * math.log(2.0 / eps))
        assert poly.degree() < 2 * k + 1
        xs = np.linspace(-1, 1, 10001)
        keep = np.abs(xs) >= alpha
        assert np.abs(np.sign(xs[keep]) - poly(xs[keep])).max() <= eps

    @pytest.mark.parametrize("alpha, eps, degree", [(0.5, 0.2, 21), (0.3, 0.2, 37),
                                                    (0.25, 0.1, 53)])
    def test_matches_per_term_construction(self, alpha, eps, degree):
        poly = compressed_sign_poly(alpha, eps)
        assert poly.degree() == degree
        ref = per_term_sign_poly(alpha, eps, poly.degree())
        assert np.abs(poly.coef - ref).max() <= 1e-14

    def test_small_margin_high_accuracy(self):
        alpha, eps = 0.05, 1e-4
        poly = compressed_sign_poly(alpha, eps)
        assert poly.degree() == 761
        xs = np.linspace(-1, 1, 10001)
        keep = np.abs(xs) >= alpha
        assert np.abs(np.sign(xs[keep]) - poly(xs[keep])).max() <= eps

    def test_odd_on_grid(self):
        poly = compressed_sign_poly(0.3, 0.2)
        xs = np.linspace(0, 1, 500)
        assert np.abs(poly(-xs) + poly(xs)).max() <= 1e-10

    def test_domain(self):
        for alpha, eps in ((0.0, 0.1), (0.5, 0.5), (0.5, 0.0), (2.0, 0.1)):
            with pytest.raises(ValueError):
                compressed_sign_poly(alpha, eps)


# Each construction with the degree its polynomial has.
BUILDS = {
    "sign-0.25-0.1": (lambda: compressed_sign_poly(0.25, 0.1), 53),
    "sign-0.05-1e-3": (lambda: compressed_sign_poly(0.05, 1e-3), 619),
    "mono-16-8": (lambda: chebyshev_monomial_approx(16, 8), 8),
    "mono-37-64": (lambda: chebyshev_monomial_approx(37, 64), 37),
}


@pytest.mark.parametrize("build, degree", BUILDS.values(), ids=BUILDS.keys())
def test_returns_numpy_chebyshev(build, degree):
    poly = build()
    assert type(poly) is Chebyshev
    assert np.array_equal(poly.domain, [-1.0, 1.0])
    assert np.array_equal(poly.window, [-1.0, 1.0])
    assert poly.degree() == poly.coef.size - 1 == degree
    xs = np.linspace(-1.0, 1.0, 10001)
    assert poly(xs).tobytes() == cheb.chebval(xs, poly.coef).tobytes()
