"""Float64 constants and rounding helpers shared by the numerical modules."""

from __future__ import annotations

import math

import numpy as np

# Unit roundoff of IEEE double precision, as a plain Python float.
_EPS = float(np.finfo(np.float64).eps)
# Smallest normal double: the floor of a tolerance that would underflow.
_TINY = float(np.finfo(np.float64).tiny)


def _ceil_tight(value: float) -> int:
    """Ceiling that forgives a few ulps of upward rounding noise."""
    return math.ceil(value * (1.0 - 8.0 * _EPS))


def _exponent(v: np.ndarray) -> int:
    """The e with ``2^(e-1) <= max_i |v_i| < 2^e``; 0 for a zero vector.

    ``np.ldexp(v, -e)`` puts the largest entry in [1/2, 1), exactly while no
    entry leaves the normal range, so no squared norm of the scaled vector
    over- or underflows.  Takes the maximum without a temporary array.
    """
    return math.frexp(max(v.max(initial=0.0), -v.min(initial=0.0)))[1]
