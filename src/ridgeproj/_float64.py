"""Float64 constants and rounding helpers shared by the numerical modules."""

from __future__ import annotations

import math

import numpy as np

# Unit roundoff of IEEE double precision, as a plain Python float.
_EPS = float(np.finfo(np.float64).eps)


def _ceil_tight(value: float) -> int:
    """Ceiling that forgives a few ulps of upward rounding noise."""
    return math.ceil(value * (1.0 - 8.0 * _EPS))
