import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Make tests/helpers.py and tests/acceptance_helpers.py importable, and test
# this checkout's package, never an installed or stale copy.
sys.path[:0] = [str(TESTS), str(SRC)]

import ridgeproj  # noqa: E402

if Path(ridgeproj.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"ridgeproj imported from {ridgeproj.__file__}, not from {SRC}")

from helpers import GramCounts  # noqa: E402


@pytest.fixture
def gram_counts():
    """Gram products and CG runs of the whole test, on :class:`helpers.GramCounts`."""
    with GramCounts() as counts:
        yield counts
