"""Per-iteration convergence records emitted by instrumented runs."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ConvergenceTrace"]


@dataclass
class ConvergenceTrace:
    """Relative-error history of one algorithm run.

    ``records`` is a list of ``(iteration, rel_error)`` pairs with iteration
    indices strictly increasing from 0.  ``algorithm`` tags the run
    ("projection" or "regression"); ``metadata`` carries gamma, lambda, eps
    and the seed when known.
    """

    records: list[tuple[int, float]]
    algorithm: str = "projection"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        prev = -1
        for i, (it, err) in enumerate(self.records):
            if i == 0 and it != 0:
                raise ValueError("trace must start at iteration 0")
            if it <= prev:
                raise ValueError("trace iterations must be strictly increasing")
            if not err >= 0:  # NaN too
                raise ValueError("relative errors must be nonnegative")
            prev = it

    def iterations(self):
        return [it for it, _ in self.records]

    def errors(self):
        return [err for _, err in self.records]

    def final_error(self) -> float:
        return self.records[-1][1]
