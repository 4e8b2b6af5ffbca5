"""Exception types shared across the library."""


class RidgeProjError(Exception):
    """Base class for errors raised by this library."""


class DimensionMismatch(RidgeProjError, ValueError):
    """Operands have incompatible shapes.

    Carries both offending dimensions so callers can report them without
    re-deriving shapes.
    """

    def __init__(self, expected, got, what="vector length"):
        self.expected = expected
        self.got = got
        super().__init__(f"{what} mismatch: expected {expected}, got {got}")


class BudgetExceeded(RidgeProjError, ValueError):
    """A step engine refuses, before any operator application, an accuracy out of its reach.

    Either an iteration count exceeds the error budget that makes it valid,
    or an accuracy cannot be certified on the operator handle's stated
    error.
    """


class ConvergenceFailure(RidgeProjError, RuntimeError):
    """An iterative routine ran out of iterations before its stopping rule.

    ``diagnostic`` holds the last residual norm / Ritz value / quadrature
    estimate, depending on the routine.
    """

    def __init__(self, message, diagnostic=None):
        self.diagnostic = diagnostic
        super().__init__(message)
