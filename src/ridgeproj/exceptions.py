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
    """An accuracy out of reach is refused before any operator application.

    A step engine refuses an iteration count that exceeds the error budget
    that makes it valid, or an accuracy it cannot certify on the operator
    handle's stated error; a configuration refuses a noise budget its
    iteration count exceeds; and the ridge solvers refuse a kappa_lambda
    whose float64 residual floor is no tighter than the right-hand side.
    """


class ConvergenceFailure(RidgeProjError, RuntimeError):
    """An iterative routine ran out of iterations before its stopping rule.

    ``diagnostic`` holds the last residual norm / Ritz value / quadrature
    estimate, depending on the routine.
    """

    def __init__(self, message, diagnostic=None):
        self.diagnostic = diagnostic
        super().__init__(message)
