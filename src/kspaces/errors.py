"""Exception types shared across the library."""


class KSError(Exception):
    """Base class for every error raised by this package."""


class EvaluationError(KSError):
    """An integrand was undefined or returned a non-finite value.

    ``point``, where known, holds the coordinates at which it was.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ToleranceNotMet(KSError):
    """The evaluation budget ran out before the error estimate reached tol.

    Carries the best value obtained so far, so callers can decide whether
    the partial answer is still usable.
    """

    def __init__(self, message, value=None, error_estimate=None, evaluations=0):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.evaluations = evaluations


class PartitionBudgetExceeded(KSError):
    """Greedy partition construction, or the dyadic tree of a 1-D K^p
    truncation, exceeded its cell-count cap."""


class DimensionCapExceeded(KSError):
    """Requested dimension is above the tensor-quadrature cap."""


class TailFamilyMismatch(KSError):
    """Operands carry incompatible tail-interval families."""


class UnresolvedTail(KSError):
    """An elementary product has a non-trivial factor past its resolved range."""


class MissingAbsoluteBound(KSError):
    """A conditionally integrable function needs an explicit bound on its
    absolute integral before a rigorous tail bound can be reported."""


class NotCauchy(KSError):
    """A limit of partial integrals failed to settle within the budget."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(KSError):
    """Expression text could not be parsed.

    ``position`` is the 0-based character offset of the offending token and
    ``expected`` names what the parser would have accepted there.
    """

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.expected = tuple(expected)
