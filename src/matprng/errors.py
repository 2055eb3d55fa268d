"""Exception types shared across the package."""


class MatprngError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(MatprngError, ValueError):
    """Matrix/vector dimensions are incompatible."""


class NotInvertibleError(MatprngError, ValueError):
    """Matrix determinant shares a factor with the modulus prime."""


class ExactDivisionError(MatprngError, ArithmeticError):
    """An exact integer division left a remainder (internal consistency bug)."""


class NotIrreducibleError(MatprngError, ValueError):
    """Polynomial is reducible modulo p where irreducibility is required."""


class NonSquarefreeError(MatprngError, ValueError):
    """Polynomial has a repeated factor where squarefreeness is required."""


class PreconditionViolatedError(MatprngError, ValueError):
    """A documented operation precondition does not hold for the inputs."""


class DegenerateMatrixError(MatprngError, ValueError):
    """Matrix has finite order / root-of-unity eigenvalues; order growth never stabilizes."""


class ResourceGuardError(MatprngError, RuntimeError):
    """Base for guards that abort a computation deemed too large for desk scale."""


class IterationCapExceededError(ResourceGuardError):
    """A multiple of an element order has a factor that trial division cannot split."""


class PrecisionCapExceededError(ResourceGuardError):
    """p-adic valuation could not be resolved below the precision cap."""


class GridTooLargeError(ResourceGuardError):
    """Double-sum grid exceeds the enumeration guard."""


class EnumerationTooLargeError(ResourceGuardError):
    """Power-sum system enumeration exceeds the guard."""


class PeriodTooLargeError(ResourceGuardError):
    """Full period exceeds the enumerable guard."""


class OrderTableTooDeepError(ResourceGuardError):
    """The order table's orders may have more decimal digits than the
    interpreter converts to a string."""


class DimensionTooLargeError(ResourceGuardError):
    """Exact discrepancy is not implemented for this dimension."""


class StreamTooLargeError(ResourceGuardError):
    """Stream output array would exceed the memory budget."""


class TooManyPointsError(ResourceGuardError):
    """Point set exceeds the exact-discrepancy size guard."""
