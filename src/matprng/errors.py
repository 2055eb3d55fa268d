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
    """A computation refused as too large for desk scale: the check named
    `guard` compared `value` with its `limit`."""

    def __init__(self, guard: str, value: int, limit: int):
        super().__init__(guard, value, limit)
        self.guard, self.value, self.limit = guard, value, limit

    def payload(self) -> dict:
        """The report {guard, value, limit}; a value with more digits than the
        interpreter converts to a string is given by its bit length."""
        value = self.value
        try:
            str(value)
        except ValueError:
            value = f"an integer of {value.bit_length()} bits"
        return {"guard": self.guard, "value": value, "limit": self.limit}

    def __str__(self) -> str:
        return "{guard}: {value}, limit {limit}".format(**self.payload())
