import pytest
from hypothesis import settings

from matprng.arith import IntMatrix, IntPolynomial, PrimePowerModulus, mat_mul_mod

# `--hypothesis-profile=ci`: the same examples on every run, and a failure
# prints the blob that replays it
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture
def fib() -> IntMatrix:
    return IntMatrix.from_rows([[0, 1], [1, 1]])


@pytest.fixture
def m2x2() -> IntMatrix:
    # char poly X^2 - 2X - 1, irreducible mod 5, nondegenerate (roots 1 +- sqrt 2)
    return IntMatrix.from_rows([[1, 2], [1, 1]])


@pytest.fixture
def m3x3() -> IntMatrix:
    # companion of X^3 - X - 1, irreducible mod 2, nondegenerate
    return IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 1, 0]])


def brute_force_order(a: IntMatrix, p: int, s: int, cap: int = 10**6) -> int:
    """Independent order oracle: plain repeated multiplication."""
    m = PrimePowerModulus(p, s)
    power = a.reduce(m.modulus)
    tau = 1
    while not power.is_identity():
        power = mat_mul_mod(power, a, m)
        tau += 1
        assert tau <= cap, "oracle cap exceeded"
    return tau


@pytest.fixture
def fib_poly() -> IntPolynomial:
    return IntPolynomial((-1, -1, 1))  # X^2 - X - 1
