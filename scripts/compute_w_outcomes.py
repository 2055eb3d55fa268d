"""Print the outcome of `compute_w` on random (f, p), one line per case.

Each line is the polynomial's coefficients, p, the precision cap and either
w or the name of the exception raised.  Running the script on two versions
of the package and comparing the outputs checks that they agree:

    PYTHONPATH=old/src python scripts/compute_w_outcomes.py --cases 1000 > old.txt
    PYTHONPATH=new/src python scripts/compute_w_outcomes.py --cases 1000 > new.txt
    diff old.txt new.txt

The polynomials have degree 1 to 5 and are mostly irreducible mod p, with
p from 2 to 2^31 - 1.  About 40 % are scaled cyclotomic polynomials
a^d Phi_n(X / a), with roots a zeta, perturbed by a multiple of a power of
p: their root ratios (and for a = 1 the roots) lie close to roots of
unity, so that beta is large, or unresolved at the cap.  Each case runs
once with the cap at 64 and once at 16.
"""

import argparse
import random

from matprng import padic
from matprng.arith import IntPolynomial
from matprng.fieldalg import cyclotomic_polynomial, irreducible_mod_p

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 101, 317, 65537, 2**31 - 1]
# n with phi(n) <= 5: Phi_n has degree phi(n)
CYCLOTOMIC = [1, 2, 3, 4, 5, 6, 8, 10, 12]


def random_case(rng: random.Random) -> tuple[IntPolynomial, int]:
    p = rng.choice(PRIMES)
    for _ in range(50):
        if rng.random() < 0.4:
            base, a = cyclotomic_polynomial(rng.choice(CYCLOTOMIC)), rng.randint(1, 9)
            d = base.degree
            shift = p ** rng.randint(1, 12)
            lower = [c * a ** (d - i) + shift * rng.randint(-3, 3) for i, c in enumerate(base.coeffs[:-1])]
            f = IntPolynomial(lower + [1])
        else:
            d = rng.randint(1, 5)
            f = IntPolynomial([rng.randint(-p * p, p * p) for _ in range(d)] + [1])
        if rng.random() < 0.05 or irreducible_mod_p(f, p):
            return f, p
    return f, p


def outcome(f: IntPolynomial, p: int, cap: int) -> str:
    padic.DEFAULT_PRECISION_CAP = cap
    try:
        return str(padic.compute_w(f, p))
    except Exception as exc:  # every exception type is an outcome to compare
        return type(exc).__name__


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    for _ in range(args.cases):
        f, p = random_case(rng)
        for cap in (64, 16):
            print(f.coeffs, p, cap, outcome(f, p, cap), flush=True)


if __name__ == "__main__":
    main()
