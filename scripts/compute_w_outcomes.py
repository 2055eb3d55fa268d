"""Print the outcome of `compute_w` and the validator on random (f, p), one
line per case.

Each line is the polynomial's coefficients, p, the outcome of `compute_w`
with the precision cap at 64 and at 16, the coefficients of `char_poly` of
its companion matrix C, the `nondegeneracy_check` verdict and witness, the
`squarefree_mod_p` witness and `irreducible_mod_p`.  An outcome is a value,
the guard's name for a `ResourceGuardError`, or else the name of the
exception raised.  Running the script on two versions of the package and
comparing the outputs checks that they agree:

    PYTHONPATH=old/src python scripts/compute_w_outcomes.py --cases 1000 > old.txt
    PYTHONPATH=new/src python scripts/compute_w_outcomes.py --cases 1000 > new.txt
    diff old.txt new.txt

The polynomials have degree 1 to 5 and are mostly irreducible mod p, with
p from 2 to 2^31 - 1.  About 40 % are scaled cyclotomic polynomials
a^d Phi_n(X / a), with roots a zeta, perturbed by a multiple of a power of
p: their root ratios (and for a = 1 the roots) lie close to roots of
unity, so that beta is large, or unresolved at the cap, and f is often
degenerate or not squarefree mod p.
"""

import argparse
import random

from matprng import padic
from matprng.arith import IntPolynomial, char_poly, companion_matrix
from matprng.errors import ResourceGuardError
from matprng.fieldalg import irreducible_mod_p, nondegeneracy_check, squarefree_mod_p

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 101, 317, 65537, 2**31 - 1]
# Phi_n for the n with phi(n) <= 5, coefficients ascending
CYCLOTOMIC = {
    1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 5: (1, 1, 1, 1, 1),
    6: (1, -1, 1), 8: (1, 0, 0, 0, 1), 10: (1, -1, 1, -1, 1), 12: (1, 0, -1, 0, 1),
}


def random_case(rng: random.Random) -> tuple[IntPolynomial, int]:
    p = rng.choice(PRIMES)
    for _ in range(50):
        if rng.random() < 0.4:
            base, a = CYCLOTOMIC[rng.choice(list(CYCLOTOMIC))], rng.randint(1, 9)
            d = len(base) - 1
            shift = p ** rng.randint(1, 12)
            lower = [c * a ** (d - i) + shift * rng.randint(-3, 3) for i, c in enumerate(base[:-1])]
            f = IntPolynomial(lower + [1])
        else:
            d = rng.randint(1, 5)
            f = IntPolynomial([rng.randint(-p * p, p * p) for _ in range(d)] + [1])
        if rng.random() < 0.05 or irreducible_mod_p(f, p):
            return f, p
    return f, p


def outcome(call, *args) -> str:
    try:
        return str(call(*args))
    except ResourceGuardError as exc:
        return exc.guard
    except Exception as exc:  # every exception type is an outcome to compare
        return type(exc).__name__


def w_outcome(f: IntPolynomial, p: int, cap: int) -> str:
    padic.DEFAULT_PRECISION_CAP = cap
    return outcome(padic.compute_w, f, p)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    for _ in range(args.cases):
        f, p = random_case(rng)
        print(
            f.coeffs, p, w_outcome(f, p, 64), w_outcome(f, p, 16),
            char_poly(companion_matrix(f)).coeffs,
            outcome(lambda: nondegeneracy_check(f).to_dict()),
            squarefree_mod_p(f, p).to_dict()["witness"],
            irreducible_mod_p(f, p),
            flush=True,
        )


if __name__ == "__main__":
    main()
