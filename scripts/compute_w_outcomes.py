"""Print the outcome of `compute_w` and the validator on random (f, p), one
line per case.

Each line is the polynomial's coefficients, p, the outcome of `compute_w`
with the precision cap at 64 and at 16, the coefficients of `char_poly` of
its companion matrix C, the `nondegeneracy_check` verdict and witness, the
`squarefree_mod_p` witness, `irreducible_mod_p`, and the thm1 verdict of
`validate_theorem_hypotheses` on C with one seeded pair (u, v) (see
`random_pair`).  An outcome is a value,
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
degenerate or not squarefree mod p.  The pairs come from a second random
stream, so the other columns do not depend on them.
"""

import argparse
import random

from matprng import padic
from matprng.arith import IntPolynomial, PrimePowerModulus, char_poly, companion_matrix
from matprng.errors import ResourceGuardError
from matprng.fieldalg import (
    irreducible_mod_p,
    nondegeneracy_check,
    squarefree_mod_p,
    validate_theorem_hypotheses,
)

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


def random_pair(rng: random.Random, f: IntPolynomial, p: int) -> tuple[tuple, tuple]:
    """(u, v) with entries below p^2; about a third are improper by
    construction.  Those have u = (1, r, .., r^(d-1)) mod p, an eigenvector
    of C, where f has a root r mod p (p <= 101), and otherwise u or v = 0
    mod p."""
    d = f.degree
    u, v = ([rng.randrange(p * p) for _ in range(d)] for _ in range(2))
    if rng.random() < 1 / 3:
        root = next((r for r in range(p) if f(r) % p == 0), None) if p <= 101 else None
        if root is not None:
            u = [pow(root, i, p) + p * x for i, x in enumerate(u)]
        else:
            zero = rng.choice((u, v))
            zero[:] = [p * x for x in zero]
    return tuple(u), tuple(v)


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
    rng, pair_rng = random.Random(args.seed), random.Random(f"{args.seed}/pairs")
    for _ in range(args.cases):
        f, p = random_case(rng)
        u, v = random_pair(pair_rng, f, p)
        print(
            f.coeffs, p, w_outcome(f, p, 64), w_outcome(f, p, 16),
            char_poly(companion_matrix(f)).coeffs,
            outcome(lambda: nondegeneracy_check(f).to_dict()),
            squarefree_mod_p(f, p).to_dict()["witness"],
            irreducible_mod_p(f, p),
            outcome(lambda: validate_theorem_hypotheses(
                companion_matrix(f), u, v, PrimePowerModulus(p, 1), "thm1").to_dict()),
            flush=True,
        )


if __name__ == "__main__":
    main()
