"""Check the algebraic hypotheses a generator matrix must satisfy before the
distribution bounds apply: nondegeneracy (no root of the characteristic
polynomial, and no ratio of two roots, is a root of unity), squarefreeness or
irreducibility mod p, and proper / p-primitive start vectors.
"""

from matprng import IntMatrix, PrimePowerModulus, char_poly, validate_theorem_hypotheses
from matprng.arith import IntPolynomial, det_exact
from matprng.fieldalg import (
    irreducible_mod_p,
    is_proper_pair,
    nondegeneracy_check,
    scalar_terms_mod_p,
    squarefree_mod_p,
)

fib = IntMatrix.from_rows([[0, 1], [1, 1]])
f = char_poly(fib)
print("characteristic polynomial of the Fibonacci matrix:", f.coeffs, "(ascending)")

print("\nnondegeneracy over Q:")
for poly, label in [
    (f, "X^2 - X - 1"),
    (IntPolynomial((1, 0, 1)), "X^2 + 1"),
    (IntPolynomial((-4, 0, 1)), "X^2 - 4"),
]:
    verdict = nondegeneracy_check(poly)
    print(f"  {label:12s} -> {verdict.outcome}", verdict.witness or "")

print("\nbehavior mod different primes:")
for p in (3, 5, 11):
    print(
        f"  p = {p}: squarefree: {squarefree_mod_p(f, p).outcome:8s}"
        f"  irreducible: {irreducible_mod_p(f, p)}"
    )

print("\nleading Hankel minors det[s_(i+j)]_(i,j<k) mod p, k = 1, 2, of s_n = v A^n u")
print("(proper iff the k = 2 minor is nonzero; (1, 8) is an eigenvector mod 11):")
for u, v, p in [((1, 0), (1, 0), 3), ((1, 0), (0, 0), 3), ((3, 6), (1, 0), 3), ((1, 8), (1, 0), 11)]:
    terms = scalar_terms_mod_p(fib, u, v, p, 3)
    minors = [det_exact([terms[i : i + k] for i in range(k)]) % p for k in (1, 2)]
    print(f"  p={p:2d} u={u} v={v}: terms {terms} -> minors {minors}  proper: {is_proper_pair(fib, u, v, p)}")

print("\nfull validation verdicts:")
for p, level in [(3, "thm1"), (5, "thm1"), (3, "thm2"), (11, "thm2")]:
    verdict = validate_theorem_hypotheses(fib, (1, 0), (1, 0), PrimePowerModulus(p, 4), level)
    print(f"  p = {p:2d} {level}: {verdict.outcome} ({verdict.reason})")
