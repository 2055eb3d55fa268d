import json
import math
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from matprng.arith import IntMatrix, IntPolynomial, PrimePowerModulus, det_exact, is_squarefree_over_q
from matprng.cli import main
from matprng.errors import DimensionMismatchError
from matprng.fieldalg import (
    Verdict,
    _hankel_length,
    euler_phi,
    irreducible_mod_p,
    is_p_primitive,
    is_proper_pair,
    nondegeneracy_check,
    scalar_terms_mod_p,
    squarefree_mod_p,
    validate_theorem_hypotheses,
)
from matprng.padic import _cyclotomic_value


class TestSquarefreeModP:
    def test_fib_mod_3_accepted(self, fib_poly):
        assert squarefree_mod_p(fib_poly, 3).accepted

    def test_repeated_root(self):
        f = IntPolynomial((1, -2, 1))  # (X-1)^2
        v = squarefree_mod_p(f, 5)
        assert not v.accepted
        assert v.witness.coeffs == (4, 1)  # X - 1 as a monic factor mod 5

    def test_fib_mod_5_rejected(self, fib_poly):
        # discriminant 5 vanishes mod 5: double root at X = 3
        v = squarefree_mod_p(fib_poly, 5)
        assert not v.accepted

    def test_zero_poly_raises(self):
        with pytest.raises(ValueError):
            squarefree_mod_p(IntPolynomial((5, 10)), 5)


class TestIrreducibleModP:
    def test_fib_mod_3(self, fib_poly):
        # no root in F_3: values at 0,1,2 are 2,2,1
        assert all(fib_poly(x) % 3 != 0 for x in range(3))
        assert irreducible_mod_p(fib_poly, 3)

    def test_fib_mod_11(self, fib_poly):
        # disc 5 = 4^2 mod 11: roots exist
        assert not irreducible_mod_p(fib_poly, 11)

    def test_linear(self):
        assert irreducible_mod_p(IntPolynomial((-1, 1)), 7)

    def test_cubic_mod_2(self):
        assert irreducible_mod_p(IntPolynomial((-1, -1, 0, 1)), 2)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_irreducible_implies_squarefree(self, p):
        # validator consistency on a sample of irreducible polynomials
        found = 0
        for c0 in range(1, p):
            for c1 in range(p):
                f = IntPolynomial((c0, c1, 1))
                if irreducible_mod_p(f, p):
                    found += 1
                    assert squarefree_mod_p(f, p).accepted
        assert found > 0


class TestNondegeneracy:
    def test_fib_accepted(self, fib_poly):
        assert nondegeneracy_check(fib_poly).accepted

    def test_x2_minus_1_rejected_root(self):
        v = nondegeneracy_check(IntPolynomial((-1, 0, 1)))
        assert v.witness == {"kind": "root", "n": 1}

    def test_x2_plus_1_rejected_fourth_roots(self):
        v = nondegeneracy_check(IntPolynomial((1, 0, 1)))
        assert v.witness == {"kind": "root", "n": 4}

    def test_ratio_rejection(self):
        # roots 2 and -2: ratio -1 is a square root of unity
        f = IntPolynomial((-4, 0, 1))
        v = nondegeneracy_check(f)
        assert not v.accepted
        assert v.witness == {"kind": "ratio", "n": 2}

    def test_plastic_cubic_accepted(self):
        assert nondegeneracy_check(IntPolynomial((-1, -1, 0, 1))).accepted

    def test_not_squarefree_raises(self):
        with pytest.raises(ValueError):
            nondegeneracy_check(IntPolynomial((1, 2, 1)))

    def test_zero_constant_raises(self):
        with pytest.raises(ValueError):
            nondegeneracy_check(IntPolynomial((0, 1, 1)))

    @pytest.mark.parametrize(
        "f",
        [
            IntPolynomial((-1, -1, 1)),
            IntPolynomial((-1, -2, 1)),
            IntPolynomial((-4, 0, 1)),
            IntPolynomial((3, -1, 1)),
        ],
    )
    @pytest.mark.parametrize("c", [2, 3, -2])
    def test_scaling_invariance(self, f, c):
        # roots scale by c (nonzero); ratios are unchanged, so the verdict is
        # preserved whenever the rejection is not a root rejection
        d = f.degree
        scaled = IntPolynomial(
            tuple(f.coeffs[i] * c ** (d - i) for i in range(d + 1))
        )
        base = nondegeneracy_check(f)
        other = nondegeneracy_check(scaled)
        if base.accepted:
            assert other.accepted
        elif base.witness["kind"] == "ratio":
            assert not other.accepted and other.witness == base.witness


class TestCyclotomic:
    # the values Phi_n(x) that the order descent factors
    @pytest.mark.parametrize(
        "n,coeffs",
        [
            (1, (-1, 1)),
            (2, (1, 1)),
            (4, (1, 0, 1)),
            (6, (1, -1, 1)),
            (12, (1, 0, -1, 0, 1)),
        ],
    )
    def test_known(self, n, coeffs):
        for x in (2, 3, 5, 7, 10, 2**61 - 1):
            assert _cyclotomic_value(n, x) == IntPolynomial(coeffs)(x)

    def test_product_over_divisors(self):
        # x^12 - 1 = prod_{d | 12} Phi_d(x)
        for x in (2, 3, 10, 65537):
            assert math.prod(_cyclotomic_value(d, x) for d in (1, 2, 3, 4, 6, 12)) == x**12 - 1

    def test_phi_degrees(self):
        # Phi_n(x) is a product of phi(n) factors x - zeta with x - 1 <= |x - zeta| <= x + 1,
        # and at x = 100 those bounds single out the degree phi(n) < 50
        for n in range(1, 50):
            assert 99 ** euler_phi(n) <= _cyclotomic_value(n, 100) <= 101 ** euler_phi(n)


def _least_recurrence(s: list[int], p: int) -> int:
    """The least L for which some c in F_p^L gives s_(n+L) = sum c_i s_(n+i)
    on every window of s, by trying every c: the brute force the Hankel
    minors are checked against."""
    for length in range(len(s) // 2 + 1):
        for c in product(range(p), repeat=length):
            if all((s[n + length] - sum(ci * s[n + i] for i, ci in enumerate(c))) % p == 0
                   for n in range(len(s) - length)):
                return length
    raise AssertionError("no recurrence fits half the terms")


@st.composite
def scalar_sequences(draw):
    """(A, u, v, p) with d <= 3 and p <= 7, entries in [-2p, 2p) with zeros
    mixed in, so that A is often singular and u, v often improper mod p."""
    d, p = draw(st.integers(1, 3)), draw(st.sampled_from([2, 3, 5, 7]))
    entry = st.one_of(st.just(0), st.integers(-2 * p, 2 * p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    u, v = (tuple(draw(st.lists(entry, min_size=d, max_size=d))) for _ in range(2))
    return IntMatrix.from_rows(rows), u, v, p


class TestHankelLength:
    @given(scalar_sequences())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_least_recurrence(self, case):
        # on 4d terms, the least recurrence is the linear complexity L <= d;
        # L = d iff the d x d minor is a unit, and for invertible A the
        # largest unit leading minor has order L
        a, u, v, p = case
        d = a.d
        length = _least_recurrence(scalar_terms_mod_p(a, u, v, p, 4 * d), p)
        k = _hankel_length(scalar_terms_mod_p(a, u, v, p, 2 * d - 1), d, p)
        assert (k == d) == (length == d) == is_proper_pair(a, u, v, p)
        if det_exact(a) % p:
            assert k == length

    def test_fibonacci_mod_3(self):
        assert _hankel_length([0, 1, 1], 2, 3) == 2

    def test_constant(self):
        assert _hankel_length([4, 4, 4], 2, 7) == 1

    def test_all_zero(self):
        assert _hankel_length([0, 0, 0, 0, 0], 3, 5) == 0

    def test_geometric(self):
        assert _hankel_length([pow(2, n, 7) for n in range(5)], 3, 7) == 1


# (rows, p, kernel dtype mod p): the fixtures, X^2 - X - 3 at p = 3001, and
# 2 x 2 matrices around the kernel's int64 bound 2 p^2 < 2^63 and at 2^61
SCALAR_TERM_CASES = [
    ([[0, 1], [1, 1]], 3, "int64"),
    ([[0, 1], [1, 1]], 7, "int64"),
    ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], 2, "int64"),
    ([[0, 1], [3, 1]], 3001, "int64"),
    ([[5, -7], [2**40 + 3, 11]], 2**31 - 1, "int64"),
    ([[5, -7], [2**40 + 3, 11]], 2**31 + 11, "object"),
    ([[5, -7], [2**70 + 3, 11]], 2**61 - 1, "object"),
]


class TestScalarTermsModP:
    @pytest.mark.parametrize("rows, p, dtype", SCALAR_TERM_CASES)
    def test_matches_the_stream_kernel(self, rows, p, dtype):
        import random

        from matprng.stream import mat_stream

        a = IntMatrix.from_rows(rows)
        rng = random.Random(p)
        for count in (0, 1, 4 * a.d, 50):
            # entries outside [0, p), negative ones too
            u = tuple(rng.randrange(-3 * p, 3 * p) for _ in range(a.d))
            v = tuple(rng.randrange(-3 * p, 3 * p) for _ in range(a.d))
            want = mat_stream(a, u, PrimePowerModulus(p, 1), count, v=v)
            assert want.dtype == dtype
            assert scalar_terms_mod_p(a, u, v, p, count) == want.tolist()

    @pytest.mark.parametrize("u, v", [((1, 0, 0), (1, 0)), ((1, 0), (1,))])
    def test_dimension_mismatch(self, fib, u, v):
        with pytest.raises(DimensionMismatchError, match="matrix dim 2 vs vector length"):
            scalar_terms_mod_p(fib, u, v, 3, 8)


class TestProperAndPrimitive:
    def test_fib_proper(self, fib):
        assert is_proper_pair(fib, (1, 0), (1, 0), 3)

    def test_zero_u_improper(self, fib):
        assert not is_proper_pair(fib, (0, 0), (1, 0), 3)
        assert not is_proper_pair(fib, (3, 6), (1, 0), 3)

    def test_zero_v_improper(self, fib):
        assert not is_proper_pair(fib, (1, 0), (0, 0), 3)

    def test_shift_preserves_properness(self, fib):
        from matprng.arith import mat_vec

        u, v = (1, 0), (1, 0)
        for _ in range(5):
            assert is_proper_pair(fib, u, v, 3)
            u = tuple(x % 3**4 for x in mat_vec(fib, u))

    @pytest.mark.parametrize(
        "u,p,expected", [((1, 0), 3, True), ((3, 6), 3, False), ((9, 1), 3, True)]
    )
    def test_p_primitive(self, u, p, expected):
        assert is_p_primitive(u, p) is expected


class TestValidate:
    def test_fib_thm1_accepted(self, fib):
        v = validate_theorem_hypotheses(fib, (1, 0), (1, 0), PrimePowerModulus(3, 4), "thm1")
        assert v.accepted

    def test_fib_p5_multiple_roots(self, fib):
        v = validate_theorem_hypotheses(fib, (1, 0), (1, 0), PrimePowerModulus(5, 4), "thm1")
        assert v.reason == "multiple-roots-mod-p"

    def test_identity_degenerate(self, fib):
        v = validate_theorem_hypotheses(
            IntMatrix.identity(2), (1, 0), (1, 0), PrimePowerModulus(3, 4), "thm1"
        )
        assert v.reason == "degenerate"

    def test_fib_thm2_accepted(self, fib):
        v = validate_theorem_hypotheses(fib, (1, 0), None, PrimePowerModulus(3, 4), "thm2")
        assert v.accepted

    def test_thm2_rejects_reducible(self, fib):
        v = validate_theorem_hypotheses(fib, (1, 0), None, PrimePowerModulus(11, 4), "thm2")
        assert v.reason == "reducible-mod-p"

    def test_thm2_rejects_imprimitive(self, fib):
        v = validate_theorem_hypotheses(fib, (3, 6), None, PrimePowerModulus(3, 4), "thm2")
        assert v.reason == "u-not-p-primitive"

    def test_improper_pair(self, fib):
        v = validate_theorem_hypotheses(fib, (1, 0), (0, 0), PrimePowerModulus(3, 4), "thm1")
        assert v.reason == "improper-pair"

    # improper-pair witnesses, the linear complexity of v A^n u mod p:
    # u = 0 mod 3, an eigenvector (1, r) of Fibonacci mod 11 (r = 8), and
    # u = (C - 2) e_1 in the plane where X^3 - X - 1 = (X - 2) g mod 5 has g(C) u = 0
    IMPROPER = [
        ([[0, 1], [1, 1]], (3, 6), (1, 0), 3, 0),
        ([[0, 1], [1, 1]], (1, 8), (1, 0), 11, 1),
        ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], (3, 0, 1), (1, 0, 0), 5, 2),
    ]

    @pytest.mark.parametrize("rows, u, v, p, length", IMPROPER)
    def test_improper_pair_witness(self, rows, u, v, p, length):
        a = IntMatrix.from_rows(rows)
        verdict = validate_theorem_hypotheses(a, u, v, PrimePowerModulus(p, 4), "thm1")
        assert verdict.to_dict() == {
            "outcome": "rejected", "reason": "improper-pair", "witness": {"minimal_length": length, "d": a.d},
        }

    @pytest.mark.parametrize("rows, u, v, p, length", IMPROPER[:2])
    def test_improper_pair_cli_bytes(self, rows, u, v, p, length, tmp_path, capsys):
        doc = {"p": str(p), "t": 4, "matrix": [[str(x) for x in row] for row in rows],
               "u0": [str(x) for x in u], "v": [str(x) for x in v], "level": "thm1"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().out == (
            '{\n  "level": "thm1",\n  "outcome": "rejected",\n  "reason": "improper-pair",\n'
            '  "witness": {\n    "d": 2,\n    "minimal_length": %d\n  }\n}\n' % length
        )

    def test_singular(self):
        a = IntMatrix.from_rows([[1, 1], [1, 1]])
        v = validate_theorem_hypotheses(a, (1, 0), (1, 0), PrimePowerModulus(3, 4), "thm1")
        assert v.reason == "singular-matrix"

    def test_rejected_verdicts_carry_witness(self):
        with pytest.raises(ValueError):
            Verdict("rejected", "some-reason", None)

    def test_fixture_matrices_validate(self, m2x2, m3x3):
        assert validate_theorem_hypotheses(m2x2, (1, 0), (0, 1), PrimePowerModulus(5, 6), "thm1").accepted
        assert validate_theorem_hypotheses(
            m3x3, (1, 0, 0), (0, 0, 1), PrimePowerModulus(2, 6), "thm1"
        ).accepted


# --- oracles: the polynomial-ring algorithms that the companion-matrix checks
# replaced (exact division, cyclotomic polynomials, Sylvester resultants over
# Z[X], and F_p arithmetic through monic associates), kept here as references

def _divmod_exact(num: IntPolynomial, den: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Long division over Z; every step must be integral (den monic, or a
    divisor of num in Z[X])."""
    rem, dc = list(num.coeffs), den.coeffs
    quo = [0] * max(len(rem) - len(dc) + 1, 1)
    for k in range(len(rem) - len(dc), -1, -1):
        q, r = divmod(rem[k + len(dc) - 1], dc[-1])
        assert r == 0, "division not integral"
        quo[k] = q
        for i, c in enumerate(dc):
            rem[k + i] -= q * c
    return IntPolynomial(quo), IntPolynomial(rem[: len(dc) - 1])


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> IntPolynomial:
    """Phi_n by exact division of X^n - 1 by Phi_e, e | n, e < n."""
    num = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
    for e in range(1, n):
        if n % e == 0:
            num, rem = _divmod_exact(num, _cyclotomic(e))
            assert rem.is_zero
    return num


def _sylvester_det(f: list, g: list):
    """Res(f, g): the Bareiss determinant of the Sylvester matrix of two
    ascending coefficient lists with entries in Z or in Z[X]."""
    m, n = len(f) - 1, len(g) - 1
    zero = f[-1] * 0
    rows = []
    for coeffs, shifts in ((f, n), (g, m)):
        for i in range(shifts):
            row = [zero] * (m + n)
            row[i : i + len(coeffs)] = coeffs[::-1]
            rows.append(row)
    d, sign, prev = len(rows), 1, None
    for k in range(d - 1):
        if not rows[k][k]:
            pivot = next((i for i in range(k + 1, d) if rows[i][k]), None)
            if pivot is None:
                return zero
            rows[k], rows[pivot], sign = rows[pivot], rows[k], -sign
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                num = rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]
                if prev is not None:
                    if isinstance(num, int):
                        num, rem = divmod(num, prev)
                        assert rem == 0
                    else:
                        num, rem = _divmod_exact(num, prev)
                        assert rem.is_zero
                rows[i][j] = num
        prev = rows[k][k]
    return rows[-1][-1] * sign


def _nondegeneracy_oracle(f: IntPolynomial) -> Verdict:
    """The cyclotomic sweep against f (roots) and against
    Res_Y(f(Y), f(XY)) / (X - 1)^d (ratios)."""
    d = f.degree
    if f.coeffs[0] == 0 or _sylvester_det(list(f.coeffs), list(f.derivative().coeffs)) == 0:
        raise ValueError("zero root or repeated root")
    for n in range(1, 2 * d * d + 1):
        if euler_phi(n) <= d and _divmod_exact(f, _cyclotomic(n))[1].is_zero:
            return Verdict.fail("degenerate", {"kind": "root", "n": n})
    g = _sylvester_det([IntPolynomial((c,)) for c in f.coeffs],
                       [IntPolynomial((0,) * k + (c,)) for k, c in enumerate(f.coeffs)])
    for _ in range(d):
        g, rem = _divmod_exact(g, IntPolynomial((-1, 1)))
        assert rem.is_zero
    for n in range(1, 2 * d**4 + 1):
        if euler_phi(n) <= d * d and _divmod_exact(g, _cyclotomic(n))[1].is_zero:
            return Verdict.fail("degenerate", {"kind": "ratio", "n": n})
    return Verdict.ok()


def _mod_p(f: IntPolynomial, p: int) -> IntPolynomial:
    return IntPolynomial([c % p for c in f.coeffs])


def _rem_mod_p(f: IntPolynomial, g: IntPolynomial, p: int) -> IntPolynomial:
    """f mod g in F_p[X], through the monic associate of g."""
    monic = _mod_p(g * pow(g.coeffs[-1], -1, p), p)
    return _mod_p(_divmod_exact(f, monic)[1], p)


def _gcd_mod_p(f: IntPolynomial, g: IntPolynomial, p: int) -> IntPolynomial:
    while not g.is_zero:
        f, g = g, _rem_mod_p(f, g, p)
    return _mod_p(f * pow(f.coeffs[-1], -1, p), p)


def _pow_mod_p(base: IntPolynomial, e: int, mod: IntPolynomial, p: int) -> IntPolynomial:
    result = IntPolynomial((1,))
    while e:
        if e & 1:
            result = _rem_mod_p(result * base, mod, p)
        base, e = _rem_mod_p(base * base, mod, p), e >> 1
    return result


def _irreducible_oracle(f: IntPolynomial, p: int) -> bool:
    """gcd(X^(p^k) - X, f) = 1 in F_p[X] for k <= deg/2, and X^(p^deg) = X mod f."""
    fp = _mod_p(f * pow(f.coeffs[-1], -1, p), p)
    n, x = fp.degree, IntPolynomial((0, 1))
    if n <= 1:
        return n == 1
    r = x
    for _ in range(n // 2):
        r = _pow_mod_p(r, p, fp, p)
        if _gcd_mod_p(_mod_p(r - x, p), fp, p).degree > 0:
            return False
    return _pow_mod_p(x, p**n, fp, p) == _rem_mod_p(x, fp, p)


def _squarefree_oracle(f: IntPolynomial, p: int) -> Verdict:
    g = _gcd_mod_p(_mod_p(f, p), _mod_p(f.derivative(), p), p)
    return Verdict.ok() if g.degree <= 0 else Verdict.fail("multiple-roots-mod-p", g)


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError:
        return ValueError


# n with phi(n) <= 4
SMALL_CYCLOTOMIC = [1, 2, 3, 4, 5, 6, 8, 10, 12]


@st.composite
def cyclotomic_products(draw):
    """(f, p): a product of scaled cyclotomic polynomials a^phi(n) Phi_n(X / a),
    of degree <= 4, its lower coefficients perturbed by multiples of 0, 1, p
    or p^2.  Unperturbed factors give root (a = +-1) and ratio witnesses, and
    equal factors repeated roots; small perturbations keep f mod p a product
    of such factors, so that f is often reducible or not squarefree mod p."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    f = IntPolynomial((1,))
    for n in draw(st.lists(st.sampled_from(SMALL_CYCLOTOMIC), min_size=1, max_size=3)):
        phi, a = _cyclotomic(n), draw(st.sampled_from([1, -1, 2, 3, -2]))
        if f.degree + phi.degree <= 4:
            f = f * IntPolynomial([c * a ** (phi.degree - i) for i, c in enumerate(phi.coeffs)])
    shift = draw(st.sampled_from([0, 1, p, p * p]))
    noise = draw(st.lists(st.integers(-2, 2), min_size=f.degree, max_size=f.degree))
    return f + IntPolynomial([shift * x for x in noise]), p


class TestAgainstPolynomialRingOracles:
    @given(cyclotomic_products(), st.sampled_from([1, 2, -3]))
    @settings(max_examples=300, deadline=None)
    def test_every_check_matches_its_oracle(self, case, lead):
        f, p = case
        assert _outcome(nondegeneracy_check, f) == _outcome(_nondegeneracy_oracle, f)
        assert irreducible_mod_p(f, p) == _irreducible_oracle(f, p)
        assert squarefree_mod_p(f, p) == _squarefree_oracle(f, p)
        # a lead other than 1, which the check scales away
        g = IntPolynomial(f.coeffs[:-1] + (lead,))
        assert is_squarefree_over_q(g) == (_sylvester_det(list(g.coeffs), list(g.derivative().coeffs)) != 0)
