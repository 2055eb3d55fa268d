import pytest
from hypothesis import given, settings, strategies as st

from matprng.arith import IntMatrix, IntPolynomial, PrimePowerModulus
from matprng.errors import DimensionMismatchError
from matprng.fieldalg import (
    PolyModP,
    Verdict,
    cyclotomic_polynomial,
    euler_phi,
    irreducible_mod_p,
    is_p_primitive,
    is_proper_pair,
    minimal_recurrence_length,
    nondegeneracy_check,
    ratio_resultant,
    scalar_terms_mod_p,
    squarefree_mod_p,
    validate_theorem_hypotheses,
)


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

    def test_ratio_resultant_factors(self, fib_poly):
        # Res_Y(f(Y), f(XY)) has the d trivial ratio roots at X = 1
        g = ratio_resultant(fib_poly)
        q, r = divmod(g, IntPolynomial((-1, 1)))
        assert r.is_zero
        q, r = divmod(q, IntPolynomial((-1, 1)))
        assert r.is_zero


class TestCyclotomic:
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
        assert cyclotomic_polynomial(n) == IntPolynomial(coeffs)

    def test_product_over_divisors(self):
        # X^12 - 1 = prod_{d | 12} Phi_d
        prod = IntPolynomial((1,))
        for d in (1, 2, 3, 4, 6, 12):
            prod = prod * cyclotomic_polynomial(d)
        assert prod == IntPolynomial.x_power(12) - IntPolynomial((1,))

    def test_phi_degrees(self):
        for n in range(1, 50):
            assert cyclotomic_polynomial(n).degree == euler_phi(n)


class TestBerlekampMassey:
    def test_fibonacci_mod_3(self):
        assert minimal_recurrence_length([0, 1, 1, 2, 0, 2, 2, 1], 3) == 2

    def test_constant(self):
        assert minimal_recurrence_length([4, 4, 4, 4], 7) == 1

    def test_all_zero(self):
        assert minimal_recurrence_length([0, 0, 0, 0], 5) == 0

    def test_geometric(self):
        seq = [pow(2, n, 7) for n in range(10)]
        assert minimal_recurrence_length(seq, 7) == 1

    @given(st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_never_exceeds_d(self, d):
        import random

        rng = random.Random(d)
        p = 5
        a = IntMatrix.from_rows([[rng.randrange(p) for _ in range(d)] for _ in range(d)])
        u = tuple(rng.randrange(p) for _ in range(d))
        v = tuple(rng.randrange(p) for _ in range(d))
        terms = scalar_terms_mod_p(a, u, v, p, 4 * d)
        assert minimal_recurrence_length(terms, p) <= d


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


class TestPolyModP:
    def test_divmod_roundtrip(self):
        f = PolyModP(7, (3, 2, 5, 1))
        g = PolyModP(7, (1, 4, 2))
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=6),
           st.lists(st.integers(-50, 50), min_size=2, max_size=4),
           st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_pow_mod_non_monic_divisor(self, a, b, e):
        # over F_7 a divisor with any nonzero lead works, through its monic associate
        mod = PolyModP(7, b)
        if mod.degree < 1:
            return
        base = PolyModP(7, a)
        expected = PolyModP(7, (1,))
        for _ in range(e):
            expected = divmod(expected * base, mod)[1]
        assert base.pow_mod(e, mod) == expected
        assert base % mod == divmod(base, mod)[1]

    def test_gcd_monic(self):
        f = PolyModP(5, (4, 0, 1))  # X^2 + 4 = (X-1)(X+1) mod 5
        g = PolyModP(5, (4, 1))  # X + 4 = X - 1
        assert f.gcd(g) == g.monic()
