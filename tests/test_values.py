"""Value semantics of the package's record and value types: field names and
order, keyword construction, repr, immutability, equality and hashing, and
the validation messages of the types that check their fields."""

import copy
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from matprng.analysis.bounds import FordBound, KorobovBound, KSBound
from matprng.analysis.discrepancy import BoxCount, DiscrepancyReport
from matprng.analysis.params import ProofParameters, RationalizationRow
from matprng.analysis.sums import FullPeriodRow, SumReport
from matprng.arith import IntMatrix, IntPolynomial, PrimePowerModulus
from matprng.cli import Experiment, Table, load_experiment
from matprng.errors import DimensionMismatchError, NotInvertibleError
from matprng.fieldalg import Verdict
from matprng.generator import GeneratorConfig, PointSet
from matprng.padic import PeriodProfile, lift_roots

FIB = IntMatrix(((0, 1), (1, 1)))
FIB_POLY = IntPolynomial((-1, -1, 1))
M9 = PrimePowerModulus(3, 2)

# (class, field values in order, by name): every field the repr shows
PLAIN_RECORDS = [
    (SumReport, dict(n=4, value=1 + 2j, abs_value=2.5, normalized=0.5, rho=0.25,
                     method="direct", error_bound=1e-12)),
    (FullPeriodRow, dict(t=3, tau=24, abs_value=1.5, theta=0.125)),
    (FordBound, dict(r=2, d=2, m=3, k=8, delta_r=Fraction(1, 2000), exponent=Fraction(13, 1),
                     value=Decimal("1.5"), valid=False, c0=1000)),
    (KorobovBound, dict(k=2, r=2, m=3, q_max=9, n_count=Decimal(7), used_ford=False,
                        value_power=Decimal(10), value=Decimal(2))),
    (KSBound, dict(n=16, d=2, v_range=2, constant=2.25, sum_term=0.5, value=Decimal("0.75"),
                   n_vectors=24)),
    (RationalizationRow, dict(j=0, omega_j=1, q_j=9, lower=3, upper=6, within=True)),
    (ProofParameters, dict(n=3**8, p=3, t=8, d=2, w=3, s_star=2, rho=1.0, s=2, r=4, k=36,
                           lam=0, c0=1000, r_lt_s=False, ws_le_s=False, p4s_le_n=True,
                           n_ge_p8sqrt_t=False, large_r_branch=False, n0=1, rho0=0.0,
                           rationalization=())),
    (BoxCount, dict(bounds=((Fraction(0), Fraction(1, 2)),), count=3, volume=Fraction(1, 2))),
    (DiscrepancyReport, dict(n=8, d=1, kind="extreme", value=Fraction(1, 8), value_float=0.125,
                             extreme_upper_bound=None, boxes=(), ks_bound=None, ks_v=None)),
    (PointSet, dict(nums=((1,), (2,)), den=9, d=1)),
    (PeriodProfile, dict(p=3, taus=(8, 24, 72), tau_star=8, beta_star=1, s_star=2)),
    (Table, dict(header=("s", "tau_s"), rows=[(1, 8)], extras={"a": 1}, sidecar=None, dump=None)),
]


def _repr(name: str, fields: dict) -> str:
    return f"{name}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"


class TestPlainRecords:
    @pytest.mark.parametrize("cls, fields", PLAIN_RECORDS, ids=lambda x: getattr(x, "__name__", ""))
    def test_fields_keywords_and_repr(self, cls, fields):
        by_name = cls(**fields)
        assert by_name == cls(*fields.values())
        assert [getattr(by_name, k) for k in fields] == list(fields.values())
        assert repr(by_name) == _repr(cls.__name__, fields)

    @pytest.mark.parametrize("cls, fields", [r for r in PLAIN_RECORDS if r[0] is not Table],
                             ids=lambda x: getattr(x, "__name__", ""))
    def test_immutable(self, cls, fields):
        record = cls(**fields)
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])

    def test_defaults(self):
        report = DiscrepancyReport(8, 1, "star", Fraction(1, 8), 0.125)
        assert (report.extreme_upper_bound, report.boxes, report.ks_bound, report.ks_v) == (None, (), None, None)
        params = dict(dict(PLAIN_RECORDS)[ProofParameters])
        del params["rationalization"]
        assert ProofParameters(**params).rationalization == ()
        assert PointSet(((1,), (2,)), 9, 1).n == 2

    def test_table_defaults_are_fresh(self):
        first, second = Table(("n",), []), Table(("n",), [])
        assert first.extras == {} and first.extras is not second.extras
        first.extras["x"] = 1
        assert second.extras == {} and Table(("n",), []).extras == {}
        assert (first.sidecar, first.dump) == (None, None)

    def test_experiment_constants_are_fresh(self):
        first, second = Experiment(), Experiment()
        assert first.constants == second.constants
        assert first.constants is not second.constants
        first.constants["c0"] = 7
        assert Experiment().constants["c0"] == 1000 == second.constants["c0"]
        assert load_experiment({}).constants == Experiment().constants

    def test_experiment_defaults_and_equality(self):
        exp = Experiment()
        assert (exp.p, exp.level, exp.scalar, exp.count) == (None, "thm1", False, None)
        assert load_experiment({"p": "3", "t": 2}) == Experiment(p=3, t=2)
        assert load_experiment({"p": 3}) != Experiment(p=5)


class TestPrimePowerModulus:
    def test_value(self):
        m = PrimePowerModulus(3, 2)
        assert (m.p, m.t, m.modulus) == (3, 2, 9)
        assert PrimePowerModulus(p=3, t=2) == m == PrimePowerModulus(3, 2, 0)
        assert m != PrimePowerModulus(3, 3) and m != PrimePowerModulus(5, 2)
        assert hash(m) == hash(PrimePowerModulus(3, 2))
        assert len({m, PrimePowerModulus(3, 2), PrimePowerModulus(3, 3)}) == 2
        assert repr(m) == "PrimePowerModulus(p=3, t=2, modulus=9)"

    def test_immutable(self):
        m = PrimePowerModulus(3, 2)
        for name in ("p", "t", "modulus", "other"):
            with pytest.raises(AttributeError):
                setattr(m, name, 5)
        with pytest.raises(AttributeError):
            del m.p
        assert m.modulus == 9

    @pytest.mark.parametrize("p, t, message", [(4, 2, "p = 4 is not prime"), (3, 0, "t = 0 must be >= 1")])
    def test_validation(self, p, t, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PrimePowerModulus(p, t)


class TestIntMatrix:
    def test_value(self):
        assert IntMatrix(entries=((0, 1), (1, 1))) == FIB == IntMatrix.from_rows([[0, 1], [1, 1]])
        assert FIB != IntMatrix.identity(2)
        assert hash(FIB) == hash(IntMatrix.from_rows([["0", 1], [1, 1]]))
        assert repr(FIB) == "IntMatrix(entries=((0, 1), (1, 1)))"
        assert FIB.d == 2

    def test_immutable(self):
        with pytest.raises(AttributeError):
            FIB.entries = ((1,),)
        assert FIB.entries == ((0, 1), (1, 1))

    @pytest.mark.parametrize("entries", [(), ((1, 2),), ((1,), (2,))])
    def test_validation(self, entries):
        with pytest.raises(DimensionMismatchError, match="^matrix must be square and nonempty$"):
            IntMatrix(entries)


class TestPolynomials:
    def test_int_polynomial(self):
        f = IntPolynomial((1, 2, 0, 0))
        assert f.coeffs == (1, 2) and f == IntPolynomial(coeffs=[1, 2])
        assert hash(f) == hash(IntPolynomial((1, 2)))
        assert f != IntPolynomial((1, 3))
        assert repr(f) == "IntPolynomial(coeffs=(1, 2))"
        assert repr(IntPolynomial(())) == "IntPolynomial(coeffs=())"
        with pytest.raises(AttributeError):
            f.coeffs = (3,)

    def test_arithmetic_keeps_the_kind(self):
        f = IntPolynomial((1, 2))
        for value in (f * f, f * 3, f + f, f - f, -f, f.derivative()):
            assert type(value) is IntPolynomial


class TestVerdict:
    def test_value(self):
        ok = Verdict.ok()
        assert ok == Verdict("accepted", "accepted") == Verdict(outcome="accepted", reason="accepted", witness=None)
        assert hash(ok) == hash(Verdict("accepted", "accepted"))
        assert repr(ok) == "Verdict(outcome='accepted', reason='accepted', witness=None)"
        bad = Verdict.fail("degenerate", ("root", 1))
        assert bad != Verdict.fail("degenerate", ("root", 2))
        assert repr(bad) == "Verdict(outcome='rejected', reason='degenerate', witness=('root', 1))"
        with pytest.raises(AttributeError):
            ok.outcome = "rejected"

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^bad outcome 'maybe'$"):
            Verdict("maybe", "x")
        with pytest.raises(ValueError, match="^rejected verdicts must carry a witness$"):
            Verdict("rejected", "x")


class TestGeneratorConfig:
    def test_value(self):
        cfg = GeneratorConfig(FIB, M9, (10, 0), (1, 9))
        assert (cfg.u0, cfg.v, cfg.validated) == ((1, 0), (1, 0), None)
        assert cfg == GeneratorConfig(a=FIB, m=M9, u0=(1, 0), v=(1, 0), validated=None)
        assert hash(cfg) == hash(GeneratorConfig(FIB, M9, (1, 0), (1, 0)))
        assert cfg != GeneratorConfig(FIB, M9, (1, 0), (1, 0), Verdict.ok())
        assert repr(cfg) == (
            "GeneratorConfig(a=IntMatrix(entries=((0, 1), (1, 1))), "
            "m=PrimePowerModulus(p=3, t=2, modulus=9), u0=(1, 0), v=(1, 0), validated=None)"
        )

    def test_given_is_kept_but_not_compared(self):
        a, b = GeneratorConfig(FIB, M9, (10, 0)), GeneratorConfig(FIB, M9, (1, 0))
        assert a.given == ((10, 0), None) and b.given == ((1, 0), None)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "given" not in repr(a)
        assert a.at_exponent(3).u0 == (10, 0) and b.at_exponent(3).u0 == (1, 0)

    def test_immutable(self):
        cfg = GeneratorConfig(FIB, M9, (1, 0))
        for name in ("a", "m", "u0", "v", "validated", "given"):
            with pytest.raises(AttributeError):
                setattr(cfg, name, None)

    def test_validation(self):
        with pytest.raises(ValueError, match="^u0 length must match the matrix dimension$"):
            GeneratorConfig(FIB, M9, (1,))
        with pytest.raises(ValueError, match="^v length must match the matrix dimension$"):
            GeneratorConfig(FIB, M9, (1, 0), (1,))
        with pytest.raises(NotInvertibleError, match="^det A must be coprime to p$"):
            GeneratorConfig(IntMatrix(((3, 0), (0, 1))), M9, (1, 0))


class TestPadicTypes:
    def test_period_profile_validation(self):
        with pytest.raises(ValueError, match="^tau_star must be coprime to p$"):
            PeriodProfile(3, (8, 24), 24, 1, 2)
        with pytest.raises(ValueError, match=r"^tau_\{s\+1\}/tau_s must be 1 or p$"):
            PeriodProfile(3, (8, 16), 8, 1, 2)
        with pytest.raises(ValueError, match="^growth law violated at s = 2$"):
            PeriodProfile(3, (8, 24), 8, 2, 2)
        with pytest.raises(ValueError, match="^growth law violated at s = 3$"):
            PeriodProfile(3, (8, 24, 24), 8, 1, 1)
        profile = PeriodProfile(3, (8, 8, 24), 8, 2, 2)
        assert profile == PeriodProfile(3, (8, 8, 24), 8, 2, 2)
        assert hash(profile) == hash(PeriodProfile(3, (8, 8, 24), 8, 2, 2))
        assert (profile.s_max, profile.tau(5)) == (3, 8 * 27)

    def test_root_set(self):
        # the roots of f mod p^s are a tuple of matrices, the first C itself
        roots = lift_roots(FIB_POLY, 3, 3)
        assert roots == lift_roots(FIB_POLY, 3, 3)
        assert hash(roots) == hash(lift_roots(FIB_POLY, 3, 3))
        assert type(roots) is tuple and all(type(root) is IntMatrix for root in roots)
        assert len(roots) == 2 and roots[0] == FIB


@pytest.mark.parametrize("make", [
    lambda: PrimePowerModulus(3, 2),
    lambda: FIB,
    lambda: IntPolynomial((6, 2)),
    lambda: Verdict.fail("degenerate", {"kind": "root", "n": 1}),
    lambda: GeneratorConfig(FIB, M9, (10, 0), (1, 9), Verdict.ok()),
    lambda: lift_roots(FIB_POLY, 3, 3),
    lambda: PeriodProfile(3, (8, 8, 24), 8, 2, 2),
], ids=["modulus", "matrix", "polynomial", "verdict", "generator", "roots", "profile"])
def test_copy_and_pickle_keep_the_value(make):
    value = make()
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is type(value) and repr(other) == repr(value)
        assert other == value
    if isinstance(value, GeneratorConfig):
        assert pickle.loads(pickle.dumps(value)).given == ((10, 0), (1, 9))
