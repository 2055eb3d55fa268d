"""Differential tests with mpmath as the oracle: `reports.dec30` and the
bound formulas run on the standard library, and must give the strings and
values the mpmath implementations they replaced gave."""

import math
import random
import struct
from decimal import Decimal
from fractions import Fraction

import pytest

from matprng.analysis.bounds import (
    discrepancy_envelope,
    ford_bound,
    ford_k,
    koksma_szusz_bound,
    korobov_bound,
    theorem_envelope,
)
from matprng.analysis.vinogradov import vinogradov_count
from matprng.arith import IntMatrix, PrimePowerModulus
from matprng.generator import GeneratorConfig
from matprng.reports import dec30

mp = pytest.importorskip("mpmath")

FIB = IntMatrix.from_rows([[0, 1], [1, 1]])
DPS = 40  # the working precision of the mpmath implementations


def mp_dec30(x) -> str:
    """The mpmath rendering of a float or a Fraction."""
    with mp.workdps(DPS):
        if isinstance(x, Fraction):
            return mp.nstr(mp.mpf(x.numerator) / mp.mpf(x.denominator), 30)
        return mp.nstr(mp.mpf(x), 30)


def exact_digits(x: float) -> str:
    return "".join(map(str, Decimal(x).as_tuple().digits))


def random_doubles(rng: random.Random, count: int) -> list[float]:
    """`count` doubles from random bit patterns: every exponent, subnormals,
    infinities and NaNs included."""
    return [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0] for _ in range(count)]


def assert_dec30_matches(values) -> None:
    mismatches = [(x, dec30(x), mp_dec30(x)) for x in values if dec30(x) != mp_dec30(x)]
    assert mismatches == []


# --- dec30 ---------------------------------------------------------------------


def test_every_value_the_goldens_render(monkeypatch, tmp_path):
    import matprng.reports as reports
    from test_cli import GOLDEN_RUNS, cli_artifacts

    seen = []
    render = reports.dec30

    def spy(x):
        seen.append(x)
        return render(x)

    monkeypatch.setattr(reports, "dec30", spy)
    for i, (_, doc, command, fmt) in enumerate(GOLDEN_RUNS):
        run_dir = tmp_path / str(i)
        run_dir.mkdir()
        cli_artifacts(run_dir, doc, command, fmt)
    floats = [x for x in seen if isinstance(x, float)]
    fractions = [x for x in seen if isinstance(x, Fraction)]
    assert floats and fractions
    assert_dec30_matches(floats + fractions)


@pytest.mark.parametrize("x", [
    0.0, -0.0, math.inf, -math.inf, math.nan,  # NaN: a full-period row with tau_t = 1
    5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
    1e-5, 9.999999999999999e-6, 1e-6, 1.0000000000000002e-6, 1e-9, 9.99999999999e-10, 1e-10,
    1e29, 9.999999999999999e29, 1e30, 1.0000000000000001e30, 1.0, -1.0, 0.1, -2 / 3, 123456.789,
])
def test_special_and_layout_threshold_floats(x):
    assert dec30(x) == mp_dec30(x)


def test_tie_prone_floats():
    # digits 31-33 of the exact value are 499 or 500, a carry through 999
    # into digit 27, and exact ties m / 2^21 whose expansion stops at a 5 in
    # digit 31
    rng = random.Random(1)
    ties, carries = [], []
    for _ in range(200_000):
        x = math.ldexp(rng.getrandbits(53), rng.randint(-120, 40))
        digits = exact_digits(x)
        if digits[30:33] in ("499", "500"):
            ties.append(x)
        if digits[27:30] == "999" and digits[30] >= "5":
            carries.append(x)
        if len(ties) >= 100 and len(carries) >= 5:
            break
    exact = [m / 2**21 for m in range(2**52 + 1, 2**52 + 41, 2)]
    assert all(len(exact_digits(x)) == 31 for x in exact)
    assert_dec30_matches(ties + carries + exact)
    # the carry clears the 999: at most 27 significant digits remain
    assert all(len(dec30(x).split("e")[0].replace(".", "").strip("0")) <= 27 for x in carries)


def test_random_bit_patterns():
    assert_dec30_matches(random_doubles(random.Random(0), 100_000))


def test_random_and_tie_prone_fractions():
    rng = random.Random(2)
    values = [Fraction(0), Fraction(1, 2), Fraction(-7, 3), Fraction(2**4000, 3), Fraction(-1, 3**3000)]
    for _ in range(10_000):
        num = rng.getrandbits(rng.randint(1, 300)) * rng.choice((1, -1))
        values.append(Fraction(num, rng.getrandbits(rng.randint(1, 300)) + 1))
    # T is a 41-digit integer of 137 bits whose digits 31-41 are 50000000000:
    # exactly the rounding threshold of the 30th digit.  T - 1 is a binary tie
    # at 136 bits that rounds to even, up to T; T - 100 is exact at 136 bits
    # and would round to T at 128.  10^31 - 5 carries through thirty 9s.
    big = 10**40 * 9 + 5 * 10**10
    assert big.bit_length() == 137
    values += [Fraction(big + e) for e in (-100, -1, 0, 1)] + [Fraction(10**31 - 5), Fraction(5 - 10**31)]
    # 30 significant digits followed by 5, 499 or 500: a tie after 136-bit rounding
    for tail in ("5", "499", "500", "4999999", "5000001"):
        for head in ("1234567890123456789012345678", "9" * 29, "1" + "0" * 28):
            for last in "09":
                digits = head + last + tail
                values.append(Fraction(int(digits), 10 ** (len(digits) - 3)))
    assert_dec30_matches(values)


# --- the bound formulas ----------------------------------------------------------
# each oracle is the mpmath formula the module evaluated before


def mp_ford(r, d, m):
    k = ford_k(r, d)
    exponent = Fraction(2 * k) - Fraction(r * (r + 1), 2) + Fraction(1, 1000 * d) * r * r
    with mp.workdps(DPS):
        e = mp.mpf(exponent.numerator) / mp.mpf(exponent.denominator)
        return mp.power(mp.mpf(r), 3 * r**3) * mp.power(mp.mpf(m), e)


def mp_korobov(q, m, k, r, n_val):
    with mp.workdps(DPS):
        prod = mp.mpf(1)
        for ell, ql in enumerate(q, start=1):
            m_ell = mp.power(mp.mpf(m), ell)
            root = mp.sqrt(mp.mpf(ql))
            prod *= min(m_ell, root + m_ell / root)
        value_power = (
            mp.power(64 * k * k * mp.log(3 * max(q)), mp.mpf(r) / 2)
            * mp.power(mp.mpf(m), 4 * k * k - 2 * k) * n_val * prod
        )
        return value_power, mp.power(value_power, mp.mpf(1) / (2 * k * k))


def mp_envelope(n, p, t, d, eta, c, d_power, discrepancy):
    with mp.workdps(DPS):
        if n == 1:
            return mp.mpf(c)
        rho = mp.log(n) / (t * mp.log(p))
        shape = mp.mpf(eta) * rho * rho / (mp.mpf(d) ** d_power * mp.log(d) ** 2)
        if discrepancy:
            return mp.mpf(c) * mp.power(n, -shape) * mp.power(mp.log(n), d)
        return mp.mpf(c) * mp.power(n, 1 - shape)


def mp_ks(constant, sum_term, v_range, n):
    with mp.workdps(DPS):
        return mp.mpf(constant) * (mp.mpf(2) / (v_range + 1) + mp.mpf(sum_term) / n)


def assert_close(value: Decimal, oracle) -> None:
    """Within 1e-35 relative of the 40-digit oracle, and the same 30 digits."""
    assert isinstance(value, Decimal)
    with mp.workdps(DPS):
        assert abs(mp.mpf(str(value)) / oracle - 1) <= mp.mpf("1e-35"), (value, oracle)
        assert dec30(value) == mp.nstr(oracle, 30)


@pytest.mark.parametrize("r", range(1, 11))
@pytest.mark.parametrize("d", [2, 3, 5])
def test_ford_bound(r, d):
    for m in (1, 2, 3, 9, 100):
        fb = ford_bound(r, d, m, c0=1)
        assert_close(fb.value, mp_ford(r, d, m))
        assert fb.valid == (r >= d)


def test_ford_bound_past_10_to_the_1100():
    # beyond 2^3500 mpmath prints through an approximate power of ten
    fb = ford_bound(8, 2, 9)
    assert fb.value > Decimal(10) ** 1100
    assert_close(fb.value, mp_ford(8, 2, 9))
    assert dec30(fb.value) == "3.02719544911426057079866574851e+1860"


@pytest.mark.parametrize("k, r, m", [(1, 1, 2), (2, 1, 3), (2, 2, 3), (3, 2, 4), (2, 3, 5), (4, 3, 9)])
def test_korobov_bound(k, r, m):
    rng = random.Random(k * 100 + r * 10 + m)
    for _ in range(5):
        q = [rng.choice((1, 2, 9, rng.randint(1, 10**9))) for _ in range(r)]
        count = vinogradov_count(k, r, m)
        kb = korobov_bound(q, m, k, r, n_count=count)
        with mp.workdps(DPS):
            value_power, value = mp_korobov(q, m, k, r, mp.mpf(count))
        assert_close(kb.value_power, value_power)
        assert_close(kb.value, value)
    kb = korobov_bound([9] * r, m, k, r, d=2)
    value_power, value = mp_korobov([9] * r, m, k, r, mp_ford(r, 2, m))
    assert_close(kb.n_count, mp_ford(r, 2, m))
    assert_close(kb.value_power, value_power)
    assert_close(kb.value, value)


def test_envelopes_on_a_random_grid():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.choice((1, 2, rng.randint(1, 10**7)))
        p, t, d = rng.choice((2, 3, 5, 101, 317)), rng.randint(1, 60), rng.randint(2, 6)
        eta, c, d_power = rng.uniform(0, 3), rng.choice((1.0, rng.uniform(0, 10))), rng.randint(1, 5)
        assert_close(theorem_envelope(n, p, t, d, eta, c, d_power),
                     mp_envelope(n, p, t, d, eta, c, d_power, discrepancy=False))
        assert_close(discrepancy_envelope(n, p, t, d, eta, c, d_power),
                     mp_envelope(n, p, t, d, eta, c, d_power, discrepancy=True))


@pytest.mark.parametrize("t", [3, 4, 5])
def test_ks_bound_and_exact_le_bound(t):
    from matprng.analysis.discrepancy import full_discrepancy_report

    cfg = GeneratorConfig.create(FIB, PrimePowerModulus(3, t), (1, 0), (1, 0))
    for n in (24, 72, 216):
        for v_range in (1, 8):
            ks = koksma_szusz_bound(cfg, n, v_range)
            oracle = mp_ks(ks.constant, ks.sum_term, v_range, n)
            assert_close(ks.value, oracle)
            # the discrepancy table's ks_bound, and with it exact_le_bound
            rep = full_discrepancy_report(cfg, n, v_range)
            assert rep.ks_bound == float(ks.value) == float(oracle)
