"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities.  Tolerances are pinned here; exact congruences carry
zero tolerance.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import random
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from matprng.arith import (
    IntMatrix,
    PrimePowerModulus,
    char_poly,
    det_exact,
    mat_pow,
    mat_vec,
    valuation,
    vec_dot,
)
from matprng.fieldalg import is_proper_pair
from matprng.generator import GeneratorConfig, fractional_points
from matprng.padic import (
    H_coeffs,
    compute_w,
    h_coeffs,
    order_mod,
    period_profile,
    theta_matrix,
)
from matprng.analysis import (
    exact_discrepancy,
    exp_sum,
    koksma_szusz_bound,
    korobov_reduction_residual,
    vinogradov_count,
    vinogradov_count_naive,
)
from matprng.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "fib_p3_golden.json").read_text())

FIB = IntMatrix.from_rows([[0, 1], [1, 1]])
M2 = IntMatrix.from_rows([[1, 2], [1, 1]])
M3 = IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 1, 0]])


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_period_growth_law():
    start = time.monotonic()
    prof3 = period_profile(FIB, 3, 8)
    assert prof3.taus == tuple(8 * 3 ** (s - 1) for s in range(1, 9))
    prof7 = period_profile(FIB, 7, 2)
    assert prof7.taus == (16, 112)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"tau_s = 8*3^(s-1) for s=1..8 and (16, 112) at p=7 in {elapsed:.2f}s")


def test_criterion_2_expansion_congruence():
    p, t = 3, 6
    m = PrimePowerModulus(p, t)
    mod = m.modulus
    det = det_exact(FIB)
    rng = random.Random(2024)
    checked = 0
    for s in (1, 2):
        tau_s = order_mod(FIB, PrimePowerModulus(p, s))
        b = theta_matrix(FIB, p, s, tau_s)
        for _ in range(50):
            n = rng.randrange(0, 101)
            mm = rng.randrange(0, 51)
            h = h_coeffs(FIB, (1, 0), (1, 0), b, n, mm)
            lhs = det * vec_dot((1, 0), mat_vec(mat_pow(FIB, n + tau_s * mm), (1, 0)))
            rhs = sum(h[j] * p ** (s * j) * comb(mm, j) for j in range(mm + 1))
            assert (lhs - rhs) % mod == 0, (s, n, mm)
            checked += 1
    report(2, f"binomial expansion congruence exact on {checked} random (n, m) pairs, s in {{1,2}}")


def test_criterion_3_monomial_congruence():
    p, t = 3, 6
    mod = p**t
    det = det_exact(FIB)
    rng = random.Random(31337)
    checked = 0
    for s in (2, 3):
        r = t // s
        assert r <= p**s
        tau_s = order_mod(FIB, PrimePowerModulus(p, s))
        b = theta_matrix(FIB, p, s, tau_s)
        for _ in range(50):
            n = rng.randrange(0, 101)
            mm = rng.randrange(0, 51)
            h = h_coeffs(FIB, (1, 0), (1, 0), b, n, r)
            big = H_coeffs(h, r, s, p)
            lhs = factorial(r) * det * vec_dot(
                (1, 0), mat_vec(mat_pow(FIB, n + tau_s * mm), (1, 0))
            )
            rhs = sum(big[j] * p ** (s * j) * mm**j for j in range(r + 1))
            assert (lhs - rhs) % mod == 0, (s, n, mm)
            checked += 1
    report(3, f"monomial congruence exact on {checked} random (n, m) pairs with r = t/s <= p^s")


def test_criterion_4_window_divisibility():
    cases = [(FIB, 3, 6, 7), (M2, 5, 6, 7), (M3, 2, 8, 6)]  # matrix, p, t, pairs
    rng = random.Random(4)
    total_pairs = 0
    violations = 0
    for a, p, t, n_pairs in cases:
        d = a.d
        w = compute_w(char_poly(a), p)
        prof = period_profile(a, p, 3)
        s = max(prof.s_star, w)
        tau_s = order_mod(a, PrimePowerModulus(p, s))
        b = theta_matrix(a, p, s, tau_s)
        mod = p**t
        for _ in range(n_pairs):
            while True:
                u = tuple(rng.randrange(mod) for _ in range(d))
                v = tuple(rng.randrange(mod) for _ in range(d))
                if is_proper_pair(a, u, v, p):
                    break
            total_pairs += 1
            n = rng.randrange(0, 40)
            h = h_coeffs(a, u, v, b, n, 30)
            for j in range(0, 31 - d):
                window = [valuation(x, p) for x in h[j : j + d]]
                if min(window) >= w:
                    violations += 1
    assert total_pairs == 20
    assert violations == 0
    report(4, f"h-window minimum valuation below w on {total_pairs} proper pairs, j <= 30, 0 violations")


def test_criterion_5_vinogradov_counts():
    start = time.monotonic()
    checked = 0
    for k in (1, 2, 3):
        for r in (1, 2, 3):
            for m in range(1, 9):
                fast = vinogradov_count(k, r, m)
                naive = vinogradov_count_naive(k, r, m)
                assert fast == naive, (k, r, m)
                assert fast >= m**k
                checked += 1
    assert vinogradov_count(1, 1, 2) == 2
    assert vinogradov_count(2, 1, 2) == 6
    assert vinogradov_count(2, 2, 2) == 6
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(5, f"two independent counters agree on {checked} instances (k<=3, r<=3, M<=8) in {elapsed:.2f}s")


def test_criterion_6_inequality_sanity():
    rng = random.Random(6)
    for i in range(1000):
        n = rng.randrange(5, 60)
        m = rng.randrange(1, 5)
        a = rng.randrange(0, 4)
        mod = rng.choice([16, 27, 81, 125, 243])
        residues = [rng.randrange(mod) for _ in range(n + a * m * m)]
        residual = korobov_reduction_residual(residues, mod, n, m, a)
        assert residual >= 0, (i, n, m, a)
    pairs_checked = 0
    for t in (3, 4):
        cfg = GeneratorConfig.create(FIB, PrimePowerModulus(3, t), (1, 0), (1, 0), level="thm1")
        for n in (72, 216):
            pts = fractional_points(cfg, n)
            exact = exact_discrepancy(pts)
            for v_range in (4, 8):
                ks = koksma_szusz_bound(cfg, n, v_range)
                assert float(exact.value) <= float(ks.value), (t, n, v_range)
                pairs_checked += 1
    report(6, f"reduction residual >= 0 on 1000 seeded instances; exact D <= frequency bound on {pairs_checked} configs")


def test_criterion_7_full_period_trend():
    thetas = {}
    for t in range(4, 9):
        cfg = GeneratorConfig.create(FIB, PrimePowerModulus(3, t), (1, 0), (1, 0), level="thm1")
        tau = 8 * 3 ** (t - 1)
        rep = exp_sum(cfg, tau)
        theta = math.log(rep.abs_value) / math.log(tau)
        assert theta <= 0.5 + 0.2, (t, theta)
        thetas[t] = theta
        golden_row = next(r for r in GOLDEN["full_period"] if r["t"] == t)
        assert rep.abs_value == pytest.approx(golden_row["abs_S"], abs=1e-9 * tau)
    disc_thetas = {}
    for t in (4, 5):
        cfg = GeneratorConfig.create(FIB, PrimePowerModulus(3, t), (1, 0))
        tau = 8 * 3 ** (t - 1)
        rep = exact_discrepancy(fractional_points(cfg, tau))
        theta = math.log(float(rep.value)) / math.log(tau)
        assert theta <= -0.5 + 0.2, (t, theta)
        disc_thetas[t] = theta
        golden_row = next(r for r in GOLDEN["discrepancy"] if r["t"] == t)
        num, den = golden_row["exact"].split("/")
        assert rep.value == Fraction(int(num), int(den))
    report(
        7,
        "theta_t <= 0.7 for t=4..8 (max %.3f); log D / log tau <= -0.3 for t=4,5 (max %.3f); golden archive matches"
        % (max(thetas.values()), max(disc_thetas.values())),
    )


def test_criterion_8_envelope_overlay(tmp_path):
    doc = {
        "p": "3", "t": 4,
        "matrix": [["0", "1"], ["1", "1"]],
        "u0": ["1", "0"], "v": ["1", "0"],
        "level": "thm1",
        "N_schedule": ["24", "72", "216"],
        "V": 4, "s_max": 5,
    }
    cfg_path = tmp_path / "overlay.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "bounds.json"
    code = main(["bounds", "--config", str(cfg_path), "--format", "json", "--out", str(out)])
    assert code == 0
    rendered = json.loads(out.read_text())
    rows = {int(r["N"]): r for r in rendered["rows"]}
    assert all(float(r["S_over_N"]) <= 1.0 + 1e-12 for r in rendered["rows"])
    full = float(rows[216]["S_over_N"])
    ninth = float(rows[24]["S_over_N"])
    assert full < ninth  # sharper at the full period than at tau_t / 9
    assert full == pytest.approx(GOLDEN["overlay_t4"]["S_over_N_full"], abs=1e-9)
    assert ninth == pytest.approx(GOLDEN["overlay_t4"]["S_over_N_ninth"], abs=1e-9)
    report(8, f"overlay renders; |S|/N <= 1; |S(216)|/216 = {full:.4f} < |S(24)|/24 = {ninth:.4f}")


def test_criterion_9_cli_determinism(tmp_path):
    doc = {
        "p": "3", "t": 4,
        "matrix": [["0", "1"], ["1", "1"]],
        "u0": ["1", "0"], "v": ["1", "0"],
        "level": "thm1",
        "N_schedule": ["24", "216"],
        "V": 4, "s_max": 5, "count": 16,
        "vmvt": [[1, 1, 2], [2, 2, 2]],
    }
    commands = ["validate", "period", "gen", "expsum", "discrepancy", "vmvt", "bounds", "report"]
    checked = 0
    for command in commands:
        outputs = []
        for tag, threads in (("a", 1), ("b", 1), ("c", 4)):
            base = tmp_path / f"{command}_{tag}"
            cfg_doc = dict(doc, binary_out=str(base) + ".bin") if command == "gen" else doc
            cfg_path = tmp_path / f"cfg_{command}_{tag}.json"
            cfg_path.write_text(json.dumps(cfg_doc))
            code = main(
                [command, "--config", str(cfg_path), "--out", str(base) + ".out",
                 "--threads", str(threads), "--seed", "0"]
            )
            assert code == 0
            blob = b"".join(
                path.read_bytes()
                for path in sorted(tmp_path.glob(f"{command}_{tag}*"))
            )
            outputs.append(blob)
        assert outputs[0] == outputs[1] == outputs[2], command
        checked += 1
    report(9, f"{checked} commands byte-identical across reruns and threads 1 vs 4")
