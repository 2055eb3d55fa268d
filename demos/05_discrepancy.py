"""Exact discrepancy of the stream's fractional points u_n / p^t in [0,1)^2,
next to the frequency-sum bound that controls it.

The exact value is a rational number: the supremum over boxes with faces on
point coordinates is found by bound-and-prune over blocks of x-ranges, with
exact leaves (one x-range, scored over every y-interval).
"""

from matprng import GeneratorConfig, IntMatrix, PrimePowerModulus
from matprng.analysis import discrepancy_envelope, exact_discrepancy, koksma_szusz_bound
from matprng.generator import fractional_points

fib = IntMatrix.from_rows([[0, 1], [1, 1]])

print("full-period point sets for p = 3:")
print(f"  {'t':>2s} {'N':>4s} {'exact D':>14s} {'float':>9s} {'freq bound':>11s} {'envelope':>9s}")
for t in (3, 4, 5):
    cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, t), (1, 0), (1, 0), level="thm1")
    tau = 8 * 3 ** (t - 1)
    pts = fractional_points(cfg, tau)
    rep = exact_discrepancy(pts)
    ks = koksma_szusz_bound(cfg, tau, 8)
    env = discrepancy_envelope(tau, 3, t, 2)
    frac = f"{rep.value.numerator}/{rep.value.denominator}"
    print(f"  {t:2d} {tau:4d} {frac:>14s} {float(rep.value):9.5f} {float(ks.value):11.5f} {float(env):9.5f}")

print("\nshort segments are worse distributed (t = 4):")
cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (1, 0), (1, 0), level="thm1")
for n in (24, 72, 216):
    rep = exact_discrepancy(fractional_points(cfg, n))
    print(f"  N = {n:4d}: D = {float(rep.value):.5f}")

print("\nbox diagnostics (counts vs volume for chosen boxes):")
from fractions import Fraction

rep = exact_discrepancy(
    fractional_points(cfg, 216),
    boxes=[
        [[Fraction(0), Fraction(1, 2)], [Fraction(0), Fraction(1, 2)]],
        [[Fraction(1, 3), Fraction(2, 3)], [Fraction(0), Fraction(1)]],
    ],
)
for bc in rep.boxes:
    lo_hi = " x ".join(f"[{lo},{hi}]" for lo, hi in bc.bounds)
    print(f"  {lo_hi}: {bc.count}/216 points, volume {bc.volume} -> gap {abs(Fraction(bc.count,216)-bc.volume)}")
