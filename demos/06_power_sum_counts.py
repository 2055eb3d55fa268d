"""Exact counts for the symmetric power-sum system and the explicit bound
formulas built on them.

N_{k,r}(M) counts solutions of sum x_i^j = sum y_i^j (j = 1..r) with
1 <= x_i, y_i <= M; the diagonal x = y always contributes M^k.  The bound
values are `decimal.Decimal`s, printed with a format spec.
"""

from matprng.analysis import ford_bound, korobov_bound, vinogradov_count, vinogradov_count_naive

print("exact counts (multisets vs independent brute force):")
print(f"  {'k':>2s} {'r':>2s} {'M':>2s} {'count':>8s} {'naive':>8s} {'M^k':>6s}")
for k, r, m in [(1, 1, 2), (2, 1, 2), (2, 2, 2), (2, 2, 6), (3, 2, 4), (3, 3, 5)]:
    fast = vinogradov_count(k, r, m)
    naive = vinogradov_count_naive(k, r, m)
    print(f"  {k:2d} {r:2d} {m:2d} {fast:8d} {naive:8d} {m**k:6d}")

print("\nthe count bound (worst-case delta_r = 1/(1000 d)):")
print(f"  {'r':>3s} {'d':>2s} {'k':>5s} {'exponent':>10s} {'value at M=9':>24s} {'valid(r>=c0*d)':>15s}")
for r, d in [(2, 2), (4, 2), (8, 2), (2000, 2)]:
    fb = ford_bound(r, d, 9)
    print(
        f"  {r:3d} {d:2d} {fb.k:5d} {float(fb.exponent):10.3f} "
        f"{fb.value:>24.8g} {str(fb.valid):>15s}"
    )

print("\ndouble-sum bound fed by an exact count (k=2, r=2, M=9):")
count = vinogradov_count(2, 2, 9)
kb = korobov_bound([729, 6561], 9, 2, 2, n_count=count)
print(f"  N_2,2(9) = {count}")
print(f"  bound on |S|^(2k^2): {kb.value_power:.8g}")
print(f"  bound on |S| (2k^2-th root): {kb.value:.8g}  vs trivial M^2 = 81")
