"""Generate matrix congruential streams and inspect how the period grows
with the modulus exponent.

The generator iterates u_{n+1} = A u_n (mod p^t) over integer vectors, and a
segment of the stream can start at any index n0.  With the Fibonacci
companion matrix the first coordinate walks the Fibonacci numbers, so the
period modulo 3^s is the classical Pisano period.
"""

from matprng import GeneratorConfig, IntMatrix, PrimePowerModulus, vector_sequence
from matprng.arith import mat_vec_mod
from matprng.padic import period_profile
from matprng.stream import mat_stream

fib = IntMatrix.from_rows([[0, 1], [1, 1]])
cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (0, 1), (1, 0))

print("first coordinates of the stream mod 81:")
print(" ", vector_sequence(cfg, 0, 12)[:, 0].tolist())

print("\nscalar sequence v A^n u (same thing through the dot product):")
print(" ", mat_stream(cfg.a, cfg.u0, cfg.m, 12, 0, cfg.v).tolist())

print("\na segment from index 1000 starts at A^1000 u0 (one matrix power),")
print("the same vector as 1000 steps:")
stepped = cfg.u0
for _ in range(1000):
    stepped = mat_vec_mod(fib, stepped, cfg.m)
(jumped,) = vector_sequence(cfg, 1000, 1).tolist()
print("  u_1000 =", jumped, " vectors equal:", jumped == list(stepped))

print("\nperiod growth for p = 3 (tau_s = order of A mod 3^s):")
profile = period_profile(fib, 3, 8)
for s, tau in enumerate(profile.taus, start=1):
    print(f"  s = {s}:  tau_s = {tau}")
print(
    "stable law: tau_s = {} * 3^(s - {}) from s = {} on".format(
        profile.tau_star, profile.beta_star, profile.s_star
    )
)

print("\nsame matrix, p = 7:")
print(" ", period_profile(fib, 7, 3).taus)
