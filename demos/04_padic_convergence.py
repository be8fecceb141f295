"""
Watching the alternating sums converge p-adically
=================================================

S_N = sum_{x < p^N} (-1)^x f(x) approaches I(f) in the p-adic metric:
the valuation of the error grows at least linearly in N.  Each S_N is
an exact rational, (I(f) + I(f(x+p^N)))/2 by the shift equation, with
both integrals read off values of f rather than the Euler table, so the
reported valuations are exact too.  The limit I(f) does read the table,
so each gap compares two independent routes.
"""

from fractions import Fraction

from fermibern import (
    Poly,
    convergence_trace,
    integrate,
    partial_sum,
    q_partial_sum,
    reduce_mod,
)

p = 3
f = Poly.monomial(3)

print(f"partial sums of I(x^3) at p = {p}")
print("=" * 45)
print(f"limit value: E_3 = {integrate(f)}")

trace = convergence_trace(f, p, 5)
print(f"\n{'N':>3} {'terms':>8} {'S_N':>12} {'vp(S_N - E_3)':>15}")
for N, s_n, gap in trace.rows:
    print(f"{N:>3} {p**N:>8} {str(s_n):>12} {str(gap):>15}")
print("\nthe gap column never drops below N: that is the convergence bound")

# the same trace serializes to CSV for plotting elsewhere
print("\nCSV form of the first rows:")
print(convergence_trace(f, p, 2).to_csv())

# a constant is its own limit, so every gap is infinite
print("trace of f = 1 at p = 5:",
      [gap for _, _, gap in convergence_trace(Poly.one(), 5, 3).rows])

# the weighted variant replaces (-1)^x by (-q)^x and renormalizes;
# residues are reported modulo p^M
print("\nweighted sums, f = x, p = 3, q = 4 = 1 + p:")
for N in (1, 2, 3):
    print(f"  N = {N}:", q_partial_sum(Poly.x(), 3, 4, N, 3))

print("\nweighted route at q = 1 vs plain route, f = x^2, p = 5, N = 3:")
a = q_partial_sum(Poly.monomial(2), 5, 1, 3, 3)
b = reduce_mod(partial_sum(Poly.monomial(2), 5, 3), 5, 3)
print(f"  {a}  ==  {b}")

# a rational weight is fine as long as q - 1 is divisible by p
q = 1 + Fraction(3, 4)
print(f"\nrational weight q = {q}:", q_partial_sum(Poly.x(), 3, q, 2, 2))

bound_holds = all(gap >= N for N, _, gap in convergence_trace(f, p, 5).rows)
print("\nvaluation bound vp(S_N - limit) >= N:", "PASS" if bound_holds else "FAIL")
print("q = 1 route agrees with plain route:", "PASS" if a == b else "FAIL")
