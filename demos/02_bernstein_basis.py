"""
The Bernstein basis over exact rationals
========================================
"""

from fractions import Fraction

from fermibern import bernstein_eval, bernstein_operator, bernstein_poly, Poly

print("Bernstein basis polynomials B_{k,n}")
print("=" * 45)

n = 4
print(f"\ndegree {n} basis, coefficients lowest first:")
for k in range(n + 1):
    print(f"  B_{{{k},{n}}}: {bernstein_poly(k, n).to_coeff_string()}")

# the basis sums to the constant 1 (expand and watch everything cancel)
total = Poly.zero()
for k in range(n + 1):
    total = total + bernstein_poly(k, n)
print("\nsum of the degree-4 basis:", total.to_coeff_string())

# index past the degree: identically zero, by convention
print("B_{6,4} is the zero polynomial:", bernstein_poly(6, 4).is_zero())

# mirror symmetry k -> n-k, x -> 1-x
print("\nB_{1,4}(1-x) == B_{3,4}(x)?",
      bernstein_poly(1, 4).reflected() == bernstein_poly(3, 4))

# pointwise evaluation without expanding
x = Fraction(1, 3)
print(f"\nvalues at x = {x}:")
for k in range(n + 1):
    print(f"  B_{{{k},{n}}}({x}) = {bernstein_eval(k, n, x)}")
print("they sum to", sum(bernstein_eval(k, n, x) for k in range(n + 1)))

# the operator takes n+1 samples f(k/n) and blends them; constants and
# straight lines come back exactly, while a quadratic only comes back
# approximately (5/16 here against the true 1/4; the gap shrinks as n grows)
samples = [Fraction(k, n) ** 2 for k in range(n + 1)]
print("\noperator on samples of f(t) = t^2 at x = 1/2:",
      bernstein_operator(samples, n, Fraction(1, 2)),
      "(the exact square is 1/4; the operator smooths it)")

line = [3 * Fraction(k, n) - 1 for k in range(n + 1)]
got = bernstein_operator(line, n, Fraction(2, 7))
print("operator on samples of f(t) = 3t - 1 at x = 2/7:",
      got, "==", 3 * Fraction(2, 7) - 1)

checks = [
    total == Poly.one(),
    got == 3 * Fraction(2, 7) - 1,
    all(bernstein_poly(k, 12) == bernstein_poly(12 - k, 12).reflected()
        for k in range(13)),
]
print("\nbasis sanity:", "PASS" if all(checks) else "FAIL")
