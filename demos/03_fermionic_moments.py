"""
The alternating integral and its Euler moments
==============================================

I(f) is the p-adic limit of alternating sums sum_{x<p^N} (-1)^x f(x).
For polynomials it is computed symbolically: the n-th monomial moment is
the Euler number E_n, so I extends linearly from there.
"""

from fermibern import (
    Poly,
    ProductSpec,
    euler_number,
    integrate,
    integrate_reflected,
    integrate_shifted,
    oracle_integral,
)

print("moments of the alternating integral")
print("=" * 45)

print("\nI(x^n) == E_n:")
for n in range(7):
    print(f"  n = {n}: {integrate(Poly.monomial(n))}")

f = Poly([1, -2, 0, 3])
print("\nlinearity on f = 1 - 2x + 3x^3:")
print("  I(f) =", integrate(f))
print("  1 - 2 E_1 + 3 E_3 =",
      1 - 2 * euler_number(1) + 3 * euler_number(3))

# shifting the argument: I(f(x+n)) has a finite correction term; the
# library evaluates it both ways and insists they agree
print("\nshifted arguments:")
print("  I(f(x+1)) =", integrate_shifted(f, 1))
print("  I(f(x+3)) =", integrate_shifted(f, 3))

# reflected argument (1-x)^n integrates to 2 + E_n
print("\nI((1-x)^n) == 2 + E_n:")
for n in (1, 2, 5):
    print(f"  n = {n}: {integrate_reflected(n)} == {2 + euler_number(n)}")

# the oracle every catalog identity is judged against integrates a product
# of Bernstein basis polynomials from its values at 0..T: by the shift
# equation I(f(x+1)) + I(f) = 2 f(0) it needs no Euler number
spec = ProductSpec(((1, 2, 2),))
print("\noracle on B_{1,2}^2:", oracle_integral(spec))
spec = ProductSpec(((1, 2, 1), (1, 3, 1)))
print("oracle on B_{1,2} B_{1,3}:", oracle_integral(spec))

ok = all(integrate(Poly.monomial(n)) == euler_number(n) for n in range(25))
print("\nmoment table n = 0..24:", "PASS" if ok else "FAIL")
