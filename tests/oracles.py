"""Independent reference computations for the tests.

Nothing here touches the production code paths: Euler numbers come from
term-by-term inversion of the exponential series of (e^t + 1)/2, modular
inverses from the extended Euclidean algorithm, partial sums from a
direct Fraction loop.  Agreement between these and the package is the
point of most tests.  The package gets S_N from the shift equation, so
`alternating_sum` is the only plain O(p^N) route to it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def euler_numbers_by_series(n_max: int) -> list[Fraction]:
    """E_0..E_n_max out of 2 / (e^t + 1) = sum_n E_n t^n / n!.

    Writes the denominator series d_0 = 2, d_j = 1/j! and solves
    (sum q_i t^i) * (sum d_j t^j) = 2 for the q_i one order at a time;
    then E_n = n! q_n.  No binomial recurrence involved.
    """
    den = [Fraction(2)] + [Fraction(1, factorial(j)) for j in range(1, n_max + 1)]
    q = [Fraction(1)]  # 2 / d_0
    for n in range(1, n_max + 1):
        acc = sum(q[i] * den[n - i] for i in range(n))
        q.append(-acc / den[0])
    return [q[n] * factorial(n) for n in range(n_max + 1)]


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_x, x = x, old_x - quot * x
        old_y, y = y, old_y - quot * y
    return old_r, old_x, old_y


def modinv(a: int, m: int) -> int:
    g, x, _ = extended_gcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} not invertible mod {m}")
    return x % m


def alternating_sum(coeffs: list[Fraction], p: int, N: int) -> Fraction:
    """sum_{x=0}^{p^N - 1} (-1)^x f(x) by direct Fraction evaluation."""
    total = Fraction(0)
    for x in range(p**N):
        fx = sum(c * Fraction(x) ** i for i, c in enumerate(coeffs))
        total += -fx if x % 2 else fx
    return total


def q_weighted_value(coeffs: list[Fraction], p: int, q: Fraction,
                     N: int) -> Fraction:
    """(1+q)/(1+q^{p^N}) * sum_{x<p^N} (-q)^x f(x), exact rationals."""
    total = Fraction(0)
    for x in range(p**N):
        fx = sum(c * Fraction(x) ** i for i, c in enumerate(coeffs))
        total += (-q) ** x * fx
    return total * (1 + q) / (1 + q ** (p**N))
