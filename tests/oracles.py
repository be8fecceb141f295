"""Independent reference computations for the tests.

Nothing here touches the production code paths: Euler numbers come from
term-by-term inversion of the exponential series of (e^t + 1)/2, modular
inverses from the extended Euclidean algorithm, partial sums from a
direct Fraction loop, valuations from one division by p at a time,
primality from trial division,
polynomials are plain lists of Fractions, lowest degree first, with the
schoolbook operations on them, and the catalog's literal formulas are
summed as Fractions.  Agreement between these and the package
is the point of most tests.  The package gets S_N from the shift
equation, as integrals read off d + 1 values of f over integer weights,
so `alternating_sum` is the only plain O(p^N) route to it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


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


def is_prime_by_trial_division(n: int) -> bool:
    """Primality by trying every odd divisor up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def vp_by_division(x: Fraction, p: int) -> int:
    """vp of a nonzero rational, stripping one factor of p per division."""
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# -- polynomials as lists of Fractions -----------------------------------------

def fpoly(coeffs) -> list[Fraction]:
    """Fractions, trailing zeros trimmed: the reference normal form."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def fpoly_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    return fpoly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def fpoly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return fpoly(out)


def fpoly_eval(a: list[Fraction], x: Fraction) -> Fraction:
    return sum((c * x**i for i, c in enumerate(a)), Fraction(0))


def fpoly_shift(a: list[Fraction], n: Fraction) -> list[Fraction]:
    """a(x + n) by the binomial theorem on each monomial."""
    out = [Fraction(0)] * len(a)
    for j, c in enumerate(a):
        for i in range(j + 1):
            out[i] += c * comb(j, i) * n ** (j - i)
    return fpoly(out)


def bernstein_product_integral(factors, euler: list[Fraction]) -> Fraction:
    """I(prod B_{k,n}^m) from Fraction-list products of C(n,k) x^k (1-x)^(n-k),
    then sum_j c_j E_j with E from `euler` (long enough for the degree)."""
    prod = [Fraction(1)]
    for k, n, m in factors:
        if k > n:
            base = []
        else:
            base = fpoly([0] * k + [comb(n, k) * comb(n - k, j) * (-1) ** j
                                    for j in range(n - k + 1)])
        for _ in range(m):
            prod = fpoly_mul(prod, base)
    return sum((c * euler[j] for j, c in enumerate(prod)), Fraction(0))


# -- the catalog's literal formulas over Fractions -----------------------------

def alt(width: int, sign, index, E: list[Fraction]) -> Fraction:
    """sum_{j=0}^{width} C(width, j) sign(j) E[index(j)]; 0 when width < 0."""
    return sum((comb(width, j) * sign(j) * E[index(j)] for j in range(width + 1)),
               Fraction(0))


# The formulas of `fermibern.identities._F`, each f(E, k, s, T, K) over a
# table E of Euler numbers as Fractions, giving the value itself; None
# where the text does not apply.
FRACTION_FORMULAS = {
    "T1": lambda E, k, s, T, K: 2 + E[T],
    "P2": lambda E, k, s, T, K: alt(T - k, lambda j: (-1) ** j, lambda j: k + j, E),
    "T3": lambda E, k, s, T, K: None if T <= K else 2 + E[T] if k == 0 else alt(
        k, lambda j: (-1) ** (k - j), lambda j: T - j, E),
    "P6": lambda E, k, s, T, K: alt(
        T - 2 * k, lambda j: (-1) ** j, lambda j: 2 * k + j, E),
    "T5": lambda E, k, s, T, K: None if T <= K else 2 + E[T] if k == 0 else alt(
        2 * k, lambda j: (-1) ** (j + 2 * k), lambda j: T - j, E),
    "C9": lambda E, k, s, T, K: alt(
        T - 3 * k, lambda j: (-1) ** j, lambda j: 3 * k + j, E),
    "T8": lambda E, k, s, T, K: None if T <= K else 2 + E[T] if k == 0 else alt(
        3 * k, lambda j: (-1) ** (3 * k - j), lambda j: T - j, E),
    "C11": lambda E, k, s, T, K: alt(
        T - s * k, lambda j: (-1) ** j, lambda j: s * k + j, E),
    "T10": lambda E, k, s, T, K: None if T <= K else 2 + E[T] if k == 0 else alt(
        s * k, lambda j: (-1) ** (s * k - j), lambda j: T - j, E),
    "T12": lambda E, k, s, T, K: None if T <= K else 2 + E[T] if K == 0 else alt(
        K, lambda j: (-1) ** (K - j), lambda j: T - j, E),
    "C13": lambda E, k, s, T, K: alt(T - K, lambda j: (-1) ** j, lambda j: K + j, E),
    "C13 as printed": lambda E, k, s, T, K: None if T - K > K else alt(
        T - K, lambda j: (-1) ** j, lambda j: K - j, E),
    "T14 as printed": lambda E, k, s, T, K: None if T <= K else (
        2 + E[T] if K == 0 else alt(K, lambda j: (-1) ** (K - j), lambda j: T - K, E)),
    "E_T": lambda E, k, s, T, K: E[T],
    "0": lambda E, k, s, T, K: Fraction(0) if T >= 2 and T % 2 == 0 else None,
    "E_T(2)": lambda E, k, s, T, K: None if T < 1 else sum(
        (comb(T, i) * E[T - i] * 2**i for i in range(T + 1)), Fraction(0)),
    "den E_T": lambda E, k, s, T, K: Fraction(E[T].denominator),
    "top bit": lambda E, k, s, T, K: Fraction(2 ** (E[T].denominator.bit_length() - 1)),
}
