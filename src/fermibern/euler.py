"""Euler numbers and Euler polynomials, exact.

The Euler numbers E_n here are the values E_n(0) of the Euler polynomials
at 0, i.e. the coefficients of the exponential generating function

    2 / (e^t + 1) = sum_{n>=0} E_n t^n / n!

so E_0 = 1, E_1 = -1/2, E_2 = 0, E_3 = 1/4, and E_{2n} = 0 for n >= 1.
(These are not the integer "secant" Euler numbers E_n(1/2) * 2^n.)

Multiplying the generating function by e^t + 1 gives the defining
recurrence used throughout:

    E_0 = 1,      sum_{l=0}^{n} C(n, l) E_l + E_n = 0   for n >= 1,

and the polynomials follow from e^{xt} * 2/(e^t + 1):

    E_n(x) = sum_{l=0}^{n} C(n, l) E_l x^(n-l).

Denominators of E_n are always powers of two: e_n = 2^n E_n is an
integer (a signed tangent number for odd n), so every E_n is a p-adic
integer for every odd prime p; the partial-sum evaluators in
`fermibern.fermint` rely on that.  `EulerCache.scaled` hands those
integers to `fermibern.fermint.integrate`, which sums them over one
power-of-two denominator.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .exactnum import Poly, binom

__all__ = [
    "EulerCache",
    "DEFAULT_CACHE",
    "euler_number",
    "euler_numbers",
    "euler_poly",
    "euler_reflect_check",
    "euler_at_two",
]


class EulerCache:
    """Monotonically growing table of Euler numbers E_0..E_n.

    Beside each E_m it keeps the integer e_m = 2^m E_m for `scaled`.
    Reads of already computed entries take no lock (the backing lists are
    append-only), extension is serialized, so the cache is safe to share
    across threads.
    """

    def __init__(self) -> None:
        self._scaled: list[int] = [1]
        self._values: list[Fraction] = [Fraction(1)]
        self._lock = threading.Lock()

    def ensure(self, n: int) -> None:
        """Extend the table through index n."""
        if n < 0:
            raise ValueError("Euler number index must be nonnegative")
        if len(self._values) > n:
            return
        with self._lock:
            while len(self._values) <= n:
                m = len(self._values)
                acc = sum(binom(m, l) * self._values[l] for l in range(m))
                # from sum_{l<=m} C(m,l) E_l + E_m = 0, i.e. 2 E_m = -acc
                value = -acc / 2
                # the denominator of E_m is 2^k with k <= m
                self._scaled.append(value.numerator << (m + 1 - value.denominator.bit_length()))
                # _values is the one the lock-free check reads: append it last
                self._values.append(value)

    def value(self, n: int) -> Fraction:
        self.ensure(n)
        return self._values[n]

    def prefix(self, n: int) -> list[Fraction]:
        """E_0..E_n as a list."""
        self.ensure(n)
        return self._values[: n + 1]

    def scaled(self, n: int) -> list[int]:
        """The integers 2^j E_j for j = 0..n."""
        self.ensure(n)
        return self._scaled[: n + 1]


DEFAULT_CACHE = EulerCache()


def euler_number(n: int, cache: EulerCache = DEFAULT_CACHE) -> Fraction:
    """E_n via the defining recurrence, memoized."""
    return cache.value(n)


def euler_numbers(n: int, cache: EulerCache = DEFAULT_CACHE) -> list[Fraction]:
    """E_0..E_n in one call."""
    return cache.prefix(n)


def euler_poly(n: int, cache: EulerCache = DEFAULT_CACHE) -> Poly:
    """The Euler polynomial E_n(x), monic of degree exactly n."""
    values = cache.prefix(n)
    coeffs = [Fraction(0)] * (n + 1)
    for l in range(n + 1):
        coeffs[n - l] = binom(n, l) * values[l]
    return Poly(coeffs)


def euler_reflect_check(n: int, cache: EulerCache = DEFAULT_CACHE) -> bool:
    """Coefficientwise check of the reflection law E_n(1-x) = (-1)^n E_n(x)."""
    p = euler_poly(n, cache)
    return p.reflected() == (-1) ** n * p


def euler_at_two(n: int, cache: EulerCache = DEFAULT_CACHE) -> Fraction:
    """E_n(2) for n >= 1, cross-checked against the closed form 2 + E_n.

    E_n(x+1) + E_n(x) = 2 x^n evaluated at x = 1 gives
    E_n(2) = 2 - E_n(1) = 2 + E_n for n >= 1 (using E_n(1) = -E_n there).
    The value is computed by evaluating the polynomial and verified against
    that closed form before being returned.
    """
    if n < 1:
        raise ValueError("closed form 2 + E_n requires n >= 1")
    direct = euler_poly(n, cache)(2)
    closed = 2 + euler_number(n, cache)
    if direct != closed:
        raise ArithmeticError(f"E_{n}(2) = {direct} but 2 + E_{n} = {closed}")
    return direct
