"""Euler numbers and Euler polynomials, exact.

The Euler numbers E_n here are the values E_n(0) of the Euler polynomials
at 0, i.e. the coefficients of the exponential generating function

    2 / (e^t + 1) = sum_{n>=0} E_n t^n / n!

so E_0 = 1, E_1 = -1/2, E_2 = 0, E_3 = 1/4, and E_{2n} = 0 for n >= 1.
(These are not the integer "secant" Euler numbers E_n(1/2) * 2^n.)

Multiplying the generating function by e^t + 1 gives the defining
recurrence

    E_0 = 1,      sum_{l=0}^{n} C(n, l) E_l + E_n = 0   for n >= 1,

and the polynomials follow from e^{xt} * 2/(e^t + 1):

    E_n(x) = sum_{l=0}^{n} C(n, l) E_l x^(n-l).

Denominators of E_n are always powers of two: e_n = 2^n E_n is an
integer (a signed tangent number for odd n), so every E_n is a p-adic
integer for every odd prime p; the partial-sum evaluators in
`fermibern.fermint` rely on that.  `EulerCache` keeps only these
integers and runs the defining recurrence times 2^(n-1) on them,

    e_0 = 1,      e_n = -sum_{l=0}^{n-1} C(n, l) e_l 2^(n-1-l)   for n >= 1;

`fermibern.fermint.integrate` sums them over one power-of-two
denominator, and E_n = e_n / 2^n is built as a Fraction on read.
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
    """Monotonically growing table of the integers e_m = 2^m E_m.

    `euler_number` and `euler_numbers` build the Fractions E_m = e_m / 2^m
    on read.  Reads of already computed entries take no lock (the table is
    append-only), extension is serialized, so the cache is safe to share
    across threads.
    """

    def __init__(self) -> None:
        self._scaled: list[int] = [1]
        self._lock = threading.Lock()

    def ensure(self, n: int) -> None:
        """Extend the table through index n."""
        if n < 0:
            raise ValueError("Euler number index must be nonnegative")
        if len(self._scaled) > n:
            return
        with self._lock:
            e = self._scaled
            while len(e) <= n:
                m = len(e)
                e.append(-sum(binom(m, l) * e[l] << (m - 1 - l) for l in range(m) if e[l]))

    def scaled(self, n: int) -> list[int]:
        """The integers 2^j E_j for j = 0..n."""
        self.ensure(n)
        return self._scaled[: n + 1]


DEFAULT_CACHE = EulerCache()


def euler_number(n: int, cache: EulerCache = DEFAULT_CACHE) -> Fraction:
    """E_n via the defining recurrence, memoized."""
    cache.ensure(n)
    return Fraction(cache._scaled[n], 1 << n)


def euler_numbers(n: int, cache: EulerCache = DEFAULT_CACHE) -> list[Fraction]:
    """E_0..E_n in one call."""
    return [Fraction(e, 1 << j) for j, e in enumerate(cache.scaled(n))]


def euler_poly(n: int, cache: EulerCache = DEFAULT_CACHE) -> Poly:
    """The Euler polynomial E_n(x), monic of degree exactly n."""
    e = cache.scaled(n)
    # C(n, i) E_{n-i} = C(n, i) e_{n-i} 2^i / 2^n
    return Poly([binom(n, i) * e[n - i] << i for i in range(n + 1)]) * Fraction(1, 1 << n)


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
