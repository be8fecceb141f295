"""p-adic valuations and truncated p-adic arithmetic on rationals.

Only two primitives are needed by the rest of the package: the valuation
vp, and reduction of a p-integral rational to a residue mod p^M.  The
truncation is represented by `PadicApprox`, a plain record of (p, M, r)
with r the canonical residue in [0, p^M).

Odd primes only for the modular side: the alternating partial sums this
package studies converge 2-adically to nothing useful, and every exact
value in play has a power-of-two denominator, which is a unit mod p^M
exactly when p is odd.  The valuation itself is defined for p = 2 as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

__all__ = ["is_prime", "vp", "PadicApprox", "reduce_mod", "unit_inverse"]

Rat = Union[int, Fraction]


# The strong-probable-prime test to the 13 prime bases 2..41 has no
# pseudoprime below this bound (Sorenson and Webster, "Strong pseudoprimes
# to twelve prime bases", Math. Comp. 86 (2017)).
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the prime bases 2..41.

    Exact for n < PRIME_TEST_LIMIT (about 3.3e24); any larger n raises
    ValueError rather than get an answer that is only probable, naming n
    by its bit length past 128 bits.  A base that divides n > 41 fails its
    own round (b divides b^d mod n and its squares, never 1 or n - 1).
    """
    if n >= PRIME_TEST_LIMIT:
        name = n if n.bit_length() <= 128 else f"a {n.bit_length()}-bit number"
        raise ValueError(f"cannot decide whether {name} is prime: "
                         f"the test is exact only below {PRIME_TEST_LIMIT}")
    if n <= _BASES[-1]:
        return n in _BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _check_odd_prime(p: int) -> None:
    _check_prime(p)
    if p == 2:
        raise ValueError("p must be odd")


def vp(x: Rat, p: int) -> Union[int, float]:
    """p-adic valuation of a rational; vp(0) = +inf (math.inf).

    vp(a/b) = vp(a) - vp(b), so the result is negative when p divides the
    reduced denominator.
    """
    _check_prime(p)
    x = Fraction(x)
    if x == 0:
        return math.inf
    return _multiplicity(x.numerator, p) - _multiplicity(x.denominator, p)


def _multiplicity(n: int, p: int) -> int:
    """The exponent of p in n != 0, in O(log v) divisions.

    Divides by p, p^2, p^4, ... while they divide.  After k steps the
    cofactor has valuation below 2^k, so the same powers, tried again from
    the largest down, take off the rest one binary digit at a time.
    """
    v = 0
    powers = []
    pk = p
    while n % pk == 0:
        n //= pk
        v += 1 << len(powers)
        powers.append(pk)
        pk *= pk
    for i in range(len(powers) - 1, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


@dataclass(frozen=True)
class PadicApprox:
    """A residue r mod p^M standing for a p-adic number to M digits.

    p must be an odd prime, M >= 1, and 0 <= r < p^M.
    """

    p: int
    M: int
    r: int

    def __post_init__(self) -> None:
        _check_odd_prime(self.p)
        if self.M < 1:
            raise ValueError("precision M must be >= 1")
        if not 0 <= self.r < self.p**self.M:
            raise ValueError(f"residue {self.r} out of range for p^M = {self.p**self.M}")

    @property
    def modulus(self) -> int:
        return self.p**self.M

    def __str__(self) -> str:
        return f"{self.r} mod {self.p}^{self.M}"


def reduce_mod(x: Rat, p: int, M: int) -> PadicApprox:
    """The image of a p-integral rational in Z/p^M.

    Requires vp(x, p) >= 0; the reduced denominator is then a unit mod p^M
    and r = num * den^(-1) mod p^M.  Rejects p = 2 and non-primes.
    """
    _check_odd_prime(p)
    if M < 1:
        raise ValueError("precision M must be >= 1")
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError(f"{x} is not p-integral at p = {p} (vp = {vp(x, p)})")
    q = p**M
    r = x.numerator * pow(x.denominator, -1, q) % q
    return PadicApprox(p, M, r)


def unit_inverse(u: int, p: int, M: int) -> int:
    """Inverse of a unit u in Z/p^M, as the canonical residue."""
    _check_odd_prime(p)
    if M < 1:
        raise ValueError("precision M must be >= 1")
    if u % p == 0:
        raise ValueError(f"{u} is not a unit mod {p}^{M}")
    return pow(u, -1, p**M)
