"""Exact rational polynomial arithmetic.

Everything in this package runs on exact arithmetic: integers are Python
ints, rationals are `fractions.Fraction`, and polynomials are integer
numerators over one denominator, lowest degree first, so that ring
operations run on ints; `Poly.coeffs` still yields Fractions.  No floats
anywhere.

A rational serializes as ``str(Fraction)``: "num/den", or just "num" when
the denominator is 1.  A polynomial serializes as its coefficient list,
lowest degree first, e.g. "1, -1" for 1 - x.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Sequence, Union

__all__ = ["Poly", "binom", "expand_pow_product"]

Coeff = Union[int, Fraction, str]


def _quoted(text: str) -> str:
    """repr(text), or past 40 characters the repr of its first 20 and its length."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"


def _parsed(c: object) -> Fraction:
    """A coefficient that is not an int or Fraction, as a Fraction: text such
    as "3/4" or "2.5" is read exactly, but exponent notation is refused, since
    for "1e100000000" Fraction would build a 10^8-digit integer.  An error
    quotes a long text by `_quoted`, where Fraction's own would quote it whole."""
    if isinstance(c, str) and ("e" in c or "E" in c):
        raise ValueError(f"malformed coefficient {_quoted(c)}: no exponent notation")
    try:
        return Fraction(c)
    except ValueError as exc:
        raise ValueError(str(exc).replace(repr(c), _quoted(str(c)))) from None


# C(n, k); 0 for k > n, so an out-of-range B_{k,n} in a sweep has prefactor 0
binom = comb


class Poly:
    """Dense univariate polynomial with rational coefficients, immutable.

    Stored as one canonical pair: a tuple of integer numerators, lowest
    degree first, over one positive common denominator.  Trailing zeros
    are trimmed, so the leading stored numerator is nonzero, and the
    denominator shares no factor with all the numerators at once, so
    equal polynomials have equal pairs.  The zero polynomial stores an
    empty tuple over 1 and reports degree -1.  `coeffs` gives the
    coefficients as Fractions, built on access.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Coeff] = ()) -> None:
        cs = [c if isinstance(c, (int, Fraction)) else _parsed(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._nums, self._den = _canonical(
            [c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _from_pair(cls, nums: list[int], den: int) -> "Poly":
        """The polynomial sum_i nums[i] x^i / den, den > 0."""
        out = object.__new__(cls)
        out._nums, out._den = _canonical(nums, den)
        return out

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, n: int, c: Coeff = 1) -> "Poly":
        """c * x**n."""
        if n < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * n + (c,))

    @classmethod
    def from_coeff_string(cls, text: str) -> "Poly":
        """Parse "c0, c1, ..." (lowest degree first), each coefficient as
        `Poly` reads text: rationals like 3/4 and decimals like 2.5 allowed,
        exponent notation refused."""
        parts = [p.strip() for p in text.split(",")]
        if "" in parts:
            raise ValueError(f"malformed coefficient list: {_quoted(text)}")
        try:
            return cls(parts)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {_quoted(text)}") from None

    # -- basic queries --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple([Fraction(n, den) for n in self._nums])

    @property
    def numerators(self) -> tuple[int, ...]:
        """Integer numerators over `denominator`, lowest degree first."""
        return self._nums

    @property
    def denominator(self) -> int:
        """The common denominator, positive; 1 for integer polynomials."""
        return self._den

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    def is_zero(self) -> bool:
        return not self._nums

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x**i (0 beyond the stored degree)."""
        if 0 <= i < len(self._nums):
            return Fraction(self._nums[i], self._den)
        return Fraction(0)

    def to_coeff_string(self) -> str:
        """Inverse of from_coeff_string; the zero polynomial prints as "0"."""
        if not self._nums:
            return "0"
        return ", ".join(str(c) for c in self.coeffs)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: object) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, da, b, db = self._nums, self._den, other._nums, other._den
        den = lcm(da, db)
        a = [n * (den // da) for n in a]
        b = [n * (den // db) for n in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, n in enumerate(b):
            out[i] += n
        return Poly._from_pair(out, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._from_pair([-n for n in self._nums], self._den)

    def __sub__(self, other: object) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._nums, other._nums
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
        return Poly._from_pair(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- evaluation and composition -------------------------------------------

    def __call__(self, x: Coeff) -> Fraction:
        """Evaluate at a rational point a/b by Horner's rule in integers:
        sum_i n_i a^i b^(d-i), then one division by den * b^d."""
        if not isinstance(x, (int, Fraction)):
            x = _parsed(x)
        a, b = x.numerator, x.denominator
        acc, scale = 0, 1
        for n in reversed(self._nums):
            acc = acc * a + n * scale
            scale *= b
        return Fraction(acc * b, self._den * scale)

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)), exactly, by Horner over the polynomial ring on
        the numerators, then one division by the denominator."""
        acc = Poly()
        for n in reversed(self._nums):
            acc = acc * inner + n
        return acc * Fraction(1, self._den)

    def shifted(self, n: Coeff) -> "Poly":
        """self(x + n)."""
        return self.compose(Poly((n, 1)))

    def reflected(self) -> "Poly":
        """self(1 - x)."""
        return self.compose(Poly((1, -1)))

    # -- dunder plumbing ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._nums == other._nums and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __repr__(self) -> str:
        return f"Poly([{self.to_coeff_string()}])"


def _canonical(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """The canonical pair of sum_i nums[i] x^i / den, den > 0."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    return tuple([n // g for n in nums]), den // g


def _coerce(value: object) -> "Poly":
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((value,))
    return NotImplemented


def expand_pow_product(k: int, m: int) -> Poly:
    """x**k * (1 - x)**m expanded into monomials.

    By the binomial theorem the coefficient of x**(k+j) is C(m, j) * (-1)**j,
    so the result has integer coefficients and degree exactly k + m.
    """
    if k < 0 or m < 0:
        raise ValueError("exponents must be nonnegative")
    nums, c = [0] * k, 1
    for j in range(m + 1):  # (-1)^(j+1) C(m, j+1) = -(-1)^j C(m, j) (m - j) / (j + 1)
        nums.append(c)
        c = -c * (m - j) // (j + 1)
    return Poly._from_pair(nums, 1)
