"""The fermionic p-adic integral of polynomials.

For a polynomial f the integral studied here is the p-adic limit of
alternating averages over initial segments of Z_p:

    I(f) = lim_{N -> inf}  sum_{x=0}^{p^N - 1} (-1)^x f(x)

(the measure of x + p^N Z_p is (-1)^x, total mass 1).  Two facts drive
everything in this module:

  * moments:  I(x^n) = E_n, the n-th Euler number, so by linearity
    I(f) = sum_j c_j E_j for f = sum_j c_j x^j.  This is the exact,
    symbolic route.
  * convergence:  the finite alternating sum S_N(f) agrees with I(f)
    modulo p^N, so vp(S_N - I(f), p) >= N.  For odd n = p^N the n-step
    equation below gives S_N(f) = (I(f) + I(f(x+p^N))) / 2, and `partial_sum`
    reads both integrals off d + 1 values of f each (`_integral_at`): each
    S_N is exact, needs no loop over every x and reads no Euler number.

A one-parameter deformation replaces the weight (-1)^x by (-q)^x and
normalizes by (1+q)/(1+q^{p^N}); at q = 1 the normalizer collapses to 1
and the plain partial sum reappears.  `q_partial_sum` evaluates that
deformation in Z/p^M.

Useful functional equations, each verified at runtime where exposed:

    I(f(x+1)) = -I(f) + 2 f(0)
    I(f(x+n)) = (-1)^n I(f) + 2 sum_{l=0}^{n-1} (-1)^(n-1-l) f(l)
    I((1-x)^n) = 2 + E_n            for n >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .euler import DEFAULT_CACHE, EulerCache, euler_number
from .exactnum import Poly, expand_pow_product
from .padic import PadicApprox, _check_odd_prime, reduce_mod, unit_inverse, vp

__all__ = [
    "integrate",
    "integrate_shifted",
    "integrate_reflected",
    "partial_sum",
    "PartialSumTrace",
    "convergence_trace",
    "q_partial_sum",
]

Rat = Union[int, Fraction]


def integrate(f: Poly, cache: EulerCache = DEFAULT_CACHE) -> Fraction:
    """I(f) = sum_j c_j E_j, exactly.

    With f = sum_j a_j x^j / den and e_j = 2^j E_j this is the one integer
    sum_j a_j e_j 2^(d-j) over den 2^d, d the degree of f (0 for zero f,
    whose sum is empty).  For integer f the result has a power-of-two
    denominator, so it is p-integral for every odd prime p.
    """
    d = max(f.degree, 0)
    e = cache.scaled(d)
    return Fraction(sum(a * e[j] << (d - j) for j, a in enumerate(f.numerators)),
                    f.denominator << d)


def _weights(T: int) -> list[int]:
    """W_{T,0..T}: 2^T I(f) = sum_{i<=T} f(i) W_{T,i} for f of degree <= T.

    I(f(x+1)) + I(f) = 2 f(0) makes I(f) = sum_j (-Delta/2)^j f(0), whence
    the integers W_{T,i} = (-1)^i sum_{l>i} C(T+1,l), in O(T), no E_n read."""
    row, tail, c = [0] * (T + 1), 0, 1  # c = C(T+1, i+1)
    for i in range(T, -1, -1):
        tail += c
        row[i] = -tail if i & 1 else tail
        c = c * (i + 1) // (T + 1 - i)
    return row


def _integral_at(f: Poly, n: int) -> Fraction:
    """I(f(x+n)) = 2^-d sum_{i<=d} f(n+i) W_{d,i}, d the degree of f, from
    the integer numerators of f by Horner and one Fraction at the end."""
    d, nums, total = max(f.degree, 0), f.numerators[::-1], 0  # zero f as degree 0
    for i, w in enumerate(_weights(d)):
        v, x = 0, n + i
        for a in nums:
            v = v * x + a
        total += v * w
    return Fraction(total, f.denominator << d)


def integrate_shifted(f: Poly, n: int, cache: EulerCache = DEFAULT_CACHE) -> Fraction:
    """I(f(x+n)) computed two ways and cross-checked.

    Directly: from the values of f at n..n+d (`_integral_at`).  Via the
    n-step functional equation: (-1)^n I(f) + 2 sum_{l=0}^{n-1} (-1)^(n-1-l)
    f(l), I(f) from the Euler table.  A mismatch would mean a bug in the
    weights or the table, so it raises rather than returning either value.
    """
    if n < 0:
        raise ValueError("shift must be nonnegative")
    direct = _integral_at(f, n)
    tail = sum(((-1) ** (n - 1 - l) * f(l) for l in range(n)), Fraction(0))
    via_rule = (-1) ** n * integrate(f, cache) + 2 * tail
    if direct != via_rule:
        raise ArithmeticError(f"shift rule failed for n={n}: {direct} != {via_rule}")
    return direct


def integrate_reflected(n: int, cache: EulerCache = DEFAULT_CACHE) -> Fraction:
    """I((1-x)^n) for n >= 1, cross-checked against the closed form 2 + E_n."""
    if n < 1:
        raise ValueError("closed form 2 + E_n requires n >= 1")
    direct = integrate(expand_pow_product(0, n), cache)
    closed = 2 + euler_number(n, cache)
    if direct != closed:
        raise ArithmeticError(f"I((1-x)^{n}) = {direct} but 2 + E_{n} = {closed}")
    return direct


def partial_sum(f: Poly, p: int, N: int) -> Fraction:
    """S_N(f) = sum_{x=0}^{p^N - 1} (-1)^x f(x), exactly.

    n = p^N is odd, so the n-step equation reads I(f(x+n)) = -I(f) + 2 S_N(f):
    two integrals read off values of f, O(deg^2) work however large N is.
    S_N sums values f(x), so its denominator divides that of f; a result
    that breaks this raises rather than being returned.
    """
    _check_odd_prime(p)
    if N < 0:
        raise ValueError("N must be nonnegative")
    s_n = (_integral_at(f, 0) + _integral_at(f, p**N)) / 2
    if f.denominator % s_n.denominator:
        raise ArithmeticError(f"S_{N} = {s_n} has a denominator that does not "
                              f"divide {f.denominator}, that of f")
    return s_n


@dataclass(frozen=True)
class PartialSumTrace:
    """Partial sums S_1..S_N with their p-adic distance to the limit.

    Each row is (N, S_N, valuation_gap) where valuation_gap is
    vp(S_N - I(f), p), and math.inf when the partial sum is already exact.
    Rows render with plain str(), so an infinite gap prints as "inf".
    """

    p: int
    rows: tuple[tuple[int, Fraction, Union[int, float]], ...]

    def to_csv(self) -> str:
        lines = ["N,S_N,valuation_gap"]
        lines.extend(f"{n},{s},{gap}" for n, s, gap in self.rows)
        return "\n".join(lines) + "\n"


def convergence_trace(f: Poly, p: int, N_max: int,
                      cache: EulerCache = DEFAULT_CACHE) -> PartialSumTrace:
    """Trace S_N against the exact integral for N = 1..N_max.

    Each row is one `partial_sum`, so the cost grows with N_max and the
    degree of f, not with p^N_max.  Rows are exact; S_N reads no Euler
    number and I(f) does, so the gap is >= N only while the two routes
    agree (the tests pin that down, this function just reports).
    """
    _check_odd_prime(p)
    if N_max < 0:
        raise ValueError("N_max must be nonnegative")
    exact = integrate(f, cache)
    rows = []
    for n in range(1, N_max + 1):
        s_n = partial_sum(f, p, n)
        rows.append((n, s_n, vp(s_n - exact, p)))
    return PartialSumTrace(p=p, rows=tuple(rows))


def q_partial_sum(f: Poly, p: int, q: Rat, N: int, M: int) -> PadicApprox:
    """The q-deformed partial sum in Z/p^M.

    Evaluates (1+q)/(1+q^{p^N}) * sum_{x=0}^{p^N - 1} (-q)^x f(x) with all
    arithmetic mod p^M.  Requires vp(q - 1, p) >= 1, which makes both
    1 + q and 1 + q^{p^N} units (each is 2 mod p); f must have p-integral
    coefficients.  At q = 1 the normalizer is 1 and the result equals
    reduce_mod(partial_sum(f, p, N), p, M).
    """
    _check_odd_prime(p)
    if M < 1:
        raise ValueError("precision M must be >= 1")
    if N < 0:
        raise ValueError("N must be nonnegative")
    q = Fraction(q)
    if vp(q - 1, p) < 1:
        raise ValueError(f"need q = 1 mod {p}, got q = {q}")
    modulus = p**M
    qr = reduce_mod(q, p, M).r
    coeff_res = [reduce_mod(c, p, M).r for c in f.coeffs]
    acc = 0
    w = 1  # (-q)^x mod p^M
    neg_q = (-qr) % modulus
    rev_coeffs = coeff_res[::-1]
    for x in range(p**N):
        fx = 0
        xr = x % modulus
        for c in rev_coeffs:
            fx = (fx * xr + c) % modulus
        acc = (acc + w * fx) % modulus
        w = w * neg_q % modulus
    # after the loop w = (-q)^(p^N) = -(q^(p^N)) since p^N is odd,
    # so 1 + q^(p^N) = 1 - w mod p^M
    normalizer = (1 + qr) * unit_inverse((1 - w) % modulus, p, M) % modulus
    return PadicApprox(p, M, acc * normalizer % modulus)
