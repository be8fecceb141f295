"""Exhaustive verification of a catalog of closed-form integral identities.

Every entry in the catalog evaluates the alternating p-adic integral I()
of a product of Bernstein basis polynomials in terms of Euler numbers.
Each suite sweeps a parameter range, evaluates the catalog closed form
with literal index and sign expressions, compares against the oracle (the
product integrated from its values at 0..T by forward differences, with no
Euler number), and keeps the two integer sides of each comparison; the
`IdentityReport` of a comparison is built when it is read.

Catalog ids.  C(a,b) is the binomial coefficient, E_r the r-th Euler
number, B_{k,n} the Bernstein basis polynomial.  For the product entries
T and K abbreviate the total degree and the lower index sum.

  EULER  on x^n = B_{n,n}: E_2m = 0 (m >= 1); E_n(2) = 2 + E_n (n >= 1);
         denominators of E_n are powers of two
  T1     I((1-x)^n) = 2 + E_n                                      n >= 1
  P2     I(B_{k,n}) = C(n,k) sum_{j=0}^{n-k} C(n-k,j)(-1)^j E_{k+j}
  T3     I(B_{k,n}) = 2 + E_n if k = 0, else
         C(n,k) sum_{j=0}^{k} C(k,j)(-1)^(k-j) E_{n-j}             k < n
  C4     P2 and T3 right sides agree with the prefactor dropped
  T5     I(B_{k,n} B_{k,m}) = 2 + E_{n+m} if k = 0, else
         C(n,k)C(m,k) sum_{j=0}^{2k} C(2k,j)(-1)^(j+2k) E_{n+m-j}
                                                             n + m > 2k
  P6     I(B_{k,n} B_{k,m}) =
         C(n,k)C(m,k) sum_{j=0}^{n+m-2k} C(n+m-2k,j)(-1)^j E_{2k+j}
         (empty sum when n + m < 2k; the prefactor vanishes there too)
  C7     T5 and P6 right sides agree with the prefactor dropped
  T8,C9  the three-factor analogues of T5 and C7,
         I(B_{k,n} B_{k,m} B_{k,s}) with n + m + s > 3k
  T10    I(prod_i B_{k,n_i}), s factors, sum n_i > s k:
         2 + E_{sum n_i} if k = 0, else
         (prod_i C(n_i,k)) sum_{j=0}^{sk} C(sk,j)(-1)^(sk-j) E_{sum n_i - j}
  C11    prefactor-free: sum_{j=0}^{T-sk} C(T-sk,j)(-1)^j E_{sk+j}
         equals the T10 bracket, T = sum n_i
  T12    I(prod_i B_{k,n_i}^{m_i}) with T = sum n_i m_i, K = k sum m_i,
         T > K:  2 + E_T if k = 0, else
         (prod_i C(n_i,k)^{m_i}) sum_{j=0}^{K} C(K,j)(-1)^(K-j) E_{T-j}
  C13    prefactor-free: sum_{j=0}^{T-K} C(T-K,j)(-1)^j E_{K+j} equals
         the T12 bracket.  The left side circulates with E_{K-j} in
         place of E_{K+j}; that edition is the "as-printed" variant and
         is falsified by counterexample (rows where K - j would go
         negative cannot be evaluated and are skipped).  The same typo
         infects the prefactored expanded form, which is the same
         comparison with both sides multiplied by prod_i C(n_i,k)^{m_i}.
  T14    I(prod_{i=0}^{n} B_{i,n}^{m_i}), all lower indices at once,
         T = n sum m_i, K = sum i m_i.
         (I), for T > K:  2 + E_T if K = 0, else
              (prod_i C(n,i)^{m_i}) sum_{j=0}^{K} C(K,j)(-1)^(K-j) E_{T-j};
              the circulating edition prints the constant E_{T-K} in the
              K > 0 branch ("as-printed" variant, falsified: the
              alternating binomial sum then collapses to 0 for K >= 1).
         (II), unconditional:
              (prod_i C(n,i)^{m_i}) sum_{j=0}^{T-K} C(T-K,j)(-1)^j E_{K+j}
  C15    prefactor-free version of T14(I) vs T14(II), T > K; the
         "as-printed" variant carries the same constant-index typo.

Conventions: an empty sum is 0, and every literal sign expression is kept
exactly as the catalog states it ((-1)^(j+2k), (-1)^(3k-j), ...) rather
than parity-simplified; the tests check both spellings agree.

Each suite is one row of `_CATALOG` per check (EULER), part (T14 I, II) and
edition (corrected, as-printed): the family of products it sweeps and its
two sides, each the oracle or a literal formula written once in `_F`, which
is None where its text does not apply (no report); `SUITE_ORDER` is read off
the rows.  run_suites sweeps each family once for all its rows, and the
sweep evaluates each formula once per (k, s, T, K) on `EulerCache.scaled(T)`,
the integers e_j = 2^j E_j, which a formula sums shifted up to 2^T.  So the
sides of a case of total degree T are compared as integers over 2^T: the
oracle gives 2^T I(f) = sum_{i<=T} f(i) W_{T,i} over the integer weights
`fermint._weights` reads off I(f(x+1)) + I(f) = 2 f(0) alone, so a wrong
Euler table cannot shift both sides alike.  The sweep keeps those integers
in two columns per catalog row beside the key of each case, and run_suites
returns them as a read-only sequence that builds each report, with its two
sides as Fractions, when it is read.  A side is None exactly where the other
is, so the sequence counts each part's reports and unequal ones off the two
columns, and reads the longest integer it holds off them too.  Its `_rows`,
the one walk, runs only to print rows, list failures (reading failing suites
only, and at most as many rows of each as are listed) or build reports; the
CLI builds no report.  Each family also writes the params of a case as the
text `json.dumps(params, sort_keys=True)` gives, straight from its key tail,
so the JSON export encodes no params dict.  A formula, the Euler table or the
oracle that raises in a sweep is a fault of the program: `CatalogError`.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's str encoder
from operator import eq, mul, ne
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .bernstein import bernstein_poly
from .euler import DEFAULT_CACHE, EulerCache
from .exactnum import Poly, _parsed, _quoted, binom
from .fermint import _weights

__all__ = [
    "CORRECTED",
    "AS_PRINTED",
    "SUITE_ORDER",
    "ProductSpec",
    "IdentityReport",
    "CatalogError",
    "oracle_integral",
    "run_suites",
    "find_counterexample",
]

CORRECTED = "corrected"
AS_PRINTED = "as-printed"
BOTH = "both"

# Default sweep bounds.  Chosen so that a full run stays in the seconds
# range while still crossing every branch (k = 0 vs k > 0, repeated
# factors, zero multiplicities, degenerate zero products).
DEFAULT_SINGLE_N_MAX = 20   # T1, P2, T3, C4
DEFAULT_TWO_DEG_MAX = 20    # T5, P6, C7
DEFAULT_THREE_DEG_MAX = 12  # T8, C9
DEFAULT_SFOLD_S_MAX = 4     # T10..C13 factor count
DEFAULT_SFOLD_N_MAX = 8     # T10..C13 per-factor degree
DEFAULT_SFOLD_K_MAX = 3     # T10..C13 lower index
DEFAULT_MULT_M_MAX = 2      # T12, C13 multiplicity
DEFAULT_FULL_N_MAX = 5      # T14, C15 degree
DEFAULT_FULL_M_MAX = 2      # T14, C15 multiplicity
DEFAULT_EULER_N_MAX = 60

# T14/C15 sweep sum_{n<=n_max} (m_max+1)^(n+1) products; past this many a
# run is refused up front (`verify T14 --n-max 9`, m_max = 2, is 88,572
# products and about 4 s and 66 MB on a 2-CPU box, CPython 3.11; n_max = 10
# would be three times that).
FULL_PRODUCTS_MAX = 100_000
# T1..C13 sweep the cases counted by `_products`; past this many a run is
# refused up front.  Every default range is far below it, and so is T12
# with s_max = 5 (134,592 cases, `verify T12 --s-max 5` about 1.4 s and
# 61 MB on the same box); a comparison keeps its two integer sides until
# the run ends, and its report is built only when it is read.
PRODUCTS_MAX = 150_000


@dataclass(frozen=True)
class ProductSpec:
    """A finite product of Bernstein basis polynomials with multiplicities.

    factors is a tuple of (k, n, multiplicity) triples standing for
    B_{k,n}^multiplicity; the empty product is the constant 1.
    """

    factors: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        for k, n, m in self.factors:
            if k < 0 or n < 0 or m < 0:
                raise ValueError(f"factor indices must be nonnegative: {(k, n, m)}")

    @property
    def degree(self) -> int:
        """Degree of the expanded product (counting zero factors naively)."""
        return sum(n * m for _, n, m in self.factors)

    def poly(self) -> Poly:
        return math.prod((bernstein_poly(k, n) ** m for k, n, m in self.factors),
                         start=Poly.one())


def _factor(k: int, n: int, m: int) -> tuple[int, int, int]:
    """What B_{k,n}^m adds to a product: n m to its total degree T, k m to its
    lower index sum K, and C(n,k)^m to its prefactor (0 for a zero factor).
    `_sweep` caches it per factor."""
    return n * m, k * m, binom(n, k) ** m


# -- the oracle ----------------------------------------------------------------
# 2^T I(f) is the values of f at 0..T dotted with the row W_T of `_weights`.

def _values(memo: dict, f: tuple[int, int, int], L: int) -> list:
    """B_{k,n}^m, f = (k, n, m) with k <= n, at x = 0..L or further, from
    `memo`, which keeps the longest row made for f: (C(n,k) x^k (1-x)^(n-k))^m.
    A factor with k > n is 0, and its product is 0 before any value is read."""
    row = memo.setdefault(f, [])
    if len(row) <= L:
        k, n, m = f
        c = binom(n, k)
        row.extend((c * x ** k * (1 - x) ** (n - k)) ** m
                   for x in range(len(row), L + 1))
    return row


def _folded(q: list, values: dict, prefix: Sequence) -> list:
    """W_{L,x} times the prefix's product at x, for x = 0..L, q = W_L."""
    L = len(q) - 1
    for f in prefix:
        if f[2]:  # B^0 = 1
            q = list(map(mul, q, _values(values, f, L)))
    return q


def _oracle(q: list, p: list, shift: int) -> int:
    """2^T I(Q P), T = L - shift the total degree, for q = `_folded` over the
    prefix Q and L >= T, and p the values of the last factor P through L."""
    return sum(map(mul, q, p)) >> shift


def oracle_integral(spec: ProductSpec) -> Fraction:
    """Brute-force reference value: the product integrated from its values.

    This is the route every closed form is judged against.  It never
    consults any catalog formula or Euler number: 2^T I(f) is the values of
    the product at 0..T dotted with the weights W_T.  A product with a zero
    prefactor is 0 and evaluates nothing.
    """
    if not math.prod(_factor(*f)[2] for f in spec.factors):
        return Fraction(0)
    T = spec.degree
    return Fraction(sum(_folded(_weights(T), {}, spec.factors)), 1 << T)


@dataclass(slots=True)
class IdentityReport:
    """One closed-form-vs-reference comparison.

    `equal` is derived, always lhs == rhs exactly (no tolerance anywhere).
    Serializes to a single JSON object with rationals rendered "num/den"
    in lowest terms.
    """

    suite: str
    params: dict
    lhs: Fraction
    rhs: Fraction
    variant: str = CORRECTED

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    def to_json(self) -> str:
        """The six fields, `equal` included, as one `json.dumps` line with sorted keys."""
        return _line(self.suite, self.variant, json.dumps(self.params, sort_keys=True),
                     str(self.lhs), str(self.rhs), self.equal)

    @classmethod
    def from_json(cls, line: str) -> "IdentityReport":
        """The report of a `to_json` line: a JSON object of exactly the six
        fields.  suite must be one of SUITE_ORDER, variant corrected or
        as-printed and params an object; lhs and rhs must be JSON strings,
        read as `Poly` reads a coefficient: exponent notation is refused,
        since "1e1000000" would build a million-digit numerator; equal must
        be a JSON bool that agrees with them.  ValueError otherwise."""
        d = json.loads(line)
        if not (isinstance(d, dict)
                and d.keys() == {"suite", "params", "lhs", "rhs", "equal", "variant"}
                and d["suite"] in SUITE_ORDER and d["variant"] in (CORRECTED, AS_PRINTED)
                and isinstance(d["params"], dict) and isinstance(d["equal"], bool)
                and isinstance(d["lhs"], str) and isinstance(d["rhs"], str)):
            raise ValueError(f"not a report line: {line!r}")
        report = cls(d["suite"], d["params"], _parsed(d["lhs"]), _parsed(d["rhs"]),
                     d["variant"])
        if report.equal != d["equal"]:
            raise ValueError(f"inconsistent equal flag in {line!r}")
        return report


def _line(suite: str, variant: str, params_json: str, lhs: str, rhs: str,
          equal: bool) -> str:
    """The `json.dumps` line, keys sorted, of a report's six fields, from its
    printed sides and its params as `json.dumps(params, sort_keys=True)`: the
    line of `IdentityReport.to_json` and of the CLI's JSON export."""
    return (f'{{"equal": {"true" if equal else "false"}, '
            f'"lhs": "{lhs}", "params": {params_json}, "rhs": "{rhs}", '
            f'"suite": {_quote(suite)}, "variant": {_quote(variant)}}}')


# -- the literal formulas ------------------------------------------------------

def _alt(width: int, weight: Callable[[int], int], index: Callable[[int], int],
         e: Sequence[int], T: int) -> int:
    """2^T sum_{j=0}^{width} C(width, j) weight(j) E[index(j)] over e_i = 2^i E_i
    (weight a sign, or 2^j), an integer while every index(j) <= T; 0 when width < 0."""
    total = 0
    for j in range(width + 1):
        i = index(j)
        total += binom(width, j) * weight(j) * e[i] << (T - i)
    return total


# Each formula is f(e, k, s, T, K) over the table e of e_i = 2^i E_i, the
# shared lower index k (None for T14), the factor count s, the total degree
# T and the lower index sum K, and gives its value times 2^T: no index it
# reads exceeds T.  The single- and two-factor entries read n = T and
# n + m = T, EULER's read n = T.  T12's text tests k = 0, which for T12 is
# K = 0; its formula is shared with T14(I).  None means the text does not
# apply to the case: every T-form holds only for T > K (k < n, n + m > 2k,
# ...), C13 as printed reads E_{K-j} for j up to T - K, E_T = 0 holds for
# even T >= 2 and E_T(2) = sum_j C(T,j) 2^j E_{T-j} = 2 + E_T for T >= 1.
_F = {
    "T1": lambda e, k, s, T, K: (2 << T) + e[T],
    "P2": lambda e, k, s, T, K: _alt(T - k, lambda j: (-1) ** j, lambda j: k + j, e, T),
    "T3": lambda e, k, s, T, K: None if T <= K else (2 << T) + e[T] if k == 0 else _alt(
        k, lambda j: (-1) ** (k - j), lambda j: T - j, e, T),
    "P6": lambda e, k, s, T, K: _alt(
        T - 2 * k, lambda j: (-1) ** j, lambda j: 2 * k + j, e, T),
    "T5": lambda e, k, s, T, K: None if T <= K else (2 << T) + e[T] if k == 0 else _alt(
        2 * k, lambda j: (-1) ** (j + 2 * k), lambda j: T - j, e, T),
    "C9": lambda e, k, s, T, K: _alt(
        T - 3 * k, lambda j: (-1) ** j, lambda j: 3 * k + j, e, T),
    "T8": lambda e, k, s, T, K: None if T <= K else (2 << T) + e[T] if k == 0 else _alt(
        3 * k, lambda j: (-1) ** (3 * k - j), lambda j: T - j, e, T),
    "C11": lambda e, k, s, T, K: _alt(
        T - s * k, lambda j: (-1) ** j, lambda j: s * k + j, e, T),
    "T10": lambda e, k, s, T, K: None if T <= K else (2 << T) + e[T] if k == 0 else _alt(
        s * k, lambda j: (-1) ** (s * k - j), lambda j: T - j, e, T),
    "T12": lambda e, k, s, T, K: None if T <= K else (2 << T) + e[T] if K == 0 else _alt(
        K, lambda j: (-1) ** (K - j), lambda j: T - j, e, T),
    "C13": lambda e, k, s, T, K: _alt(T - K, lambda j: (-1) ** j, lambda j: K + j, e, T),
    "C13 as printed": lambda e, k, s, T, K: None if T - K > K else _alt(
        T - K, lambda j: (-1) ** j, lambda j: K - j, e, T),
    "T14 as printed": lambda e, k, s, T, K: None if T <= K else (
        (2 << T) + e[T] if K == 0 else _alt(
            K, lambda j: (-1) ** (K - j), lambda j: T - K, e, T)),
    "E_T": lambda e, k, s, T, K: e[T],
    "0": lambda e, k, s, T, K: 0 if T >= 2 and T % 2 == 0 else None,
    "E_T(2)": lambda e, k, s, T, K: None if T < 1 else _alt(
        T, lambda j: 2 ** j, lambda j: T - j, e, T),
    "den E_T": lambda e, k, s, T, K: (1 << T) // math.gcd(e[T], 1 << T) << T,
    "top bit": lambda *args: 1 << (_F["den E_T"](*args).bit_length() - 1),
}


# -- the product families --------------------------------------------------------
# family(**ranges) returns (runs, params, text).  The runs (k, prefix, cases)
# come lazily: the cases of a run are the products prefix + (last,), each given
# as (last, key tail), where a factor (k_i, n_i, m_i) stands for
# B_{k_i,n_i}^{m_i}; params(key tail) makes a new params dict of the case, and
# text(key tail) is json.dumps(params(key tail), sort_keys=True), written as
# one f-string in sorted key order.  Both take the `extra` keys of the catalog
# rows of its family (EULER's check, T14's part) as keywords, params last and
# text where they sort.  The cases come in the order of `combinations_with_replacement`
# or `product` over all the factors, so `_sweep` handles a prefix once per run,
# and evaluates its product only for a run that reaches an oracle row.  Sorted,
# the key tails order the cases of one total degree.  A family ignores ranges
# it has no use for, and counts its cases when it is made, without listing
# them: a range over PRODUCTS_MAX (T1..C13) or FULL_PRODUCTS_MAX (T14/C15) is
# refused.

class _Heads(dict):
    """The text "[a, b, " of each tuple (a, b) of ints it is read at: the JSON
    list of the tuple and one more item, up to that item, written once."""

    def __missing__(self, items: tuple) -> str:
        text = self[items] = "[" + "".join(f"{x}, " for x in items)
        return text


def _capped(label: str, counts, limit: int) -> None:
    """Refuse the sweep `label` once the running sum of `counts` passes `limit`;
    a range past 40 digits is named by its length, a total past 133 bits by 2^k."""
    total = 0
    for count in counts:
        total += count
        if total > limit:
            size = total if total.bit_length() <= 133 else f"2^{total.bit_length() - 1}"
            message = (f"{label} would sweep at least {size} products, "
                       f"more than the {limit} allowed")
            raise ValueError(re.sub(r"\d{41,}", lambda m: f"<{len(m[0])} digits>", message))


def _products(label, ks, n_range, m_max, counts, params, text):
    """prod_i B_{k,n_i}^{m_i} for each k in ks and each nondecreasing sequence
    of pairs (n, m), n in the range n_range(k) and 1 <= m <= m_max, whose
    length s is in counts; the sequences of one length come in lexicographic
    order, one run for each of their first s - 1 pairs, so consecutive runs
    share long prefixes.  Key tail (s, k, n_1..n_{s-1}, n_s, m_1..m_{s-1},
    m_s), which sorts as (s, k, n_i..., m_i...) would; the params of a case
    are params(k, [n_i...], [m_i...]) and their text is text(*key tail).
    Returns (runs, params of a key tail, text of a key tail).

    Not a generator: the case count, sum_k sum_s C(width_k + s - 1, s) with
    width_k = |n_range(k)| m_max, is checked when the family is made.
    Widths never grow with k, so both walks end at the first k with no case.
    """
    def live():
        return itertools.takewhile(lambda k: counts and n_range(k) and m_max, ks)
    _capped(label, (math.comb((r.stop - r.start) * m_max + s - 1, s)  # len(r) can overflow
                    for k in live() for r in [n_range(k)] for s in counts), PRODUCTS_MAX)

    def runs():
        for k in live():
            row = [(k, n, m) for n in n_range(k) for m in range(1, m_max + 1)]
            ends = {f: row[i:] for i, f in enumerate(row)}  # the factors from f on
            for s in counts:
                for prefix in itertools.combinations_with_replacement(row, s - 1):
                    _, ns, ms = zip(*prefix) if prefix else ((), (), ())
                    yield k, prefix, [((k, n, m), (s, k, ns, n, ms, m))
                                      for _, n, m in (ends[prefix[-1]] if prefix else row)]

    def params_of(tail, **extra):
        _, k, ns, n, ms, m = tail
        return {**params(k, [*ns, n], [*ms, m]), **extra}

    def text_of(tail, **extra):
        return text(*tail, **extra)
    return runs(), params_of, text_of


def _powers(n_max=DEFAULT_EULER_N_MAX, **_):   # EULER: x^n = B_{n,n}, n >= 0
    return _products(f"EULER with n_max={n_max}", range(n_max + 1), lambda k: range(k, k + 1),
                     1, (1,), lambda k, ns, ms: {"n": k},
                     lambda s, k, ns, n, ms, m, check=None: f'{{"n": {k}}}' if check is None
                     else f'{{"check": {_quote(check)}, "n": {k}}}')


def _ladder(n_max=DEFAULT_SINGLE_N_MAX, **_):   # T1: (1-x)^n, n >= 1
    return _products(f"T1 with n_max={n_max}", (0,), lambda k: range(1, n_max + 1), 1,
                     (1,), lambda k, ns, ms: {"n": ns[0]},
                     lambda s, k, ns, n, ms, m: f'{{"n": {n}}}')


def _fixed(sids: str, count: int, n_default: int, names: tuple, text, lo=lambda k: 0):
    """`count` factors B_{k,n}, lo(k) <= n <= n_max, k <= k_max (default n_max),
    params `names` for k and the n of each factor in turn, and `text` theirs.
    A k past n_max makes every factor 0, so k stops at min(k_max, n_max)."""
    def family(n_max=n_default, k_max=None, **_):
        k_max = n_max if k_max is None else k_max
        return _products(f"{sids} with n_max={n_max}, k_max={k_max}",
                         range(min(k_max, n_max) + 1),
                         lambda k: range(lo(k), n_max + 1), 1, (count,),
                         lambda k, ns, ms: dict(zip(names, [k, *ns])), text)
    return family


_single = _fixed("P2/T3/C4", 1, DEFAULT_SINGLE_N_MAX, ("k", "n"),
                 lambda s, k, ns, n, ms, m: f'{{"k": {k}, "n": {n}}}', lo=lambda k: k)
_two = _fixed("T5/P6/C7", 2, DEFAULT_TWO_DEG_MAX, ("k", "n", "m"),
              lambda s, k, ns, n, ms, m: f'{{"k": {k}, "m": {n}, "n": {ns[0]}}}')
_three = _fixed("T8/C9", 3, DEFAULT_THREE_DEG_MAX, ("k", "n", "m", "s"),
                lambda s, k, ns, n, ms, m: f'{{"k": {k}, "m": {ns[1]}, "n": {ns[0]}, "s": {n}}}')


def _sfold(n_max=DEFAULT_SFOLD_N_MAX, k_max=DEFAULT_SFOLD_K_MAX,
           s_max=DEFAULT_SFOLD_S_MAX, **_):                             # T10, C11
    heads = _Heads()
    return _products(f"T10/C11 with n_max={n_max}, k_max={k_max}, s_max={s_max}",
                     range(k_max + 1), lambda k: range(n_max + 1), 1, range(1, s_max + 1),
                     lambda k, ns, ms: {"k": k, "s": len(ns), "n": ns},
                     lambda s, k, ns, n, ms, m: f'{{"k": {k}, "n": {heads[ns]}{n}], "s": {s}}}')


def _mult(n_max=DEFAULT_SFOLD_N_MAX, k_max=DEFAULT_SFOLD_K_MAX,
          s_max=DEFAULT_SFOLD_S_MAX, m_max=DEFAULT_MULT_M_MAX, **_):   # T12, C13
    heads = _Heads()
    return _products(f"T12/C13 with n_max={n_max}, k_max={k_max}, s_max={s_max}, "
                     f"m_max={m_max}", range(k_max + 1), lambda k: range(n_max + 1),
                     m_max, range(1, s_max + 1),
                     lambda k, ns, ms: {"k": k, "s": len(ns), "n": ns, "m": ms},
                     lambda s, k, ns, n, ms, m:
                     f'{{"k": {k}, "m": {heads[ms]}{m}], "n": {heads[ns]}{n}], "s": {s}}}')


def _full(n_max=DEFAULT_FULL_N_MAX, m_max=DEFAULT_FULL_M_MAX, **_):
    """T14, C15: prod_{i=0}^{n} B_{i,n}^{m_i}, one lower index per factor.
    Key tail (n, m_0..m_{n-1}, m_n), which sorts as (n, m_i...) would.

    Not a generator: the product count is checked when the family is made.
    """
    _capped(f"T14/C15 with n_max={n_max}, m_max={m_max}",
            ((m_max + 1) ** (n + 1) for n in range(n_max + 1)), FULL_PRODUCTS_MAX)
    heads = _Heads()

    def text(tail, part=None):
        n, head, m = tail
        extra = "" if part is None else f', "part": {_quote(part)}'
        return f'{{"m": {heads[head]}{m}], "n": {n}{extra}}}'
    return (((None, tuple((i, n, m) for i, m in enumerate(head)),
              [((n, n, m), (n, head, m)) for m in range(m_max + 1)])
             for n in range(n_max + 1)
             for head in itertools.product(range(m_max + 1), repeat=n)),
            lambda tail, **extra: {"n": tail[0], "m": [*tail[1], tail[2]], **extra}, text)


# -- the catalog -------------------------------------------------------------------

_ORACLE = "oracle"


class _Suite(NamedTuple):
    """One catalog row: a suite, or one check, part or edition of it.  A side
    is _ORACLE or a formula of `_F`, None where the text does not apply (no
    report); against the oracle the right side is scaled by prod_i
    C(n_i,k_i)^{m_i}.  `extra` joins each report's params; `edition` is None
    when the circulating text is correct, else CORRECTED or AS_PRINTED."""
    sid: str
    family: Callable
    lhs: object
    rhs: Callable
    extra: Optional[dict] = None
    edition: Optional[str] = None


_CATALOG = (
    _Suite("EULER", _powers, _F["E_T"], _F["0"], {"check": "even_zero"}),
    _Suite("EULER", _powers, _F["E_T(2)"], _F["T1"], {"check": "shift_two"}),
    _Suite("EULER", _powers, _F["den E_T"], _F["top bit"], {"check": "dyadic_denominator"}),
    _Suite("T1", _ladder, _ORACLE, _F["T1"]),
    _Suite("P2", _single, _ORACLE, _F["P2"]),
    _Suite("T3", _single, _ORACLE, _F["T3"]),
    _Suite("C4", _single, _F["P2"], _F["T3"]),
    _Suite("T5", _two, _ORACLE, _F["T5"]),
    _Suite("P6", _two, _ORACLE, _F["P6"]),
    _Suite("C7", _two, _F["P6"], _F["T5"]),
    _Suite("T8", _three, _ORACLE, _F["T8"]),
    _Suite("C9", _three, _F["C9"], _F["T8"]),
    _Suite("T10", _sfold, _ORACLE, _F["T10"]),
    _Suite("C11", _sfold, _F["C11"], _F["T10"]),
    _Suite("T12", _mult, _ORACLE, _F["T12"]),
    _Suite("C13", _mult, _F["C13"], _F["T12"], edition=CORRECTED),
    _Suite("C13", _mult, _F["C13 as printed"], _F["T12"], edition=AS_PRINTED),
    # the reports of one case come in catalog order: part II before part I
    _Suite("T14", _full, _ORACLE, _F["C13"], {"part": "II"}),
    _Suite("T14", _full, _ORACLE, _F["T12"], {"part": "I"}, CORRECTED),
    _Suite("T14", _full, _ORACLE, _F["T14 as printed"], {"part": "I"}, AS_PRINTED),
    _Suite("C15", _full, _F["C13"], _F["T12"], edition=CORRECTED),
    _Suite("C15", _full, _F["C13"], _F["T14 as printed"], edition=AS_PRINTED),
)
SUITE_ORDER = tuple(dict.fromkeys(row.sid for row in _CATALOG))


class _Part(NamedTuple):
    """What the reports of one catalog row on one sweep share: the suite, the
    variant, `params`, which makes the params of a case from its key tail, and
    `text`, which writes them from the key tail as json.dumps(params,
    sort_keys=True) does."""
    suite: str
    variant: str
    params: Callable[[tuple], dict]
    text: Callable[[tuple], str]

    def report(self, case: tuple, lhs: int, rhs: int, den: int) -> IdentityReport:
        """The report of the row on a case whose sides are lhs and rhs over den."""
        return IdentityReport(self.suite, self.params(case), Fraction(lhs, den),
                              Fraction(rhs, den), self.variant)


class CatalogError(RuntimeError):
    """A formula, the Euler table or the oracle raised in a sweep: a fault of
    the program, which no range can cause (ranges are checked before any sweep)."""


def _sweep(runs, params, text, rows: list, cache: EulerCache) -> dict[str, tuple]:
    """The columns of each suite of `rows` on the cases of one family, whose
    key tails `params` and `text` read: per suite, (cases, parts), the cases
    (T, key tail) in order, total degree then key tail, and per row of the
    suite, in catalog order, (part, lhs, rhs), the numerators over 2^T of its
    two sides on each case, both None where the text of either does not apply.
    A prefix's share of T, K and the prefactor is made once per run, and so
    is its value row folded into W_L, L the run's largest T, the first time a
    case of the run reaches the oracle; the oracle runs at most once per case,
    none for a zero product.  Per-sweep caches hold each factor's share, each
    W_L and the sides of each (k, s, T, K), where `sides_of` runs each formula
    once on one `cache.scaled(T)` read.  A fault raises `CatalogError`, naming
    the suites whose rows hold the formula that raised (else every suite),
    the params of the case, if one was reached, and the exception."""
    values: dict = {}  # each factor's values, see _values
    keys: list = []  # the sort key (T, key tail) of each case
    columns = [([], []) for _ in rows]  # per row, the lhs and the rhs of each case
    factor = lru_cache(maxsize=None)(_factor)
    weights = lru_cache(maxsize=None)(_weights)
    suspects = "/".join(dict.fromkeys(row.sid for row in rows))  # a fault's suites

    @lru_cache(maxsize=None)
    def sides_of(args: tuple) -> list:
        """Each row's (lhs, rhs) on a case, args = (k, s, T, K): _ORACLE or a
        formula's value, both None where either does not apply; a left one runs
        only where the right does, and each formula at most once, on e_0..e_T."""
        e, memo = cache.scaled(args[2]), {_ORACLE: _ORACLE}

        def side(f: Callable) -> Optional[int]:
            nonlocal suspects
            try:
                return memo[f] if f in memo else memo.setdefault(f, f(e, *args))
            except Exception:  # charged to the suites whose rows hold f
                suspects = "/".join(dict.fromkeys(r.sid for r in rows if f in (r.lhs, r.rhs)))
                raise
        return [(None, None) if (right := side(row.rhs)) is None
                or (left := side(row.lhs)) is None else (left, right) for row in rows]

    tail = None  # the case being swept, None between runs
    try:  # entered once, around the whole loop: nothing per case
        for k, prefix, cases in runs:
            T0 = K0 = 0
            c0 = 1
            for f in prefix:
                dT, dK, c = factor(*f)
                T0, K0, c0 = T0 + dT, K0 + dK, c0 * c
            s = len(prefix) + 1
            q, L = None, 0  # the prefix folded into W_L, made for the first oracle row
            for last, tail in cases:
                dT, dK, c = factor(*last)
                T, K = T0 + dT, K0 + dK
                keys.append((T, tail))
                scale = c0 * c
                oracle = None
                for (lhs, rhs), (left, right) in zip(columns, sides_of((k, s, T, K))):
                    if left is _ORACLE:
                        if oracle is None:
                            oracle = 0  # the value of a zero product, which needs no work
                            if scale:
                                if q is None:
                                    L = T0 + max(factor(*f)[0] for f, _ in cases)
                                    q = _folded(weights(L), values, prefix)
                                oracle = _oracle(q, _values(values, last, L), L - T)
                        left, right = oracle, right * scale
                    lhs.append(left)
                    rhs.append(right)
            tail = None
    except Exception as exc:
        case = "" if tail is None else f" {text(tail)}"
        raise CatalogError(f"{suspects}{case}: {type(exc).__name__}: {exc}") from exc

    order = sorted(range(len(keys)), key=keys.__getitem__)
    cases = list(map(keys.__getitem__, order))
    suites: dict[str, tuple] = {}
    for row, (lhs, rhs) in zip(rows, columns):
        extra = row.extra or {}
        part = _Part(row.sid, row.edition or CORRECTED, partial(params, **extra),
                     partial(text, **extra))
        suites.setdefault(row.sid, (cases, []))[1].append(
            (part, list(map(lhs.__getitem__, order)), list(map(rhs.__getitem__, order))))
    return suites


def _block_rows(cases: list, parts: list, unequal: bool) -> Iterator[tuple]:
    """The rows of one block of `_Reports`, see `_Reports._rows`."""
    for i, (T, tail) in enumerate(cases):
        den = 1 << T
        for part, lhs, rhs in parts:
            if lhs[i] is not None and not (unequal and lhs[i] == rhs[i]):
                yield part, tail, lhs[i], rhs[i], den


class _Reports(Sequence):
    """The reports of `run_suites`, kept as the integer columns of `_sweep`.

    The blocks are the (cases, parts) of each suite; a block's reports are,
    case by case, one per part whose sides have values there.  `tally` holds
    (part, reports, unequal) for each part, counted once off its columns, in
    which a side is None exactly where the other is; `bit_length` reads the
    longest integer off the columns too.  Each report, with its params dict
    and lists, is built when it is read; a read by index walks the rows before
    it, `reversed` and `index` walk them once.  Equal to a list of equal
    reports; `+` gives a list.
    """

    def __init__(self, blocks: list) -> None:
        self._blocks = blocks
        self.tally = [(part, len(lhs) - lhs.count(None), sum(map(ne, lhs, rhs)))
                      for _, parts in blocks for part, lhs, rhs in parts]

    def __len__(self) -> int:
        return sum(count for _, count, _ in self.tally)

    def bit_length(self) -> int:
        """The most bits of any integer a row holds, a side or the denominator
        2^T, or more: the longest side in each column, and 2^T of each block's
        last case, whose T is the block's largest."""
        sides = (max(map(int.bit_length, filter(None, column)), default=0)
                 for _, parts in self._blocks for _, lhs, rhs in parts for column in (lhs, rhs))
        dens = (cases[-1][0] + 1 for cases, _ in self._blocks if cases)
        return max(itertools.chain(sides, dens), default=0)

    def _rows(self, unequal: bool = False, cap: Optional[int] = None) -> Iterator[tuple]:
        """(part, key tail, lhs, rhs, denominator) of each report, in order, the
        sides as integers over the denominator (`part.report(*row)` is the
        report; the CLI builds none); with `unequal`, only the rows whose sides
        differ, and no block whose tally has none is read; with `cap`, at most
        `cap` rows of each block, and none past them is read."""
        fails = (fails for _, _, fails in self.tally)
        return itertools.chain.from_iterable(
            itertools.islice(_block_rows(cases, parts, unequal), cap)
            for cases, parts in self._blocks
            if not unequal or sum(itertools.islice(fails, len(parts))))

    def __iter__(self) -> Iterator[IdentityReport]:
        return itertools.starmap(_Part.report, self._rows())

    def __reversed__(self) -> Iterator[IdentityReport]:
        return reversed(list(self))

    def index(self, value, start: int = 0, stop: Optional[int] = None) -> int:
        span = range(len(self))[start:stop]
        return list(itertools.islice(self, span.stop)).index(value, span.start)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        i = range(len(self))[index]  # IndexError past either end
        return _Part.report(*next(itertools.islice(self._rows(), i, None)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, _Reports)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __add__(self, other: Sequence) -> list:
        return list(self) + list(other)


def run_suites(ids: Union[str, Sequence[str]], *,
               n_max: Optional[int] = None,
               k_max: Optional[int] = None,
               s_max: Optional[int] = None,
               m_max: Optional[int] = None,
               variant: str = CORRECTED,
               cache: EulerCache = DEFAULT_CACHE) -> Sequence[IdentityReport]:
    """Run the requested suites and return canonically ordered reports.

    ids is a suite id, a nonempty sequence of them, or "ALL".  A range
    override must be a nonnegative int, not a bool (ValueError otherwise,
    before any sweep); one that a suite has no use for is ignored by it.
    `variant` selects which edition of the typo-carrying entries (C13, T14
    part I, C15) to evaluate: "corrected" (default), "as-printed", or
    "both"; entries whose circulating text is already correct always
    report variant="corrected".

    The result is a read-only sequence that keeps the compared values as
    integers and builds each report, with its params, when it is read; it
    compares equal to a list of the same reports.

    Ordering: suites in catalog order, then one sort key per case: total
    degree, then the remaining parameters lexicographically.  The reports
    of one case keep catalog order (T14 part II, then part I corrected,
    then as-printed).  The ordering, and the report contents, are fully
    deterministic.  A requested suite with no rows raises ValueError.
    """
    if isinstance(ids, str):
        ids = [ids]
    if variant not in (CORRECTED, AS_PRINTED, BOTH):
        raise ValueError(f"unknown variant {_quoted(str(variant))}")
    variants = (CORRECTED, AS_PRINTED) if variant == BOTH else (variant,)
    for sid in ids:
        if sid != "ALL" and sid not in SUITE_ORDER:
            raise ValueError(f"unknown suite id {_quoted(str(sid))}")
    wanted = [sid for sid in SUITE_ORDER if sid in ids or "ALL" in ids]
    if not wanted:
        raise ValueError("no suite requested")
    ranges = {name: value for name, value in zip(("n_max", "k_max", "s_max", "m_max"),
                                                 (n_max, k_max, s_max, m_max))
              if value is not None}
    for name, value in ranges.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"{name} must be a nonnegative int, got {value!r}")
    blocks: dict[str, tuple] = {}
    families: dict[Callable, list] = {}
    for row in _CATALOG:
        if row.sid in wanted and (row.edition is None or row.edition in variants):
            families.setdefault(row.family, []).append(row)
    # make every family before sweeping any, so that a refused range
    # (PRODUCTS_MAX, FULL_PRODUCTS_MAX) costs nothing
    sweeps = [(family(**ranges), rows) for family, rows in families.items()]
    for (runs, params, text), rows in sweeps:
        blocks.update(_sweep(runs, params, text, rows, cache))
    reports = _Reports([blocks[sid] for sid in wanted])
    swept = {part.suite for part, count, _ in reports.tally if count}
    empty = [sid for sid in wanted if sid not in swept]
    if empty:
        raise ValueError(f"empty sweep, no rows for {', '.join(empty)}")
    return reports


def find_counterexample(suite_id: str, variant: str = AS_PRINTED,
                        **ranges) -> Optional[IdentityReport]:
    """First failing report of a suite, or None when the sweep is clean.

    "First" means smallest total degree, ties broken lexicographically on
    the remaining parameters, i.e. the order run_suites emits.  With the
    default variant this locates the minimal counterexample to a
    typo-carrying catalog entry; with variant="corrected" a None return
    is the exhaustive all-clear for the swept range, which walks no row.
    A range that sweeps no rows raises ValueError, as in run_suites.
    """
    rows = run_suites([suite_id], variant=variant, **ranges)._rows(unequal=True)
    return next(itertools.starmap(_Part.report, rows), None)
