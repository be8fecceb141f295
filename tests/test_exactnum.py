import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermibern.exactnum import Poly, binom, expand_pow_product

from oracles import fpoly, fpoly_add, fpoly_eval, fpoly_mul, fpoly_shift


class TestBinom:
    def test_frozen_values(self):
        assert binom(5, 2) == 10
        assert binom(0, 0) == 1
        assert binom(7, 7) == 1
        assert binom(3, 5) == 0  # k past n degenerates to 0, by design

    def test_pascal_rule(self):
        for n in range(1, 65):
            for k in range(1, n + 1):
                assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)

    def test_row_edges(self):
        for n in range(40):
            assert binom(n, 0) == 1
            assert binom(n, n) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binom(-1, 0)
        with pytest.raises(ValueError):
            binom(3, -2)


class TestPolyBasics:
    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert Poly([0, 0]).coeffs == ()
        assert Poly([0, 0]).degree == -1
        assert Poly([0, 0]).is_zero()

    def test_coeff_lookup_past_degree(self):
        p = Poly([1, 2])
        assert p.coeff(0) == 1
        assert p.coeff(5) == 0

    def test_string_roundtrip(self):
        for text in ["1, -1", "0, 1", "1/2, -3/4, 7"]:
            p = Poly.from_coeff_string(text)
            assert Poly.from_coeff_string(p.to_coeff_string()) == p
        assert Poly.zero().to_coeff_string() == "0"
        assert Poly.from_coeff_string("0").is_zero()

    def test_malformed_strings_rejected(self):
        for bad in ["", "1,,2", "a,b", "1/0", "1e3"]:
            with pytest.raises((ValueError, ZeroDivisionError)):
                Poly.from_coeff_string(bad)

    def test_text_coefficients_share_the_parser_rule(self):
        # Poly(...) and evaluation read text as from_coeff_string does: exact
        # rationals and decimals, and no exponent notation, which for
        # "1e100000000" would build a 10^8-digit integer first
        assert Poly(["3/4", 0]) == Poly([F(3, 4)])
        assert Poly(["2.5"]) == Poly([F(5, 2)])
        assert Poly.x()("1/3") == F(1, 3)
        for build in (lambda: Poly(["1e3"]), lambda: Poly.x()("1e3"),
                      lambda: Poly(["1E3"]), lambda: Poly.from_coeff_string("1, 1e3")):
            with pytest.raises(ValueError, match="exponent"):
                build()

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            Poly.from_coeff_string("1, 1/0")

    def test_monomial(self):
        assert Poly.monomial(3) == Poly([0, 0, 0, 1])
        assert Poly.monomial(0, F(1, 2)) == Poly([F(1, 2)])
        with pytest.raises(ValueError):
            Poly.monomial(-1)

    def test_equality_with_scalars(self):
        assert Poly([5]) == 5
        assert Poly([F(1, 2)]) == F(1, 2)
        assert Poly([0, 1]) != 1


class TestPolyRing:
    def test_small_products(self):
        x = Poly.x()
        assert x * (1 - x) == Poly([0, 1, -1])
        assert (1 - x) * (1 - x) == Poly([1, -2, 1])
        assert (x + 1) * (x - 1) == Poly([-1, 0, 1])

    def test_zero_annihilates(self):
        p = Poly([1, 2, 3])
        assert p * Poly.zero() == Poly.zero()
        assert p + Poly.zero() == p

    def test_pow(self):
        x = Poly.x()
        assert (1 - x) ** 0 == Poly.one()
        assert (1 - x) ** 3 == Poly([1, -3, 3, -1])
        with pytest.raises(ValueError):
            x ** -1

    def test_scalar_ops(self):
        p = Poly([1, 1])
        assert 2 * p == Poly([2, 2])
        assert p * F(1, 2) == Poly([F(1, 2), F(1, 2)])
        assert 1 - p == Poly([0, -1])

    def test_mixed_denominator_product(self):
        # integer numerators times numerators over 6, reduced to one pair
        a = Poly([1, 2, 3])
        b = Poly([F(1, 2), F(-1, 3)])
        assert a * b == Poly([F(1, 2), F(2, 3), F(5, 6), -1])
        assert (2 * a) * (3 * b) == 6 * (a * b)

    def test_compose_and_shift(self):
        p = Poly([0, 0, 1])  # x^2
        assert p.shifted(1) == Poly([1, 2, 1])
        assert p.reflected() == Poly([1, -2, 1])
        q = Poly([1, 1])
        assert q.compose(q) == Poly([2, 1])

    def test_eval_horner(self):
        p = Poly([1, -2, 1])
        assert p(1) == 0
        assert p(F(1, 2)) == F(1, 4)
        assert Poly.zero()(F(7, 3)) == 0


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
small_polys = st.lists(small_fractions, max_size=6).map(Poly)


class TestPolyProperties:
    @settings(max_examples=80, deadline=None)
    @given(small_polys, small_polys, small_fractions)
    def test_eval_is_ring_homomorphism(self, a, b, x):
        assert (a + b)(x) == a(x) + b(x)
        assert (a * b)(x) == a(x) * b(x)

    @settings(max_examples=50, deadline=None)
    @given(small_polys, small_polys, small_polys)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=50, deadline=None)
    @given(small_polys, small_polys)
    def test_mul_commutes_and_degree_adds(self, a, b):
        assert a * b == b * a
        if not a.is_zero() and not b.is_zero():
            assert (a * b).degree == a.degree + b.degree


class TestCanonicalPair:
    def test_frozen_pairs(self):
        p = Poly([F(1, 2), F(-1, 3), 0])
        assert (p.numerators, p.denominator) == ((3, -2), 6)
        assert (Poly([4, 6]).numerators, Poly([4, 6]).denominator) == ((4, 6), 1)
        assert (Poly.zero().numerators, Poly.zero().denominator) == ((), 1)
        assert (Poly(["3/4", 0]).numerators, Poly(["3/4"]).denominator) == ((3,), 4)

    def test_scaling_back_to_integers(self):
        half = Poly([F(1, 2), 1])
        assert half * 2 == Poly([1, 2])
        assert hash(half * 2) == hash(Poly([1, 2]))
        assert (half * 2).denominator == 1
        assert Poly([F(1, 3), F(2, 3)]) + Poly([F(2, 3), F(1, 3)]) == Poly([1, 1])
        assert (Poly([F(1, 3), F(2, 3)]) + Poly([F(2, 3), F(1, 3)])).denominator == 1

    def test_cancellation_to_zero(self):
        p = Poly([F(1, 6), F(5, 7)])
        for zero in (p - p, p + (-p), p * 0, 0 * p):
            assert zero == Poly.zero()
            assert (zero.numerators, zero.denominator) == ((), 1)
            assert hash(zero) == hash(Poly.zero())


rationals = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.fractions(min_value=-9, max_value=9, max_denominator=30),
)
rational_lists = st.lists(rationals, max_size=7)


def _assert_canonical(p):
    nums, den = p.numerators, p.denominator
    assert den >= 1
    assert all(type(n) is int for n in nums)
    if nums:
        assert nums[-1] != 0
        assert math.gcd(den, *nums) == 1
    else:
        assert den == 1
    assert p.coeffs == tuple(F(n, den) for n in nums)


class TestPolyAgainstFractionReference:
    """Every Poly operation against schoolbook Fraction lists (tests/oracles.py)."""

    @settings(max_examples=150, deadline=None)
    @given(rational_lists, rational_lists, rationals)
    def test_ring_operations(self, ca, cb, c):
        a, b = Poly(ca), Poly(cb)
        ra, rb = fpoly(ca), fpoly(cb)
        cases = [
            (a, ra), (a + b, fpoly_add(ra, rb)), (a - b, fpoly_add(ra, [-x for x in rb])),
            (-a, [-x for x in ra]), (a * b, fpoly_mul(ra, rb)),
            (a * c, fpoly_mul(ra, fpoly([c]))), (c - a, fpoly_add(fpoly([c]), [-x for x in ra])),
            (a ** 2, fpoly_mul(ra, ra)),
        ]
        for got, want in cases:
            _assert_canonical(got)
            assert list(got.coeffs) == want
            assert got == Poly(want) and hash(got) == hash(Poly(want))

    @settings(max_examples=100, deadline=None)
    @given(rational_lists, rational_lists)
    def test_equality_and_hash_follow_the_coefficients(self, ca, cb):
        a, b = Poly(ca), Poly(cb)
        assert (a == b) == (fpoly(ca) == fpoly(cb))
        if a == b:
            assert hash(a) == hash(b)
        assert Poly(a.coeffs) == a and hash(Poly(a.coeffs)) == hash(a)

    @settings(max_examples=100, deadline=None)
    @given(rational_lists, rationals)
    def test_eval_and_shift(self, ca, x):
        a, ra = Poly(ca), fpoly(ca)
        assert a(x) == fpoly_eval(ra, F(x))
        assert type(a(x)) is F
        shifted = a.shifted(x)
        _assert_canonical(shifted)
        assert list(shifted.coeffs) == fpoly_shift(ra, F(x))

    @settings(max_examples=60, deadline=None)
    @given(rational_lists)
    def test_coeff_lookup_and_strings(self, ca):
        a, ra = Poly(ca), fpoly(ca)
        assert [a.coeff(i) for i in range(len(ra) + 2)] == ra + [0, 0]
        assert Poly.from_coeff_string(a.to_coeff_string()) == a
        assert a.to_coeff_string() == (", ".join(map(str, ra)) if ra else "0")


class TestExpandPowProduct:
    def test_frozen_expansions(self):
        assert expand_pow_product(0, 2) == Poly([1, -2, 1])
        assert expand_pow_product(1, 1) == Poly([0, 1, -1])
        assert expand_pow_product(0, 0) == Poly.one()
        # binomial-theorem reference for x^2 (1-x)^3: the x^(2+j) term
        # carries (-1)^j C(3, j), so x^3 gets -3 and x^4 gets +3
        assert expand_pow_product(2, 3).coeff(3) == -3
        assert expand_pow_product(2, 3).coeff(4) == 3

    def test_against_binomial_theorem(self):
        for k in range(8):
            for m in range(8):
                p = expand_pow_product(k, m)
                for j in range(m + 1):
                    assert p.coeff(k + j) == (-1) ** j * binom(m, j)

    def test_whole_rows_match_comb(self):
        # the rows are built by the ratio C(m, j+1) = C(m, j)(m-j)/(j+1)
        for m in range(301):
            want = tuple((-1) ** j * binom(m, j) for j in range(m + 1))
            for k in (0, 3):
                p = expand_pow_product(k, m)
                assert p.numerators == (0,) * k + want
                assert p.denominator == 1

    def test_degree_exact(self):
        for k in range(6):
            for m in range(6):
                assert expand_pow_product(k, m).degree == k + m

    def test_pointwise_agreement(self):
        probes = [F(0), F(1), F(1, 2), F(-2), F(7, 3)]
        for k in range(13):
            for m in range(13):
                p = expand_pow_product(k, m)
                for x in probes:
                    assert p(x) == x**k * (1 - x) ** m

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            expand_pow_product(-1, 2)
        with pytest.raises(ValueError):
            expand_pow_product(2, -1)
