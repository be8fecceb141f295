"""Tests for p-adic valuations, modular reduction, and residue containers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fermibern import PadicApprox, is_prime, reduce_mod, unit_inverse, vp

from oracles import is_prime_by_trial_division, modinv, vp_by_division


class TestPrimality:
    def test_small_table(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
        for n in range(-2, 32):
            assert is_prime(n) == (n in primes)

    def test_larger_values(self):
        assert is_prime(7919)
        assert not is_prime(7917)
        assert not is_prime(25)

    def test_matches_trial_division_below_200000(self):
        for n in range(200_000):
            assert is_prime(n) == is_prime_by_trial_division(n), n

    def test_strong_pseudoprime_to_the_bases_below_41(self):
        # a strong pseudoprime to every prime base 2..37; only base 41 exposes it
        assert not is_prime(318665857834031151167461)
        assert is_prime(10**20 + 39)

    def test_refused_where_the_bases_no_longer_suffice(self):
        assert not is_prime(3317044064679887385961979)  # divisible by 3
        with pytest.raises(ValueError, match="only below"):
            is_prime(3317044064679887385961981)

    def test_a_long_number_is_named_by_its_bit_length(self):
        # 10^5000 is past the int-to-str limit: the message must not print it
        with pytest.raises(ValueError, match="^cannot decide whether a 16610-bit number") as info:
            is_prime(10**5000)
        assert len(str(info.value)) < 300


class TestValuation:
    def test_frozen(self):
        assert vp(-3, 3) == 1
        assert vp(Fraction(1, 3), 3) == -1
        assert vp(0, 5) == math.inf
        assert vp(8, 2) == 3
        assert vp(Fraction(1, 2), 2) == -1
        assert vp(45, 3) == 2
        assert vp(Fraction(50, 27), 5) == 2
        assert vp(Fraction(50, 27), 3) == -3

    def test_unit_has_valuation_zero(self):
        for p in (2, 3, 5, 7):
            for u in (1, -1, p + 1, p - 1):
                assert vp(u, p) == 0

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            vp(6, 4)
        with pytest.raises(ValueError):
            vp(6, 1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=0, max_value=3000),
        st.sampled_from([2, 3, 5, 7, 11, 101]),
        st.sampled_from([1, -1]),
    )
    def test_deep_valuations_match_one_division_at_a_time(self, a, b, i, j, p, sign):
        x = Fraction(sign * a * p**i, b * p**j)
        assert vp(x, p) == vp_by_division(x, p)

    def test_powers_of_p(self):
        for p in (2, 3, 7):
            for v in list(range(70)) + [1023, 1024, 1025, 4000]:
                assert vp(p**v, p) == v
                assert vp(Fraction(p + 1, p**v), p) == -v
                assert vp((p - 1) * p**v, p) == v

    @given(
        st.fractions(max_denominator=40).filter(lambda f: f != 0),
        st.fractions(max_denominator=40).filter(lambda f: f != 0),
        st.sampled_from([2, 3, 5, 7, 11]),
    )
    def test_multiplicative(self, a, b, p):
        assert vp(a * b, p) == vp(a, p) + vp(b, p)

    @given(
        st.fractions(max_denominator=40),
        st.fractions(max_denominator=40),
        st.sampled_from([2, 3, 5, 7, 11]),
    )
    def test_ultrametric(self, a, b, p):
        assert vp(a + b, p) >= min(vp(a, p), vp(b, p))


class TestReduceMod:
    def test_frozen(self):
        # -1/2 in Z_3: inverse of 2 mod 9 is 5, so -5 = 4 mod 9
        assert reduce_mod(Fraction(-1, 2), 3, 2) == PadicApprox(3, 2, 4)
        assert reduce_mod(7, 3, 1) == PadicApprox(3, 1, 1)
        assert reduce_mod(Fraction(1, 2), 5, 2) == PadicApprox(5, 2, 13)

    def test_against_modinv_oracle(self):
        for p, M in [(3, 1), (3, 3), (5, 2), (7, 2), (11, 1)]:
            mod = p**M
            for num in range(-6, 7):
                for den in (1, 2, mod - 1, mod + 1):
                    x = Fraction(num, den)
                    got = reduce_mod(x, p, M)
                    want = num % mod * modinv(den % mod, mod) % mod
                    assert got.r == want

    def test_ring_homomorphism(self):
        p, M = 5, 3
        mod = p**M
        xs = [Fraction(3, 2), Fraction(-7, 4), Fraction(11), Fraction(1, 6)]
        for a in xs:
            for b in xs:
                ra = reduce_mod(a, p, M).r
                rb = reduce_mod(b, p, M).r
                assert reduce_mod(a + b, p, M).r == (ra + rb) % mod
                assert reduce_mod(a * b, p, M).r == ra * rb % mod

    def test_rejections(self):
        with pytest.raises(ValueError):
            reduce_mod(1, 2, 2)  # p = 2 excluded by design
        with pytest.raises(ValueError):
            reduce_mod(1, 9, 2)
        with pytest.raises(ValueError):
            reduce_mod(1, 3, 0)
        with pytest.raises(ValueError):
            reduce_mod(Fraction(1, 3), 3, 2)  # denominator kills 3-integrality


class TestUnitInverse:
    def test_frozen(self):
        assert unit_inverse(2, 3, 2) == 5

    def test_matches_extended_gcd(self):
        for p, M in [(3, 2), (5, 2), (7, 1)]:
            mod = p**M
            for u in range(1, mod):
                if u % p == 0:
                    continue
                got = unit_inverse(u, p, M)
                assert got == modinv(u, mod)
                assert got * u % mod == 1

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            unit_inverse(3, 3, 2)
        with pytest.raises(ValueError):
            unit_inverse(0, 5, 1)


class TestPadicApprox:
    def test_str(self):
        assert str(PadicApprox(3, 2, 4)) == "4 mod 3^2"
        assert str(PadicApprox(7, 1, 0)) == "0 mod 7^1"

    def test_modulus(self):
        assert PadicApprox(5, 3, 17).modulus == 125

    def test_validation(self):
        with pytest.raises(ValueError):
            PadicApprox(2, 2, 1)  # p must be an odd prime
        with pytest.raises(ValueError):
            PadicApprox(9, 2, 1)
        with pytest.raises(ValueError):
            PadicApprox(3, 0, 0)
        with pytest.raises(ValueError):
            PadicApprox(3, 2, 9)  # residue out of range
        with pytest.raises(ValueError):
            PadicApprox(3, 2, -1)
