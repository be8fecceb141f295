"""Tests for the Euler number and Euler polynomial machinery."""

import threading
from fractions import Fraction

import pytest

from fermibern import (
    EulerCache,
    Poly,
    binom,
    euler_at_two,
    euler_number,
    euler_numbers,
    euler_poly,
    euler_reflect_check,
)

from oracles import euler_numbers_by_series


FROZEN_FIRST_ELEVEN = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 4),
    Fraction(0),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(17, 8),
    Fraction(0),
    Fraction(-31, 2),
    Fraction(0),
]


class TestEulerNumbers:
    def test_frozen_prefix(self):
        assert euler_numbers(10) == FROZEN_FIRST_ELEVEN
        assert euler_number(0) == 1
        assert euler_number(1) == Fraction(-1, 2)
        assert euler_number(7) == Fraction(17, 8)

    def test_against_series_oracle(self):
        # independent route: power series inversion of (e^t + 1)/2
        expected = euler_numbers_by_series(80)
        assert euler_numbers(80) == expected

    def test_even_indices_vanish(self):
        for n in range(2, 61, 2):
            assert euler_number(n) == 0

    def test_defining_sum(self):
        # the recurrence in its raw form: sum_{l<=n} C(n,l) E_l = -E_n
        for n in range(1, 41):
            acc = sum(binom(n, l) * euler_number(l) for l in range(n + 1))
            assert acc + euler_number(n) == 0

    def test_dyadic_denominators(self):
        # denominators are always powers of two
        for n in range(61):
            den = euler_number(n).denominator
            assert den & (den - 1) == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            euler_number(-1)
        with pytest.raises(ValueError):
            euler_numbers(-3)


class TestEulerPolynomials:
    def test_frozen_small_cases(self):
        assert euler_poly(0) == Poly.one()
        assert euler_poly(1) == Poly([Fraction(-1, 2), 1])
        assert euler_poly(2) == Poly([0, -1, 1])
        assert euler_poly(3) == Poly([Fraction(1, 4), 0, Fraction(-3, 2), 1])

    def test_monic_of_exact_degree(self):
        for n in range(25):
            p = euler_poly(n)
            assert p.degree == n
            assert p.coeff(n) == 1

    def test_coefficients_against_series_oracle(self):
        # the x^(n-l) coefficient of E_n(x) is C(n, l) E_l
        reference = euler_numbers_by_series(150)
        cache = EulerCache()
        for n in range(151):
            p = euler_poly(n, cache)
            assert [p.coeff(n - l) for l in range(n + 1)] == [
                binom(n, l) * reference[l] for l in range(n + 1)]

    def test_value_at_zero_is_euler_number(self):
        for n in range(31):
            assert euler_poly(n)(0) == euler_number(n)

    def test_reflection(self):
        for n in range(41):
            assert euler_reflect_check(n)
            sign = -1 if n % 2 else 1
            assert euler_poly(n).reflected() == sign * euler_poly(n)


class TestValueAtTwo:
    def test_frozen(self):
        assert euler_at_two(1) == Fraction(3, 2)
        assert euler_at_two(3) == Fraction(9, 4)

    def test_matches_shift_formula(self):
        for n in range(1, 41):
            assert euler_at_two(n) == 2 + euler_number(n)

    def test_zero_rejected(self):
        # the closed form 2 + E_n only starts at n = 1
        with pytest.raises(ValueError):
            euler_at_two(0)


class TestEulerCache:
    def test_scaled_table_against_series_oracle(self):
        # e_j = 2^j E_j is an integer, the value the recurrence runs on
        cache = EulerCache()
        scaled = cache.scaled(200)
        assert len(scaled) == 201
        assert all(type(e) is int for e in scaled)
        reference = euler_numbers_by_series(200)
        assert [Fraction(e, 2**j) for j, e in enumerate(scaled)] == reference
        assert euler_numbers(200, cache) == reference
        assert cache.scaled(7) == [1, -1, 0, 2, 0, -16, 0, 272]

    def test_reads_agree_with_the_integer_table(self):
        # euler_number and euler_numbers build their Fractions from the
        # integers e_j
        cache = EulerCache()
        scaled = cache.scaled(300)
        prefix = euler_numbers(300, cache)
        for n in range(301):
            assert euler_number(n, cache) == Fraction(scaled[n], 2**n) == prefix[n]
            assert euler_numbers(n, cache) == prefix[: n + 1]

    def test_prefix_matches_values(self):
        cache = EulerCache()
        pre = euler_numbers(12, cache)
        assert len(pre) == 13
        for n, v in enumerate(pre):
            assert euler_number(n, cache) == v

    def test_concurrent_fill(self):
        cache = EulerCache()
        results = {}
        errors = []

        def worker(tag, n):
            try:
                results[tag] = euler_number(n, cache)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i, n))
            for i, n in enumerate([40, 25, 40, 33, 12, 40, 7, 25])
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        reference = euler_numbers_by_series(40)
        for tag, n in enumerate([40, 25, 40, 33, 12, 40, 7, 25]):
            assert results[tag] == reference[n]
