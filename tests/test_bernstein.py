"""Tests for the Bernstein basis polynomials and the Bernstein operator."""

from fractions import Fraction

import pytest

from fermibern import (
    Poly,
    bernstein_eval,
    bernstein_operator,
    bernstein_poly,
    binom,
)


PROBES = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]


class TestBasisPolys:
    def test_frozen(self):
        assert bernstein_poly(0, 1) == Poly([1, -1])
        assert bernstein_poly(1, 1) == Poly.x()
        assert bernstein_poly(0, 2) == Poly([1, -2, 1])
        assert bernstein_poly(1, 2) == Poly([0, 2, -2])
        assert bernstein_poly(2, 2) == Poly([0, 0, 1])

    def test_index_past_degree_gives_zero(self):
        assert bernstein_poly(5, 3) == Poly.zero()
        assert bernstein_poly(5, 3).is_zero()
        assert bernstein_poly(4, 3).is_zero()

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            bernstein_poly(-1, 3)
        with pytest.raises(ValueError):
            bernstein_poly(0, -2)
        with pytest.raises(ValueError):
            bernstein_eval(-1, 3, Fraction(1, 2))

    def test_partition_of_unity(self):
        for n in range(41):
            total = Poly.zero()
            for k in range(n + 1):
                total = total + bernstein_poly(k, n)
            assert total == Poly.one()

    def test_symmetry(self):
        # B_{k,n}(1-x) is B_{n-k,n}(x), as polynomials
        for n in range(41):
            for k in range(n + 1):
                assert bernstein_poly(k, n) == bernstein_poly(n - k, n).reflected()

    def test_leading_structure(self):
        for n in range(1, 16):
            for k in range(n + 1):
                p = bernstein_poly(k, n)
                assert p.degree == n
                # lowest surviving power is x^k with coefficient C(n,k)
                assert p.coeff(k) == binom(n, k)
                for j in range(k):
                    assert p.coeff(j) == 0


class TestPointEvaluation:
    def test_frozen_values(self):
        assert bernstein_eval(1, 2, Fraction(1, 2)) == Fraction(1, 2)
        assert bernstein_eval(0, 3, Fraction(0)) == 1
        assert bernstein_eval(3, 3, Fraction(1)) == 1
        assert bernstein_eval(7, 4, Fraction(1, 3)) == 0

    def test_matches_polynomial_route(self):
        for n in range(9):
            for k in range(n + 2):
                p = bernstein_poly(k, n)
                for x in PROBES:
                    assert bernstein_eval(k, n, x) == p(x)

    def test_nonnegative_on_unit_interval(self):
        samples = [Fraction(i, 8) for i in range(9)]
        for n in range(9):
            for k in range(n + 1):
                for x in samples:
                    assert bernstein_eval(k, n, x) >= 0


class TestOperator:
    def test_reproduces_constants(self):
        for n in range(1, 21):
            samples = [Fraction(7, 3)] * (n + 1)
            for x in PROBES:
                assert bernstein_operator(samples, n, x) == Fraction(7, 3)

    def test_reproduces_identity(self):
        # sampling f(x) = x at the nodes k/n returns x itself
        for n in range(1, 21):
            samples = [Fraction(k, n) for k in range(n + 1)]
            for x in PROBES:
                assert bernstein_operator(samples, n, x) == x

    def test_reproduces_affine(self):
        for n in range(1, 13):
            samples = [3 * Fraction(k, n) - Fraction(1, 2) for k in range(n + 1)]
            for x in PROBES:
                assert bernstein_operator(samples, n, x) == 3 * x - Fraction(1, 2)

    def test_frozen_value(self):
        # cubic case at x = 1/4 with identity samples
        samples = [Fraction(k, 3) for k in range(4)]
        assert bernstein_operator(samples, 3, Fraction(1, 4)) == Fraction(1, 4)

    def test_sample_count_enforced(self):
        with pytest.raises(ValueError):
            bernstein_operator([Fraction(1)], 3, Fraction(1, 2))
        with pytest.raises(ValueError):
            bernstein_operator([Fraction(1)] * 5, 3, Fraction(1, 2))
