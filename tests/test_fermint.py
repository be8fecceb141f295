"""Tests for the alternating-sum integral: moments, partial sums, traces."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermibern import fermint
from fermibern import (
    DEFAULT_CACHE,
    EulerCache,
    PadicApprox,
    PartialSumTrace,
    Poly,
    convergence_trace,
    euler_number,
    integrate,
    integrate_reflected,
    integrate_shifted,
    partial_sum,
    q_partial_sum,
    reduce_mod,
    vp,
)

from oracles import alternating_sum, euler_numbers_by_series, q_weighted_value


class TestMoments:
    def test_monomials_give_euler_numbers(self):
        for n in range(11):
            assert integrate(Poly.monomial(n)) == euler_number(n)

    def test_constant(self):
        assert integrate(Poly.one()) == 1
        assert integrate(Poly([Fraction(2, 3)])) == Fraction(2, 3)

    def test_linearity(self):
        f = Poly([1, 2, 3])
        g = Poly([0, Fraction(-1, 2), 0, 5])
        assert integrate(f + g) == integrate(f) + integrate(g)
        assert integrate(Fraction(7, 2) * f) == Fraction(7, 2) * integrate(f)

    def test_zero(self):
        assert integrate(Poly.zero()) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.integers(-10**6, 10**6),
                              st.fractions(-50, 50, max_denominator=90)),
                    max_size=40))
    def test_against_series_moments(self, coeffs):
        f = Poly(coeffs)
        E = euler_numbers_by_series(40)
        want = sum((c * E[j] for j, c in enumerate(f.coeffs)), Fraction(0))
        got = integrate(f)
        assert type(got) is Fraction
        assert got == want


class TestShiftedArguments:
    def test_frozen(self):
        assert integrate_shifted(Poly.x(), 1) == Fraction(1, 2)
        assert integrate_shifted(Poly.monomial(2), 2) == 2

    def test_one_step_equation(self):
        # the defining relation: integrating f(x+1) + f(x) yields 2 f(0)
        for n in range(21):
            f = Poly.monomial(n)
            assert integrate_shifted(f, 1) + integrate(f) == 2 * f(0)

    def test_iterated_equals_direct(self):
        f = Poly([1, -2, 0, 3])
        for n in range(1, 7):
            # walk the one-step relation n times by shifting repeatedly
            g = f
            for _ in range(n):
                g = g.shifted(1)
            assert integrate(g) == integrate_shifted(f, n)

    def test_shift_zero_is_identity(self):
        f = Poly([2, 0, 1])
        assert integrate_shifted(f, 0) == integrate(f)


def _faulty_table(faults):
    """A fresh Euler table with e_j = 2^j E_j off by faults[j]."""
    cache = EulerCache()
    cache.ensure(max(faults))
    for j, delta in faults.items():
        cache._scaled[j] += delta
    return cache


class TestTableFaults:
    # partial sums read no Euler number, so a wrong table cannot shift them
    # along with the integral they are compared against
    F = Poly([1, -2, 0, 3, 0, 1])

    def test_trace_shows_a_gap_below_depth(self):
        trace = convergence_trace(self.F, 5, 4, _faulty_table({3: 1, 5: -7}))
        assert any(gap < N for N, _, gap in trace.rows)

    def test_partial_sum_ignores_the_table(self, monkeypatch):
        # the default table, faulted for this test only
        monkeypatch.setattr(DEFAULT_CACHE, "_scaled", _faulty_table({3: 1, 5: -7})._scaled)
        assert partial_sum(self.F, 5, 2) == alternating_sum(self.F.coeffs, 5, 2) == 4417321

    def test_shift_rule_catches_the_table(self):
        with pytest.raises(ArithmeticError):
            integrate_shifted(Poly([1, -2, 0, 3]), 2, _faulty_table({3: 1}))


class TestReflectedArguments:
    def test_frozen(self):
        assert integrate_reflected(1) == Fraction(3, 2)
        assert integrate_reflected(2) == 2

    def test_matches_shift_two(self):
        for n in range(1, 41):
            assert integrate_reflected(n) == 2 + euler_number(n)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            integrate_reflected(0)


@st.composite
def partial_sum_cases(draw):
    """(f, p, N): deg f <= 6, p in {3, 5, 7}, p^N <= 343, and coefficient
    denominators that may carry powers of p (f need not be p-integral)."""
    p = draw(st.sampled_from([3, 5, 7]))
    N = draw(st.integers(0, {3: 5, 5: 3, 7: 3}[p]))
    coeff = st.builds(lambda num, den, e: Fraction(num, den * p**e),
                      st.integers(-30, 30), st.integers(1, 8), st.integers(0, 2))
    return Poly(draw(st.lists(coeff, max_size=7))), p, N


class TestPartialSums:
    def test_frozen(self):
        assert partial_sum(Poly.x(), 3, 1) == 1
        assert partial_sum(Poly.x(), 3, 2) == 4

    def test_wrong_weights_give_a_denominator_that_is_refused(self, monkeypatch):
        # S_N sums values of f, so its denominator divides that of f; with
        # W_{1,0} one too large, x would give S_2 = 25/4 instead of 4
        weights = fermint._weights
        monkeypatch.setattr(fermint, "_weights", lambda T: [
            w + (T == 1 and i == 0) for i, w in enumerate(weights(T))])
        with pytest.raises(ArithmeticError, match="denominator"):
            partial_sum(Poly([0, 1]), 3, 2)

    def test_against_direct_loop(self):
        polys = [
            Poly.x(),
            Poly([Fraction(1, 2), 0, Fraction(-2, 3)]),
            Poly([0, 0, 0, 1]),
            Poly([5]),
        ]
        for f in polys:
            for p in (3, 5):
                for N in range(4):
                    assert partial_sum(f, p, N) == alternating_sum(f.coeffs, p, N)

    def test_empty_range(self):
        # N = 0 sums a single term, x = 0
        f = Poly([7, 1])
        assert partial_sum(f, 5, 0) == 7

    @settings(max_examples=60, deadline=None)
    @given(partial_sum_cases())
    def test_matches_direct_loop_on_random_polys(self, case):
        f, p, N = case
        assert partial_sum(f, p, N) == alternating_sum(f.coeffs, p, N)


class TestConvergenceTraces:
    def test_frozen_gaps(self):
        trace = convergence_trace(Poly.x(), 3, 2)
        assert trace.p == 3
        assert [row[0] for row in trace.rows] == [1, 2]
        assert [row[1] for row in trace.rows] == [1, 4]
        assert [row[2] for row in trace.rows] == [1, 2]

    def test_constant_converges_instantly(self):
        trace = convergence_trace(Poly.one(), 5, 3)
        assert all(gap == math.inf for _, _, gap in trace.rows)

    def test_gaps_meet_depth_bound(self):
        trace = convergence_trace(Poly.monomial(3), 3, 4)
        gaps = [gap for _, _, gap in trace.rows]
        assert gaps == [3, 5, 7, 9]
        for N, S, gap in trace.rows:
            assert gap >= N
            # recheck against a from-scratch partial sum
            assert S == alternating_sum((0, 0, 0, 1), 3, N)
            assert vp(S - euler_number(3), 3) == gap

    def test_deep_trace_of_x(self):
        # S_N(x) = (p^N - 1)/2 and E_1 = -1/2, so S_N - E_1 = p^N / 2;
        # a loop over x < 7^12 would take about 1.4e10 steps
        p = 7
        trace = convergence_trace(Poly.x(), p, 12)
        assert trace.rows == tuple((N, Fraction(p**N - 1, 2), N)
                                   for N in range(1, 13))
        for N in range(1, 13):
            assert partial_sum(Poly.x(), p, N) == Fraction(p**N - 1, 2)

    def test_csv_format(self):
        trace = convergence_trace(Poly.x(), 3, 2)
        assert trace.to_csv() == "N,S_N,valuation_gap\n1,1,1\n2,4,2\n"
        inf_trace = convergence_trace(Poly.one(), 5, 1)
        assert inf_trace.to_csv() == "N,S_N,valuation_gap\n1,1,inf\n"

    def test_trace_is_frozen_dataclass(self):
        trace = convergence_trace(Poly.x(), 3, 1)
        with pytest.raises(AttributeError):
            trace.p = 5
        assert trace == PartialSumTrace(3, ((1, Fraction(1), 1),))


class TestWeightedPartialSums:
    def test_weight_one_matches_plain_route(self):
        for p in (3, 5):
            for n in range(4):
                f = Poly.monomial(n)
                for N in range(1, 4):
                    for M in range(1, 4):
                        got = q_partial_sum(f, p, 1, N, M)
                        want = reduce_mod(partial_sum(f, p, N), p, M)
                        assert got == want

    def test_constant_function_normalizes_to_one(self):
        # the weight normalizer is calibrated so f = 1 integrates to 1
        f = Poly.one()
        for p in (3, 5, 7):
            for q in (1, 1 + p, 1 - p, 1 + p * p):
                for N in range(1, 4):
                    for M in range(1, 4):
                        got = q_partial_sum(f, p, q, N, M)
                        assert got == PadicApprox(p, M, 1 % p**M)

    def test_against_exact_rational_oracle(self):
        p, N, M = 3, 2, 2
        for q in (1, 4, -2, 7):
            for f in (Poly.x(), Poly([1, 0, 2])):
                exact = q_weighted_value(f.coeffs, p, q, N)
                assert q_partial_sum(f, p, q, N, M) == reduce_mod(exact, p, M)

    def test_rational_weight(self):
        # q = 1 + p/(1+p) is a unit shift with positive valuation of q-1
        p = 3
        q = 1 + Fraction(p, 1 + p)
        exact = q_weighted_value(Poly.x().coeffs, p, q, 2)
        assert q_partial_sum(Poly.x(), p, q, 2, 2) == reduce_mod(exact, p, 2)

    def test_rejections(self):
        with pytest.raises(ValueError):
            q_partial_sum(Poly.x(), 3, Fraction(1, 2), 1, 1)  # q-1 not divisible
        with pytest.raises(ValueError):
            q_partial_sum(Poly.x(), 2, 1, 1, 1)  # p = 2 excluded
        with pytest.raises(ValueError):
            q_partial_sum(Poly([Fraction(1, 3), 1]), 3, 1, 1, 1)  # non-integral
        with pytest.raises(ValueError):
            q_partial_sum(Poly.x(), 3, 1, 1, 0)  # precision must be positive
