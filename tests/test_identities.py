"""Tests for the identity catalog: reports, sweeps, counterexamples."""

import hashlib
import io
import itertools
import json
import math
import sys
import time
from collections.abc import Sequence
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermibern import cli, identities
from fermibern.euler import DEFAULT_CACHE, EulerCache
from fermibern.cli import (_verdict, render_verify_csv, render_verify_json,
                           render_verify_table)
from fermibern.cli import main as cli_main
from fermibern import (
    AS_PRINTED,
    CORRECTED,
    IdentityReport,
    Poly,
    ProductSpec,
    SUITE_ORDER,
    bernstein_eval,
    bernstein_poly,
    binom,
    euler_number,
    find_counterexample,
    oracle_integral,
    run_suites,
)

from oracles import FRACTION_FORMULAS, bernstein_product_integral, euler_numbers_by_series
from test_cli import _logging_walks, _swept


PROBES = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3)]


class TestProductSpec:
    def test_empty_product(self):
        spec = ProductSpec()
        assert spec.degree == 0
        assert spec.poly() == Poly.one()
        assert oracle_integral(spec) == 1

    def test_degree(self):
        assert ProductSpec(((1, 2, 3), (0, 4, 1))).degree == 10

    def test_zero_multiplicity_factor_is_dropped(self):
        assert ProductSpec(((1, 2, 0),)).poly() == Poly.one()

    def test_index_past_degree_kills_product(self):
        spec = ProductSpec(((5, 3, 1), (0, 2, 1)))
        assert spec.poly().is_zero()
        assert oracle_integral(spec) == 0

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            ProductSpec(((-1, 2, 1),))
        with pytest.raises(ValueError):
            ProductSpec(((0, 2, -1),))

    def test_poly_matches_pointwise_product(self):
        specs = [
            ProductSpec(((1, 2, 2),)),
            ProductSpec(((0, 1, 1), (1, 1, 1))),
            ProductSpec(((1, 3, 2), (2, 3, 1))),
        ]
        for spec in specs:
            p = spec.poly()
            for x in PROBES:
                direct = Fraction(1)
                for k, n, m in spec.factors:
                    direct *= bernstein_eval(k, n, x) ** m
                assert p(x) == direct


# products beyond every default sweep: lower indices differ between
# factors, degrees up to 30 (defaults stop at 20, 12 and 8), up to four
# factors with multiplicities up to 3 (defaults stop at 2)
_wide_specs = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 3)).map(
        lambda t: (min(t[0], t[1] + 1), t[1], t[2])),
    min_size=1, max_size=4,
).filter(lambda fs: sum(n * m for _, n, m in fs) <= 90).map(
    lambda fs: ProductSpec(tuple(fs)))
_SERIES_E = euler_numbers_by_series(90)

# sequences of runs, each a prefix and the last factors that end it, as a
# sweep hands them to the oracle: some prefix factors vanish (k > n), some
# factors are 1 (m = 0), a last factor has k <= n, as in every family, and
# the largest degree of a run rises and falls from run to run, so that the
# value rows the runs share have to grow
_small_factors = st.tuples(st.integers(0, 7), st.integers(0, 6), st.integers(0, 2))
_last_factors = st.integers(0, 6).flatmap(
    lambda n: st.tuples(st.integers(0, n), st.just(n), st.integers(0, 2)))
_sweep_like_runs = st.lists(
    st.tuples(st.lists(_small_factors, max_size=4),
              st.lists(_last_factors, min_size=1, max_size=4)),
    min_size=1, max_size=10)


def _k_at_most_n(calls: list):
    """`identities._values`, which first asserts that its factor has k <= n
    and logs it in `calls`."""
    values = identities._values

    def checked(memo, f, L):
        k, n, _ = f
        assert k <= n, f
        calls.append(f)
        return values(memo, f, L)
    return checked


class TestOracle:
    def test_frozen(self):
        assert oracle_integral(ProductSpec(((1, 2, 1),))) == -1
        assert oracle_integral(ProductSpec(((0, 2, 1),))) == 2

    def test_frozen_repeated_factor(self):
        assert oracle_integral(ProductSpec(((1, 2, 2),))) == -2
        assert oracle_integral(ProductSpec(((1, 2, 3),))) == -10

    @settings(max_examples=60, deadline=None)
    @given(_wide_specs)
    def test_against_fraction_products_outside_sweep_ranges(self, spec):
        want = bernstein_product_integral(spec.factors, _SERIES_E)
        assert oracle_integral(spec) == want

    @settings(max_examples=60, deadline=None)
    @given(_sweep_like_runs)
    def test_sweep_like_runs_match_fraction_products(self, runs):
        # one value memo for the whole sequence, as in a sweep: each run folds
        # its prefix into W_L once, L its largest total degree, the first time
        # a case has a nonzero prefactor, and each such case is one dot
        # product and a shift by L - T; a case with prefactor 0 is 0 unread
        values = {}
        for prefix, lasts in runs:
            T0 = sum(n * m for _, n, m in prefix)
            L = T0 + max(n * m for _, n, m in lasts)
            q = None
            for last in lasts:
                want = bernstein_product_integral(prefix + [last], _SERIES_E)
                if not math.prod(binom(n, k) ** m for k, n, m in prefix + [last]):
                    assert want == 0
                    continue
                if q is None:
                    q = identities._folded(identities._weights(L), values, prefix)
                T = T0 + last[1] * last[2]
                value = identities._oracle(q, identities._values(values, last, L), L - T)
                assert Fraction(value, 1 << T) == want

    def test_the_sweep_reads_values_only_for_k_at_most_n(self, monkeypatch):
        calls = []
        monkeypatch.setattr(identities, "_values", _k_at_most_n(calls))
        assert _verdict(run_suites("ALL", variant="both"), True).ok
        assert len(set(calls)) > 100  # the sweep's values went through the wrapper

    @settings(max_examples=60, deadline=None)
    @given(_wide_specs)
    def test_oracle_integral_reads_values_only_for_k_at_most_n(self, spec):
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(identities, "_values", _k_at_most_n(calls))
            got = oracle_integral(spec)
        assert got == bernstein_product_integral(spec.factors, _SERIES_E)

    def test_weights_give_the_series_euler_numbers(self):
        # sum_i i^n W_{T,i} = 2^T I(x^n) = 2^T E_n for every n <= T <= 90, with
        # E_n from the exponential series, not from the production table
        for T in range(91):
            w = identities._weights(T)
            assert len(w) == T + 1
            for n in range(T + 1):
                assert sum(i ** n * wi for i, wi in enumerate(w)) == _SERIES_E[n] * 2 ** T, (T, n)

    def test_weight_recurrence_matches_the_closed_sum(self):
        # the closed form W_{T,i} = (-1)^i sum_{l>i} C(T+1,l) equals
        # W_{T,i} = (-1)^i sum_{j=i}^{T} C(j,i) 2^(T-j) and satisfies the
        # recurrence W_{T,i} = 2 W_{T-1,i} + (-1)^i C(T,i), W_{T-1,T} = 0
        previous = None
        for T in range(91):
            w = identities._weights(T)
            assert w == [(-1) ** i * sum(math.comb(j, i) << (T - j) for j in range(i, T + 1))
                         for i in range(T + 1)], T
            if T:
                assert w == [2 * a + (-1) ** i * math.comb(T, i)
                             for i, a in enumerate(previous + [0])], T
            previous = w

    def test_zero_product_builds_nothing(self, monkeypatch):
        def no_values(*args):
            raise AssertionError("a factor of a zero product was evaluated")
        monkeypatch.setattr(identities, "_values", no_values)
        for factors in (((5, 3, 1), (0, 2, 1)), ((0, 2, 1), (1, 4, 0), (3, 2, 2))):
            assert oracle_integral(ProductSpec(factors)) == 0


class TestSingleFactorSuites:
    def test_t1_range(self):
        reports = run_suites(["T1"], n_max=30)
        assert len(reports) == 30
        assert all(r.equal for r in reports)

    def test_p2_frozen_value(self):
        reports = run_suites(["P2"], n_max=2)
        row = next(r for r in reports if r.params == {"k": 1, "n": 2})
        assert row.lhs == -1
        assert row.rhs == -1
        assert row.equal

    def test_p2_includes_diagonal(self):
        reports = run_suites(["P2"], n_max=5)
        assert any(r.params["k"] == r.params["n"] == 5 for r in reports)

    def test_t3_c4_exclude_diagonal(self):
        for sid in ("T3", "C4"):
            reports = run_suites([sid], n_max=5)
            assert all(r.params["k"] < r.params["n"] for r in reports)
            assert all(r.equal for r in reports)


class TestProductSuites:
    def test_t5_frozen_value(self):
        reports = run_suites(["T5"], n_max=2, k_max=1)
        row = next(r for r in reports
                   if r.params == {"k": 1, "n": 2, "m": 2})
        assert row.lhs == -2
        assert row.equal

    def test_t8_frozen_value(self):
        reports = run_suites(["T8"], n_max=2, k_max=1)
        row = next(r for r in reports
                   if r.params == {"k": 1, "n": 2, "m": 2, "s": 2})
        assert row.lhs == -10
        assert row.equal

    def test_p6_covers_degenerate_products(self):
        # k past the first degree: the product is zero and the
        # prefactor vanishes, so the row still balances
        reports = run_suites(["P6"], n_max=2, k_max=4)
        degenerate = [r for r in reports if r.params["k"] > r.params["n"]]
        assert degenerate
        for r in degenerate:
            assert r.lhs == 0
            assert r.equal

    def test_small_sweeps_pass(self):
        for sid, kw in [
            ("C4", {"n_max": 8}),
            ("C7", {"n_max": 6}),
            ("C9", {"n_max": 4}),
            ("T10", {"s_max": 2, "n_max": 4, "k_max": 2}),
            ("C11", {"s_max": 2, "n_max": 4, "k_max": 2}),
            ("T12", {"s_max": 2, "n_max": 4, "m_max": 2, "k_max": 2}),
            ("C13", {"s_max": 2, "n_max": 4, "m_max": 2, "k_max": 2}),
            ("T14", {"n_max": 3, "m_max": 2}),
            ("C15", {"n_max": 3, "m_max": 2}),
        ]:
            reports = run_suites([sid], **kw)
            assert reports, sid
            assert all(r.equal for r in reports), sid


class TestCrossSuiteConsistency:
    def test_sfold_with_one_factor_matches_single(self):
        singles = {(r.params["k"], r.params["n"]): r
                   for r in run_suites(["T3"], n_max=6)}
        folds = run_suites(["T10"], s_max=1, n_max=6, k_max=6)
        assert folds
        for r in folds:
            key = (r.params["k"], r.params["n"][0])
            assert key in singles
            assert r.lhs == singles[key].lhs
            assert r.rhs == singles[key].rhs

    def test_multiplicity_one_matches_sfold(self):
        folds = {(r.params["k"], tuple(r.params["n"])): r
                 for r in run_suites(["T10"], s_max=3, n_max=4, k_max=2)}
        mults = run_suites(["T12"], s_max=3, n_max=4, m_max=1, k_max=2)
        assert len(mults) == len(folds)
        for r in mults:
            assert all(m == 1 for m in r.params["m"])
            ref = folds[(r.params["k"], tuple(r.params["n"]))]
            assert r.lhs == ref.lhs
            assert r.rhs == ref.rhs

    def test_full_sweep_with_single_factor_matches_single_suites(self):
        p2 = {(r.params["k"], r.params["n"]): r
              for r in run_suites(["P2"], n_max=4)}
        t3 = {(r.params["k"], r.params["n"]): r
              for r in run_suites(["T3"], n_max=4)}
        for r in run_suites(["T14"], n_max=4, m_max=1):
            mults = r.params["m"]
            if sum(mults) != 1:
                continue
            i = mults.index(1)
            n = r.params["n"]
            if r.params["part"] == "II":
                ref = p2[(i, n)]
            else:
                ref = t3[(i, n)]
            assert r.lhs == ref.lhs
            assert r.rhs == ref.rhs

    def test_product_collapses_to_single_basis_polynomial(self):
        # prod_i B_{i,n}^{m_i} is a scalar multiple of B_{K,T} where
        # T = n sum(m_i) and K = sum(i m_i)
        for n in range(4):
            for mults in _all_mult_tuples(n, 2):
                total = n * sum(mults)
                kk = sum(i * m for i, m in enumerate(mults))
                spec = ProductSpec(tuple(
                    (i, n, m) for i, m in enumerate(mults) if m))
                scale = Fraction(1)
                for i, m in enumerate(mults):
                    scale *= Fraction(binom(n, i)) ** m
                scale /= binom(total, kk)
                assert spec.poly() == scale * bernstein_poly(kk, total)

    def test_literal_signs_match_parity_simplified(self):
        # the catalog keeps (-1)^(j+2k) and (-1)^(3k-j) literally; both
        # must equal their reduced forms (-1)^j and (-1)^(k+j)
        for k in range(4):
            for t in range(2 * k, 2 * k + 5):
                lit = sum(binom(2 * k, j) * (-1) ** (j + 2 * k) * euler_number(t - j)
                          for j in range(2 * k + 1))
                red = sum(binom(2 * k, j) * (-1) ** j * euler_number(t - j)
                          for j in range(2 * k + 1))
                assert lit == red
            for t in range(3 * k, 3 * k + 5):
                lit = sum(binom(3 * k, j) * (-1) ** (3 * k - j) * euler_number(t - j)
                          for j in range(3 * k + 1))
                red = sum(binom(3 * k, j) * (-1) ** (k + j) * euler_number(t - j)
                          for j in range(3 * k + 1))
                assert lit == red


def _all_mult_tuples(n, m_max):
    out = [()]
    for _ in range(n + 1):
        out = [t + (m,) for t in out for m in range(m_max + 1)]
    return out


class TestVariants:
    def test_corrected_sweeps_have_no_counterexample(self):
        assert find_counterexample("T12", variant=CORRECTED,
                                   s_max=2, n_max=4, m_max=2, k_max=2) is None
        assert find_counterexample("C13", variant=CORRECTED,
                                   s_max=2, n_max=4, m_max=2, k_max=2) is None

    def test_c13_minimal_counterexample(self):
        bad = find_counterexample("C13", s_max=1, n_max=3, m_max=1, k_max=1)
        assert bad is not None
        assert bad.variant == AS_PRINTED
        assert bad.params == {"k": 1, "s": 1, "n": [2], "m": [1]}
        assert bad.lhs == Fraction(-3, 2)
        assert bad.rhs == Fraction(-1, 2)
        assert not bad.equal

    def test_t14_minimal_counterexample(self):
        bad = find_counterexample("T14", n_max=2, m_max=2)
        assert bad is not None
        assert bad.params == {"n": 1, "m": [1, 1], "part": "I"}
        assert bad.lhs == Fraction(-1, 2)
        assert bad.rhs == 0

    def test_c15_minimal_counterexample(self):
        bad = find_counterexample("C15", n_max=2, m_max=2)
        assert bad is not None
        assert bad.params == {"n": 1, "m": [1, 1]}
        assert bad.lhs == Fraction(-1, 2)
        assert bad.rhs == 0

    def test_a_clean_sweep_walks_no_row(self, monkeypatch):
        # the first unequal row is read off `_rows(unequal=True)`, which
        # skips every block whose tally is clean: a clean sweep walks no
        # row, a failing one the block of its suite once
        walked = []
        monkeypatch.setattr(identities, "run_suites", lambda *args, **kwargs:
                            _logging_walks(run_suites(*args, **kwargs), walked))
        assert find_counterexample("T3", variant=CORRECTED) is None
        assert walked == []
        bad = find_counterexample("C13", s_max=1, n_max=3, m_max=1, k_max=1)
        assert bad.params == {"k": 1, "s": 1, "n": [2], "m": [1]}
        assert walked == ["C13"]

    @pytest.mark.parametrize("suite, ranges", [
        ("C13", dict(variant=AS_PRINTED, k_max=0)),
        ("T1", dict(variant=CORRECTED, n_max=0)),
    ])
    def test_empty_sweep_is_no_all_clear(self, suite, ranges):
        # a sweep that checks nothing must not pass as "no counterexample"
        with pytest.raises(ValueError, match=f"empty sweep, no rows for {suite}"):
            find_counterexample(suite, **ranges)

    def test_as_printed_c13_avoids_negative_indices(self):
        # rows where the misprinted index would go negative are skipped,
        # so every surviving row has T - K <= K
        reports = run_suites(["C13"], variant=AS_PRINTED,
                             s_max=2, n_max=4, m_max=2, k_max=2)
        assert reports
        for r in reports:
            total = sum(n * m for n, m in zip(r.params["n"], r.params["m"]))
            kk = r.params["k"] * sum(r.params["m"])
            assert total - kk <= kk

    def test_both_emits_corrected_then_as_printed(self):
        # the reports of one case are adjacent; T14 gives part II, then
        # part I corrected, then part I as-printed
        for sid, order in (("C13", [(None, CORRECTED), (None, AS_PRINTED)]),
                           ("T14", [("II", CORRECTED), ("I", CORRECTED),
                                    ("I", AS_PRINTED)]),
                           ("C15", [(None, CORRECTED), (None, AS_PRINTED)])):
            reports = run_suites([sid], n_max=2, m_max=1, s_max=2, k_max=1,
                                 variant="both")
            groups = []
            for r in reports:
                case = {k: v for k, v in r.params.items() if k != "part"}
                if not groups or groups[-1][0] != case:
                    groups.append((case, []))
                groups[-1][1].append((r.params.get("part"), r.variant))
            assert len({json.dumps(c, sort_keys=True) for c, _ in groups}) == len(groups)
            assert any(g == order for _, g in groups), sid
            for _, g in groups:
                assert g == [x for x in order if x in g], (sid, g)

    def test_typo_free_suites_ignore_variant_flag(self):
        a = run_suites(["T3"], n_max=4, variant=AS_PRINTED)
        b = run_suites(["T3"], n_max=4)
        assert a == b
        assert all(r.variant == CORRECTED for r in a)

    def test_t14_part_two_is_variant_insensitive(self):
        reports = run_suites(["T14"], n_max=2, m_max=1, variant=AS_PRINTED)
        part_two = [r for r in reports if r.params["part"] == "II"]
        assert part_two
        assert all(r.variant == CORRECTED and r.equal for r in part_two)


# a report line that reads: every field as `to_json` writes it
_LINE = {"equal": True, "lhs": "1", "params": {"n": 1}, "rhs": "1", "suite": "T1",
         "variant": CORRECTED}


class TestReports:
    def test_json_roundtrip(self):
        reports = run_suites(["T3", "C13"], s_max=1, n_max=3, m_max=1,
                             k_max=1, variant="both")
        assert reports
        for r in reports:
            line = r.to_json()
            assert IdentityReport.from_json(line) == r
            # serialized form is a flat json object with sorted keys
            d = json.loads(line)
            assert list(d) == sorted(d)

    def test_line_is_the_json_dumps_line(self):
        # the CLI's f-string template gives the bytes json.dumps gives for
        # each report read off the same rows, which is `to_json`, also for
        # suite and variant strings that need escaping
        for reports in (run_suites(["EULER", "T1", "T14"], n_max=3, m_max=1, variant="both"),
                        _swept('T"1\\', "\u00e9d\n", {"n": [1, 2], "k": "\u00e9"}, -7, 6, 1),
                        # stored over a denominator the values do not need: printed reduced
                        _swept("T1", CORRECTED, {"n": 2}, -12, 6, 3),
                        _swept("T1", CORRECTED, {"n": 3}, 16, 0, 4)):
            lines = []
            for r in reports:
                expected = json.dumps({"suite": r.suite, "params": r.params,
                                       "lhs": str(r.lhs), "rhs": str(r.rhs),
                                       "equal": r.equal, "variant": r.variant},
                                      sort_keys=True)
                assert r.to_json() == expected
                lines.append(expected + "\n")
            assert _rendered(render_verify_json, reports) == "".join(lines)

    def test_tampered_equal_flag_rejected(self):
        r = run_suites(["T1"], n_max=2)[0]
        d = json.loads(r.to_json())
        d["equal"] = not d["equal"]
        with pytest.raises(ValueError):
            IdentityReport.from_json(json.dumps(d))

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_exponent_notation_is_refused(self, side):
        # Fraction("1e1000000") would build a 3.3-million-bit numerator
        d = {**json.loads(run_suites(["T1"], n_max=2)[0].to_json()), "lhs": "0", "rhs": "0",
             "equal": False}
        for text in ("1e1000000", "1E1000000"):
            d[side] = text
            with pytest.raises(ValueError, match="exponent"):
                IdentityReport.from_json(json.dumps(d))
        d[side] = "2.5"  # a decimal still reads exactly
        assert getattr(IdentityReport.from_json(json.dumps(d)), side) == Fraction(5, 2)

    @pytest.mark.parametrize("lhs, rhs, equal", [
        ("true", '"1"', "true"),           # once read as 1
        ("0.1", '"1/10"', "false"),        # once read as a binary float
        ('"1"', "1e400", "false"),         # once OverflowError
        ("[1]", '"1"', "false"),           # once TypeError
        ('"1"', "null", "false"),          # once TypeError
        ('"1"', '"1"', "1"),               # once read as true
        ('"1"', '"2"', "0"),               # once read as false
    ], ids=["lhs-bool", "lhs-float", "rhs-inf", "lhs-list", "rhs-null", "equal-1", "equal-0"])
    def test_from_json_refuses_bad_types(self, lhs, rhs, equal):
        # lhs and rhs must be JSON strings and equal a JSON bool
        line = (f'{{"equal": {equal}, "lhs": {lhs}, "params": {{"n": 1}}, "rhs": {rhs}, '
                f'"suite": "T1", "variant": "corrected"}}')
        with pytest.raises(ValueError):
            IdentityReport.from_json(line)

    @pytest.mark.parametrize("line", [
        pytest.param("[1]", id="list"),                      # once TypeError
        pytest.param('"T1"', id="string"),                   # once TypeError
        pytest.param("null", id="null"),                     # once TypeError
        pytest.param({k: v for k, v in _LINE.items() if k != "suite"},
                     id="no-suite"),                         # once KeyError
        pytest.param({k: v for k, v in _LINE.items() if k != "equal"},
                     id="no-equal"),                         # once KeyError
        # each of the rest once read as a report
        pytest.param({**_LINE, "note": "x"}, id="extra-key"),
        pytest.param({**_LINE, "suite": 5}, id="suite-int"),
        pytest.param({**_LINE, "suite": "T99"}, id="suite-unknown"),
        pytest.param({**_LINE, "variant": "bogus"}, id="variant-unknown"),
        pytest.param({**_LINE, "variant": "both"}, id="variant-both"),
        pytest.param({**_LINE, "params": None}, id="params-null"),
        pytest.param({**_LINE, "params": [1]}, id="params-list"),
        pytest.param({**_LINE, "params": None, "suite": 5, "variant": "bogus"},
                     id="all-three"),
    ])
    def test_from_json_refuses_malformed_lines(self, line):
        # a line is an object of exactly the six keys, with a catalog suite,
        # a corrected or as-printed variant and params an object
        assert IdentityReport.from_json(json.dumps(_LINE)) == IdentityReport(
            "T1", {"n": 1}, Fraction(1), Fraction(1))
        with pytest.raises(ValueError):
            IdentityReport.from_json(line if isinstance(line, str) else json.dumps(line))

    def test_reports_have_slots_and_round_trip(self):
        reports = run_suites(["T12", "C13"], n_max=3, s_max=2, m_max=2, k_max=1,
                             variant="both")
        for r in reports:
            assert not hasattr(r, "__dict__")
            assert IdentityReport.from_json(r.to_json()) == r

    def test_equal_is_derived(self):
        r = IdentityReport("T1", {"n": 1}, Fraction(3, 2), Fraction(3, 2))
        assert r.equal
        r.rhs = Fraction(0)
        assert not r.equal

    def test_reports_compare_values_not_denominators(self):
        # a report read off a sweep's rows, stored over 2^11, equals the one
        # made of the same values in lowest terms
        r = IdentityReport("T1", {"n": 1}, Fraction(3, 2), Fraction(-1, 4))
        read = identities._Part("T1", CORRECTED, lambda case: {"n": 1},
                                lambda case: '{"n": 1}').report(
            (), 3 << 10, -1 << 9, 1 << 11)
        assert (read.lhs, read.rhs) == (Fraction(3, 2), Fraction(-1, 4))
        assert r == read == _swept("T1", CORRECTED, {"n": 1}, 3 << 10, -1 << 9, 11)[0]
        assert r != IdentityReport("T1", {"n": 1}, Fraction(6, 8), Fraction(-1, 8))
        assert r != IdentityReport("T1", {"n": 2}, Fraction(6, 4), Fraction(-1, 4))
        assert r != IdentityReport("T1", {"n": 1}, Fraction(6, 4), Fraction(-1, 4), AS_PRINTED)


class TestRunSuites:
    def test_deterministic(self):
        kw = dict(s_max=2, n_max=3, m_max=1, k_max=1, variant="both")
        assert run_suites(["T12", "C13"], **kw) == run_suites(["T12", "C13"], **kw)

    def test_single_string_id(self):
        assert run_suites("T1", n_max=3) == run_suites(["T1"], n_max=3)

    def test_reports_are_a_sequence_built_on_read(self):
        # the result keeps integer columns and builds each report, with new
        # params, when it is read; it reads like the list of its reports
        reports = run_suites(["EULER", "T14"], n_max=2, m_max=1, variant="both")
        listed = list(reports)
        assert len(reports) == len(listed) == 36
        assert reports == listed and listed == reports and reports != listed[:-1]
        assert [reports[i] for i in (0, 5, -1, -len(listed))] == [
            listed[i] for i in (0, 5, -1, -len(listed))]
        assert reports[3:30:4] == listed[3:30:4]
        for i in (len(listed), -len(listed) - 1):
            with pytest.raises(IndexError):
                reports[i]
        assert reports[0] is not reports[0] and reports[0].params is not reports[0].params
        assert reports + reports == listed + listed
        assert not hasattr(reports, "append")

    def test_reversed_and_index_walk_the_rows_once(self, monkeypatch):
        # Sequence's own reversed() and index() read one report per index,
        # and each read walks the rows before it; these walk them once and
        # agree with Sequence's, start and stop included
        reports = run_suites("T5", n_max=3)
        listed = list(reports)
        last, walks = listed[-1], []
        rows_of = identities._Reports._rows
        monkeypatch.setattr(identities._Reports, "_rows", lambda self, **kwargs:
                            walks.append(kwargs) or rows_of(self, **kwargs))
        assert list(reversed(reports)) == listed[::-1]
        assert reports.index(last) == len(listed) - 1
        assert walks == [{}, {}]
        n = len(listed)
        for value in (listed[0], listed[3], last):
            for start, stop in [(0, None), (3, None), (-2, None), (-n - 5, None),
                                (0, 3), (1, -1), (4, 2), (0, n + 5), (0, -n - 5)]:
                try:
                    want = Sequence.index(listed, value, start, stop)
                except ValueError:
                    with pytest.raises(ValueError):
                        reports.index(value, start, stop)
                else:
                    assert reports.index(value, start, stop) == want

    def test_empty_sweep_names_every_empty_suite(self):
        # a sweep that checks nothing must not return an empty all-clear
        with pytest.raises(ValueError, match="empty sweep, no rows for T1, T3, C13"):
            run_suites(["T1", "T3", "C13"], n_max=0, k_max=0)

    def test_all_expands_in_canonical_order(self):
        reports = run_suites("ALL", n_max=3, s_max=2, m_max=1, k_max=1)
        seen = []
        for r in reports:
            if not seen or seen[-1] != r.suite:
                seen.append(r.suite)
        assert seen == list(SUITE_ORDER)
        assert all(r.equal for r in reports)

    def test_request_order_does_not_matter(self):
        a = run_suites(["C4", "P2"], n_max=3)
        b = run_suites(["P2", "C4"], n_max=3)
        assert a == b
        assert [r.suite for r in a if r.suite == "P2"]  # P2 present
        first_c4 = next(i for i, r in enumerate(a) if r.suite == "C4")
        assert all(r.suite == "P2" for r in a[:first_c4])

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suites(["T99"])
        with pytest.raises(ValueError):
            run_suites(["t1"])

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_suites(["T1"], variant="fixed")

    @pytest.fixture
    def no_family(self, monkeypatch):
        """Every catalog family fails the test if it is made."""
        def no_family(**ranges):
            raise AssertionError("a family was made before the refusal")
        monkeypatch.setattr(identities, "_CATALOG", tuple(
            row._replace(family=no_family) for row in identities._CATALOG))

    @pytest.mark.parametrize("value", [-1, 2.5, "3", True])
    @pytest.mark.parametrize("name", ["n_max", "k_max", "s_max", "m_max"])
    def test_range_must_be_a_nonnegative_int(self, name, value, no_family):
        # refused with one message that names the range, before any row or
        # family is made; a bool is not a range, though True == 1
        with pytest.raises(ValueError, match=f"^{name} must be a nonnegative int, got "):
            run_suites("ALL", **{name: value})

    def test_no_suite_is_refused(self, no_family):
        # an empty request checks nothing, so it must not return an empty
        # all-clear; it is refused before any family is made
        with pytest.raises(ValueError, match="no suite requested"):
            run_suites([])

    def test_euler_suite(self):
        reports = run_suites(["EULER"], n_max=30)
        checks = {r.params["check"] for r in reports}
        assert checks == {"even_zero", "shift_two", "dyadic_denominator"}
        assert all(r.equal for r in reports)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestCostGuard:
    def test_oversized_full_sweep_is_refused_up_front(self, monkeypatch):
        def no_values(*args):
            raise AssertionError("a product was evaluated before the refusal")
        monkeypatch.setattr(identities, "_values", no_values)
        for ids in (["T14"], ["C15"], ["T12", "T14"], "ALL"):
            with pytest.raises(ValueError, match=r"at least \d+ products"):
                run_suites(ids, n_max=12)
        with pytest.raises(ValueError, match="T14/C15"):
            run_suites(["C15"], n_max=10**9, m_max=0)

    def test_oversized_product_sweep_is_refused_up_front(self, monkeypatch):
        def no_values(*args):
            raise AssertionError("a product was evaluated before the refusal")
        monkeypatch.setattr(identities, "_values", no_values)
        for ids in (["T10"], ["C11"], ["T12"], ["C13"], ["T1", "T12"], "ALL"):
            with pytest.raises(ValueError, match=r"at least \d+ products"):
                run_suites(ids, s_max=30)
        with pytest.raises(ValueError, match="T12/C13"):
            run_suites(["C13"], n_max=10**9)
        with pytest.raises(ValueError, match="T1 "):
            run_suites(["T1"], n_max=10**9)
        with pytest.raises(ValueError, match="T5/P6/C7"):
            run_suites(["P6"], n_max=10**9)

    def test_limit_sits_between_the_last_allowed_and_first_refused_range(self):
        def count(n_max, m_max):
            return sum((m_max + 1) ** (n + 1) for n in range(n_max + 1))
        limit = identities.FULL_PRODUCTS_MAX
        assert count(identities.DEFAULT_FULL_N_MAX, identities.DEFAULT_FULL_M_MAX) < limit
        assert count(9, 2) <= limit < count(10, 2)
        # ranges that ignore T14/C15 are not limited by it
        assert run_suites(["T1"], n_max=12)

    def test_product_limit_admits_every_default_and_t12_at_s_max_five(self):
        def count(s_max):  # T12/C13 at the default n_max = 8, k_max = 3, m_max = 2
            return 4 * sum(math.comb(9 * 2 + s - 1, s) for s in range(1, s_max + 1))
        limit = identities.PRODUCTS_MAX
        assert count(identities.DEFAULT_SFOLD_S_MAX) == 29_256
        assert count(s_max=5) == 134_592 <= limit < count(s_max=6)
        for family in (identities._ladder, identities._single, identities._two,
                       identities._three, identities._sfold, identities._mult):
            family()
        identities._mult(s_max=5)
        with pytest.raises(ValueError, match="s_max=6, m_max=2 would sweep"):
            identities._mult(s_max=6)


JSON_SHA256 = "a8af3dfa1a138a85bb247949e98818f2feec2ba47e20f37c8ebf83085a686e6d"
CSV_SHA256 = "b795c324739b86639ac57fe9e5bd427e2e83c0afe8b41d87ff1c14f17b68d960"


@pytest.fixture(scope="module")
def full_audit():
    """The reports of `verify ALL --variant both`, made once for this module."""
    return run_suites("ALL", variant="both")


def _rendered(render, reports):
    buf = io.StringIO()
    render(reports, buf)
    return buf.getvalue()


class _Sink:
    """A text stream that keeps what is written and the longest single write."""

    def __init__(self):
        self.parts, self.largest = [], 0

    def write(self, text):
        self.parts.append(text)
        self.largest = max(self.largest, len(text))
        return len(text)


# (formula, factor count s) for each formula of `_F`: the formulas with a
# shared lower index k read K = s k, the others (s None) read K alone
_T_FORMS = [("T3", 1), ("T5", 2), ("T8", 3), ("T10", 4), ("T12", None),
            ("T14 as printed", None)]
_OTHER_FORMS = [("T1", None), ("P2", 1), ("P6", 2), ("C9", 3), ("C11", 4), ("C13", None),
                ("C13 as printed", None), ("E_T", None), ("0", None), ("E_T(2)", None),
                ("den E_T", None), ("top bit", None)]


def _formula_grid(s):
    """(T, K, k) for T, K < 16: with a factor count s, K = s k."""
    for T in range(16):
        for K in range(16):
            if s is None or K % s == 0:
                yield T, K, None if s is None else K // s


class _BoundedTable:
    """A table that refuses an index outside it, where a list would wrap a
    negative one."""

    def __init__(self, table):
        self.table = table

    def __getitem__(self, i):
        assert 0 <= i < len(self.table), i
        return self.table[i]


def _walked(reports):
    """(part, reports, unequal) of each part of a `run_suites` result, counted
    row by row over its `_rows`, in the order of its tally."""
    counted = {part: [0, 0] for part, _, _ in reports.tally}
    for part, _, lhs, rhs, _ in reports._rows():
        counted[part][0] += 1
        counted[part][1] += lhs != rhs
    assert len(counted) == len(reports.tally)
    return [(part, *count) for part, count in counted.items()]


class TestCatalogEngine:
    def test_full_audit_is_byte_identical_to_the_reference(self, full_audit):
        # the reference digests of `verify ALL --variant both --deterministic`
        # rendered as json, as csv and as a table with --expect-typos, and of
        # its corrected reports alone, which is `verify ALL --deterministic`
        reports = full_audit
        assert _sha256(_rendered(render_verify_json, reports)) == JSON_SHA256
        assert _sha256(_rendered(render_verify_csv, reports)) == CSV_SHA256
        assert _sha256(render_verify_table(reports, _verdict(reports, True), True)) == (
            "7cf090d2752db93d886d1660ab562e1e9ca59e37bac1b69ad28e0b961a5a0276")
        corrected = run_suites("ALL")
        assert _sha256(render_verify_table(corrected, _verdict(corrected, False), True)) == (
            "bc209a5775cc0907fb777fc6a66ee97da6da39d1d5c1f742e36797552166571b")

    def test_a_side_is_none_exactly_where_the_other_is(self, full_audit):
        # the sweep stores both sides of a case or neither (C13 as printed
        # past K - j < 0 and EULER's E_T(2) at T = 0 once kept a right side
        # beside no left one), so the tally read off each part's columns is
        # the count a walk over its rows gives
        for _, parts in full_audit._blocks:
            for part, lhs, rhs in parts:
                assert [v is None for v in lhs] == [v is None for v in rhs], part
        assert full_audit.tally == _walked(full_audit)
        assert [sum(bad for part, _, bad in full_audit.tally if part.variant == variant)
                for variant in (CORRECTED, AS_PRINTED)] == [0, 10_256]

    @pytest.mark.parametrize("render, digest", [(render_verify_json, JSON_SHA256),
                                                (render_verify_csv, CSV_SHA256)],
                             ids=["json", "csv"])
    def test_full_audit_is_streamed_in_small_writes(self, full_audit, render, digest):
        # the 13.9 MB export goes out row by row, never as one string
        sink = _Sink()
        render(full_audit, sink)
        assert len(sink.parts) >= len(full_audit)
        assert sink.largest <= 64 * 1024
        assert _sha256("".join(sink.parts)) == digest

    def test_json_export_runs_no_json_encoder(self, full_audit, monkeypatch):
        # each family writes a case's params text from its key tail, so the
        # export of `verify ALL --variant both` hands no params dict to `json`
        encoded = []
        iterencode = json.JSONEncoder.iterencode
        monkeypatch.setattr(json.JSONEncoder, "iterencode", lambda self, o, *args, **kwargs:
                            encoded.append(o) or iterencode(self, o, *args, **kwargs))
        assert _sha256(_rendered(render_verify_json, full_audit)) == JSON_SHA256
        assert encoded == []
        json.dumps({"n": 1}, sort_keys=True)  # the patch does see an encoder run
        assert encoded == [{"n": 1}]

    def test_printability_is_read_off_the_columns(self, full_audit, monkeypatch):
        # no integer of the export has more than 302 bits, far under the
        # 2,126 bits that print at the lowest int-to-str limit (640 digits),
        # so the check reads the columns and walks no row, at either limit
        rows_of = identities._Reports._rows
        walked = max(max(lhs.bit_length(), rhs.bit_length(), den.bit_length())
                     for _, _, lhs, rhs, den in rows_of(full_audit))
        assert full_audit.bit_length() == walked == 302
        walks = []
        monkeypatch.setattr(identities._Reports, "_rows", lambda reports, **kwargs:
                            walks.append(kwargs) or rows_of(reports, **kwargs))
        cli._check_printable(full_audit)
        if hasattr(sys, "set_int_max_str_digits"):
            old = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(640)
            try:
                cli._check_printable(full_audit)
            finally:
                sys.set_int_max_str_digits(old)
        assert walks == []

    def test_params_text_is_the_json_dumps_text(self):
        # each family writes the params of a case as json.dumps(params,
        # sort_keys=True) does, with the extra keys of each of its catalog
        # rows and without, on every case of a small sweep; so does each part
        # of the sweep, with its own extra keys
        ranges = dict(n_max=4, k_max=2, s_max=3, m_max=2)
        extras = {}  # per family: no extra keys, then each row's
        for row in identities._CATALOG:
            extras.setdefault(row.family, [{}]).extend([row.extra] if row.extra else [])
        for family, family_extras in extras.items():
            runs, params, text = family(**ranges)
            tails = [tail for _, _, cases in runs for _, tail in cases]
            assert tails
            for extra in family_extras:
                for tail in tails:
                    assert text(tail, **extra) == json.dumps({**params(tail), **extra},
                                                             sort_keys=True), (tail, extra)
        reports = run_suites("ALL", variant="both", **ranges)
        for cases, parts in reports._blocks:
            for part, _, _ in parts:
                for _, tail in cases:
                    assert part.text(tail) == json.dumps(part.params(tail), sort_keys=True)

    def test_families_stream_their_cases(self):
        # 126,500 products of up to 250 factors, under PRODUCTS_MAX, take
        # seconds to list: the family must not list them first
        start = time.perf_counter()
        runs, params, text = identities._mult(n_max=1, s_max=250, m_max=1)
        k, prefix, cases = next(runs)
        assert time.perf_counter() - start < 1.0
        assert (k, prefix, cases[0]) == (0, (), ((0, 0, 1), (1, 0, (), 0, (), 1)))
        assert params(cases[0][1]) == {"k": 0, "s": 1, "n": [0], "m": [1]}
        assert text(cases[0][1]) == '{"k": 0, "m": [1], "n": [0], "s": 1}'

    @pytest.mark.parametrize("family, ranges", [
        ("_mult", dict(n_max=3, k_max=2, s_max=3, m_max=2)),
        ("_sfold", dict(n_max=3, k_max=1, s_max=3)),
        ("_full", dict(n_max=3, m_max=2))])
    def test_runs_list_the_cases_in_combination_order(self, family, ranges):
        # the runs, flattened, are the products combinations_with_replacement
        # (or product, for T14/C15) lists, in its order, and their key tails
        # sort them as the tuples (s, k, n_i..., m_i...) or (n, m_i...) would
        runs, params_of, _ = getattr(identities, family)(**ranges)
        cases = [(k, prefix + (last,), tail, params_of(tail))
                 for k, prefix, run in runs
                 for last, tail in run]
        if family == "_full":
            want = [tuple((i, n, m) for i, m in enumerate(ms))
                    for n in range(ranges["n_max"] + 1)
                    for ms in itertools.product(range(ranges["m_max"] + 1), repeat=n + 1)]
            flat = [(f[0][1], tuple(m for _, _, m in f)) for _, f, _, _ in cases]
        else:
            m_max = ranges.get("m_max", 1)
            want = [factors for k in range(ranges["k_max"] + 1)
                    for s in range(1, ranges["s_max"] + 1)
                    for factors in itertools.combinations_with_replacement(
                        [(k, n, m) for n in range(ranges["n_max"] + 1)
                         for m in range(1, m_max + 1)], s)]
            flat = [(len(f), k, tuple(n for _, n, _ in f), tuple(m for _, _, m in f))
                    for k, f, _, _ in cases]
        assert [f for _, f, _, _ in cases] == want
        by_tail = sorted(range(len(cases)), key=lambda i: cases[i][2])
        assert by_tail == sorted(range(len(cases)), key=flat.__getitem__)
        for k, f, _, params in cases:  # each case's params, made from its key tail
            ns, ms = [n for _, n, _ in f], [m for _, _, m in f]
            assert params == ({"n": f[0][1], "m": ms} if family == "_full" else
                              {"k": k, "s": len(f), "n": ns,
                               **({"m": ms} if family == "_mult" else {})})
        assert len({id(params) for _, _, _, params in cases}) == len(cases)

    @pytest.mark.parametrize("name, s", _T_FORMS)
    def test_t_form_applies_only_for_t_above_k(self, name, s):
        # each T-form holds under T > K (k < n, n + m > 2k, ...) and returns
        # None, "the text does not apply", elsewhere; the forms with a shared
        # lower index k have K = s k, T12 and T14(I) read K alone
        e = DEFAULT_CACHE.scaled(40)
        for T, K, k in _formula_grid(s):
            value = identities._F[name](e, k, s or 1, T, K)
            assert (value is None) == (T <= K), (T, K)
            assert value is None or isinstance(value, int)

    @pytest.mark.parametrize("name, s", _T_FORMS + _OTHER_FORMS)
    def test_integer_formulas_match_the_fraction_route(self, name, s):
        # each formula gives 2^T times the value its Fraction form sums from
        # the series Euler numbers, and None in the same places; no index
        # it reads passes T
        assert {n for n, _ in _T_FORMS + _OTHER_FORMS} == set(identities._F)
        integer, fraction = identities._F[name], FRACTION_FORMULAS[name]
        for T, K, k in _formula_grid(s):
            e = _BoundedTable(DEFAULT_CACHE.scaled(T))
            value, want = integer(e, k, s or 1, T, K), fraction(_SERIES_E, k, s or 1, T, K)
            assert (value is None) == (want is None), (T, K)
            assert value is None or Fraction(value, 1 << T) == want, (T, K)

    def test_sweep_builds_few_fractions(self, monkeypatch):
        # the sides are compared and stored as integer numerators, EULER's
        # too: the sweep once built 89,468 Fractions, and now builds none,
        # nor does a pass over its rows (only a report read makes two)
        built = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(None)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        reports = run_suites("ALL")
        assert len(reports) == 76_897
        assert all(lhs == rhs for _, _, lhs, rhs, _ in reports._rows())
        assert built == []
        Fraction(1, 3)  # the patch does count what is built
        assert len(built) == 1

    def test_each_literal_side_runs_once_and_only_where_its_row_applies(self, full_audit,
                                                                        monkeypatch):
        # with every formula and family of the catalog wrapped to log its
        # calls, the sweep evaluates each formula at most once per family and
        # case (k, s, T, K), and a left formula only on a case where the right
        # formula of one of its rows applies; the reports stay as they were
        catalog, calls, family_now = identities._CATALOG, [], [None]

        def counted(f):
            def logged(e, *args):
                value = f(e, *args)
                calls.append((family_now[0], f, args, value))
                return value
            return logged

        def marked(family):
            def runs(**ranges):
                made, params, text = family(**ranges)  # refuses a range when made, as before

                def walk():
                    for run in made:
                        family_now[0] = family
                        yield run
                return walk(), params, text
            return runs

        formulas = {f: counted(f) for f in identities._F.values()}
        families = {row.family: marked(row.family) for row in catalog}
        monkeypatch.setattr(identities, "_CATALOG", tuple(
            row._replace(family=families[row.family], lhs=formulas.get(row.lhs, row.lhs),
                         rhs=formulas[row.rhs]) for row in catalog))
        assert run_suites("ALL", variant="both") == full_audit

        keys = [(family, f, args) for family, f, args, _ in calls]
        assert len(keys) == len(set(keys))
        value = {(family, f, args): v for family, f, args, v in calls}
        assert None in value.values()
        for family, f, args in keys:
            assert any(row.rhs is f or (row.lhs is f and value.get((family, row.rhs, args))
                                        is not None)
                       for row in catalog if row.family is family), (f, args)

    @pytest.mark.parametrize("ids", [["C13"], "ALL"], ids=["C13", "ALL"])
    def test_c13_alone_never_multiplies_polynomials(self, ids, monkeypatch):
        # the oracle evaluates products at integers, C13 compares two closed
        # forms, and EULER reads E_n(2) off the table: no suite multiplies
        # polynomials
        calls = []
        mul = Poly.__mul__

        def counted(self, other):
            calls.append(None)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counted)
        monkeypatch.setattr(Poly, "__rmul__", counted)
        reports = run_suites(ids, variant="both")
        assert reports
        assert all(r.equal for r in reports if r.variant == CORRECTED)
        assert calls == []


# the params keys of each suite's reports in insertion order, which the
# table's failure lines and demo 05 print: the family's keys, then the
# catalog row's extra keys
PARAMS_ORDER = {"EULER": ["n", "check"], "T1": ["n"], "P2": ["k", "n"], "T3": ["k", "n"],
                "C4": ["k", "n"], "T5": ["k", "n", "m"], "P6": ["k", "n", "m"],
                "C7": ["k", "n", "m"], "T8": ["k", "n", "m", "s"], "C9": ["k", "n", "m", "s"],
                "T10": ["k", "s", "n"], "C11": ["k", "s", "n"], "T12": ["k", "s", "n", "m"],
                "C13": ["k", "s", "n", "m"], "T14": ["n", "m", "part"], "C15": ["n", "m"]}


@pytest.mark.parametrize("row", [
    pytest.param(row, id="-".join([row.sid, *(row.extra or {}).values(),
                                   *filter(None, [row.edition])]))
    for row in identities._CATALOG])
def test_params_keep_the_catalog_key_order(row):
    reports = [r for r in run_suites(row.sid, variant="both", n_max=4, k_max=2, s_max=2, m_max=2)
               if r.variant == (row.edition or CORRECTED)
               and r.params.items() >= (row.extra or {}).items()]
    assert reports
    assert {tuple(r.params) for r in reports} == {tuple(PARAMS_ORDER[row.sid])}


class _ShiftedTable:
    """The Euler table read one index up, or one down at the top end, so a
    shifted index never leaves the table and never wraps around."""

    def __init__(self, table):
        self.table = table

    def __getitem__(self, i):
        assert 0 <= i < len(self.table), i
        return self.table[i + 1] if i + 1 < len(self.table) else self.table[i - 1]


def _shifted(side):
    return lambda E, *args: side(_ShiftedTable(E), *args)


FAULT_RANGES = dict(n_max=4, k_max=2, s_max=2, m_max=2)  # inside every default


def _literal_sides():
    """(row, side name) for every literal side of every row that the
    corrected sweep runs; the test id of the right side of a suite's first
    row is the suite id alone."""
    firsts = {}
    for row in identities._CATALOG:
        if row.edition == AS_PRINTED:
            continue
        first = firsts.setdefault(row.sid, row) is row
        for side in ("lhs", "rhs"):
            # the constant 0 reads no table entry, so no index fault can move it
            if getattr(row, side) not in (identities._ORACLE, identities._F["0"]):
                tag = "" if first else "".join(f"-{k}{v}" for k, v in row.extra.items())
                yield pytest.param(row, side, id=row.sid + tag + ("-lhs" if side == "lhs" else ""))


@pytest.mark.parametrize("row, side", _literal_sides())
def test_injected_index_fault_is_caught(row, side, monkeypatch):
    assert find_counterexample(row.sid, variant=CORRECTED, **FAULT_RANGES) is None
    broken = row._replace(**{side: _shifted(getattr(row, side))})
    monkeypatch.setattr(identities, "_CATALOG", tuple(
        broken if r is row else r for r in identities._CATALOG))
    bad = find_counterexample(row.sid, variant=CORRECTED, **FAULT_RANGES)
    assert bad is not None
    assert bad.suite == row.sid and bad.variant == CORRECTED
    assert bad.params.items() >= (row.extra or {}).items()


@pytest.mark.parametrize("sid", ["T1", "P2", "T3", "T5", "P6", "T8", "T10", "T12", "T14"])
def test_injected_oracle_fault_is_caught(sid, monkeypatch):
    # every factor B_{k,n}^m the oracle evaluates comes out doubled
    values = identities._values
    monkeypatch.setattr(identities, "_values",
                        lambda memo, f, L: [2 * v for v in values(memo, f, L)])
    bad = find_counterexample(sid, variant=CORRECTED, **FAULT_RANGES)
    assert bad is not None
    assert bad.suite == sid and bad.variant == CORRECTED and not bad.equal


@pytest.mark.parametrize("entry", [0, 1, 2], ids=["degree", "lower-sum", "prefactor"])
def test_injected_factor_fault_is_caught(entry, monkeypatch):
    # the sweep carries each factor's n m, k m and C(n,k)^m from a cache into
    # T, K and the prefactor of every product it ends; one more on one entry
    # of one factor must fail a row, and the first such row holds the factor
    assert find_counterexample("T12", variant=CORRECTED, **FAULT_RANGES) is None
    factor = identities._factor

    def off_by_one(k, n, m):
        info = list(factor(k, n, m))
        info[entry] += (k, n, m) == (1, 3, 2)
        return tuple(info)

    monkeypatch.setattr(identities, "_factor", off_by_one)
    bad = find_counterexample("T12", variant=CORRECTED, **FAULT_RANGES)
    assert bad is not None and bad.suite == "T12" and not bad.equal
    assert bad.params["k"] == 1 and (3, 2) in zip(bad.params["n"], bad.params["m"])


def test_t14_oracle_sides_match_fraction_products():
    # the prefix walk splits each T14 product into its first n factors and a
    # last one; products with leading and trailing m_i = 0 (factors that are
    # 1) must still integrate to the Fraction reference, in every row
    reports = run_suites(["T14"], n_max=3, m_max=2, variant="both")
    assert len(reports) > 100
    ms = [r.params["m"] for r in reports]
    assert any(m[0] == 0 < m[-1] for m in ms) and any(m[-1] == 0 < m[0] for m in ms)
    for r in reports:
        factors = [(i, r.params["n"], m) for i, m in enumerate(r.params["m"])]
        assert r.lhs == bernstein_product_integral(factors, _SERIES_E), r


def _faulted_table(top, index):
    """A fresh Euler table through e_top with one more on e_index."""
    cache = EulerCache()
    cache.ensure(top)
    cache._scaled[index] += 1
    return cache


@pytest.mark.parametrize("index, ids, ranges", [
    *(pytest.param(i, ["T12"], {}, id=f"e{i}") for i in (64, 63, 3)),
    *(pytest.param(i, ["T14"], {"n_max": 8}, id=f"e{i}-n_max8") for i in (144, 143, 136))])
def test_table_fault_is_caught(index, ids, ranges):
    # one more on one entry e_j = 2^j E_j of the table must fail a row: at the
    # top index the sweep reads (64 by default, 144 for T14 at n_max=8), at
    # the one below it, and at a low odd one; the oracle reads no table, so a
    # fault cannot shift both sides of a row alike
    top = 144 if ranges else 64
    cache = _faulted_table(top, index)
    reports = run_suites(ids, cache=cache, **ranges)
    assert len(cache._scaled) == top + 1  # the sweep read no further
    assert not all(r.equal for r in reports)


def test_tally_counts_a_table_fault():
    # with e_3 one off, corrected rows fail too, and each part's tally is
    # still the count a walk over its rows gives
    reports = run_suites("ALL", variant="both", cache=_faulted_table(64, 3), **FAULT_RANGES)
    assert reports.tally == _walked(reports)
    assert sum(bad for part, _, bad in reports.tally if part.variant == CORRECTED) > 0


@pytest.mark.parametrize("side", ["literal", "oracle"])
def test_one_unit_in_the_last_place_is_caught(side, monkeypatch):
    # one more in a numerator over 2^T is an error of 2^-T, down to 2^-64 in
    # the default T12 sweep: the sides compare as integers, and lose nothing
    if side == "literal":
        row = next(r for r in identities._CATALOG if r.sid == "T12")

        def off_by_one(e, *args):
            value = row.rhs(e, *args)
            return None if value is None else value + 1

        monkeypatch.setattr(identities, "_CATALOG", tuple(
            r._replace(rhs=off_by_one) if r is row else r for r in identities._CATALOG))
    else:
        oracle = identities._oracle

        def off_by_one(*args):
            return oracle(*args) + 1

        monkeypatch.setattr(identities, "_oracle", off_by_one)
    reports = run_suites(["T12"])
    for r in reports:
        # a zero product (k > n_i) has prefactor 0, which hides the literal's
        # error, and an oracle side of 0 that no oracle step computes
        assert r.equal == (r.params["k"] > min(r.params["n"])), r
    assert max(sum(n * m for n, m in zip(r.params["n"], r.params["m"]))
               for r in reports if not r.equal) == 64
    assert cli_main(["verify", "T12", "--n-max", "4", "--s-max", "2", "--deterministic"]) == 1
