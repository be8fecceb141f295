"""Tests for the command line front end."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from fermibern import CORRECTED, IdentityReport, cli, fermint, identities
from fermibern.euler import EulerCache
from fermibern.exactnum import binom
from fermibern.identities import CatalogError
from fermibern.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _swept(suite, variant, params, lhs, rhs, T):
    """A `run_suites` result, kept as integer columns like a sweep's, that
    holds one report: the numerators lhs and rhs over 2^T, as given, so they
    may be far from lowest terms."""
    part = identities._Part(suite, variant, lambda case: dict(params),
                            lambda case: json.dumps(params, sort_keys=True))
    return identities._Reports([([(T, ())], [(part, [lhs], [rhs])])])


class _LoggedCases(list):
    """The cases of a block, which log its suite each time they are walked."""

    def __init__(self, cases, suite, log):
        super().__init__(cases)
        self.suite, self.log = suite, log

    def __iter__(self):
        self.log.append(self.suite)
        return super().__iter__()


def _logging_walks(reports, log):
    """A `run_suites` result like `reports` that appends a suite to `log`
    each time a walk reads the rows of its block."""
    return identities._Reports([(_LoggedCases(cases, parts[0][0].suite, log), parts)
                                for cases, parts in reports._blocks])


class TestScalarCommands:
    def test_euler(self, capsys):
        code, out = run_cli(capsys, "euler", "3")
        assert code == 0
        assert out == "1/4\n"

    def test_epoly(self, capsys):
        code, out = run_cli(capsys, "epoly", "1")
        assert code == 0
        assert out == "-1/2, 1\n"

    def test_bernstein(self, capsys):
        code, out = run_cli(capsys, "bernstein", "0", "1")
        assert code == 0
        assert out == "1, -1\n"

    def test_bernstein_vanishing(self, capsys):
        code, out = run_cli(capsys, "bernstein", "3", "2")
        assert code == 0
        assert out == "0\n"

    def test_integrate(self, capsys):
        code, out = run_cli(capsys, "integrate", "1, -2, 1")
        assert code == 0
        assert out == "2\n"

    def test_integrate_linear(self, capsys):
        code, out = run_cli(capsys, "integrate", "0,1")
        assert code == 0
        assert out == "-1/2\n"


class TestPadicTrace:
    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "padic-trace", "0,1", "3", "2",
                            "--format", "csv")
        assert code == 0
        assert out == "N,S_N,valuation_gap\n1,1,1\n2,4,2\n"

    def test_table_format(self, capsys):
        code, out = run_cli(capsys, "padic-trace", "0,1", "3", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("valuation_gap")
        assert lines[1].split() == ["1", "1", "1"]
        assert lines[2].split() == ["2", "4", "2"]

    def test_inf_gap_rendered(self, capsys):
        code, out = run_cli(capsys, "padic-trace", "5", "3", "1")
        assert code == 0
        assert out.splitlines()[1].split() == ["1", "5", "inf"]

    def test_deep_trace_is_cheap(self, capsys):
        code, out = run_cli(capsys, "padic-trace", "0,1", "7", "12")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 13
        assert lines[-1] == " 12  6920643600               12"

    def test_huge_prime_is_cheap(self, capsys):
        start = time.perf_counter()
        code, out = run_cli(capsys, "padic-trace", "0,1", str(10**20 + 39), "1")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.splitlines()[1].split() == ["1", str((10**20 + 38) // 2), "1"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "trace.csv"
        code, out = run_cli(capsys, "padic-trace", "0,1", "3", "2",
                            "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == "N,S_N,valuation_gap\n1,1,1\n2,4,2\n"


class TestVerify:
    def test_small_pass(self, capsys):
        code, out = run_cli(capsys, "verify", "T3", "--n-max", "1")
        assert code == 0
        assert "result: PASS (1 comparisons, 0 unequal)" in out

    def test_timestamp_unless_deterministic(self, capsys):
        _, out = run_cli(capsys, "verify", "T1", "--n-max", "2")
        assert out.startswith("generated: ")
        _, out = run_cli(capsys, "verify", "T1", "--n-max", "2",
                         "--deterministic")
        assert "generated:" not in out

    def test_deterministic_runs_are_byte_identical(self, capsys):
        args = ("verify", "P2", "T3", "--n-max", "4", "--deterministic")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_as_printed_failures_drive_exit_code(self, capsys):
        args = ("verify", "C13", "--variant", "as-printed", "--s-max", "1",
                "--n-max", "3", "--m-max", "1", "--k-max", "1",
                "--deterministic")
        code, out = run_cli(capsys, *args)
        assert code == 1
        assert "result: FAIL" in out
        assert "C13 [as-printed]" in out

    def test_expect_typos_downgrades_as_printed(self, capsys):
        args = ("verify", "C13", "--variant", "as-printed", "--s-max", "1",
                "--n-max", "3", "--m-max", "1", "--k-max", "1",
                "--deterministic", "--expect-typos")
        code, out = run_cli(capsys, *args)
        assert code == 0
        assert "result: PASS" in out
        assert "(all in as-printed variants, expected)" in out

    def test_expect_typos_does_not_mask_corrected_failures(self, capsys):
        # corrected-variant rows all pass, so this is just the same PASS
        code, out = run_cli(capsys, "verify", "T12", "--s-max", "2",
                            "--n-max", "3", "--m-max", "1", "--k-max", "1",
                            "--expect-typos", "--deterministic")
        assert code == 0
        assert "result: PASS" in out

    @pytest.mark.parametrize("fmt, args, walks", [
        ("table", ["--variant", "both"], [{"unequal": True, "cap": 25}]),
        ("json", ["--variant", "both"], [{}]),
        ("csv", ["--variant", "both"], [{}]),
        ("table", [], []),
    ], ids=["table", "json", "csv", "table-clean"])
    def test_verdict_is_computed_once(self, fmt, args, walks, capsys, monkeypatch):
        # the exit code and the table's counts are read off the per-part
        # tally, which walks no row; a table walks the unequal rows once only
        # to list its failures, at most 25 per suite, and json and csv walk
        # all rows once, to print them (the check that every value prints
        # reads the columns); no walk reads a report's `equal`
        evaluations, passes = [], []
        equal = IdentityReport.equal
        monkeypatch.setattr(IdentityReport, "equal", property(
            lambda r: evaluations.append(r) or equal.fget(r)))
        rows_of = identities._Reports._rows
        monkeypatch.setattr(identities._Reports, "_rows", lambda reports, **kwargs:
                            passes.append(kwargs) or rows_of(reports, **kwargs))
        code = main(["verify", "C13", *args, "--n-max", "3",
                     "--expect-typos", "--deterministic", "--format", fmt])
        out = capsys.readouterr().out
        rows = len(out.splitlines())
        assert code == 0
        assert ("failures:" in out) == (fmt == "table" and walks != [])
        assert passes == walks
        assert evaluations == []
        assert rows == 3 if walks == [] else rows > 3  # a clean table: header, C13, result

    def test_verify_builds_no_report_per_row(self, capsys, monkeypatch):
        # the CLI reads the sweep's integer columns: an audit builds no
        # IdentityReport (76,897 once), clean or failing, and walks no row
        # when clean; the table prints its failures, at most 25 per suite,
        # straight from the unequal rows, in one walk that reads only the
        # rows of the C13, T14 and C15 blocks and stops each at 25 rows
        built, walks, read = [], [], []
        init = IdentityReport.__init__
        monkeypatch.setattr(IdentityReport, "__init__", lambda self, suite, *args:
                            built.append(suite) or init(self, suite, *args))
        rows_of = identities._Reports._rows
        monkeypatch.setattr(identities._Reports, "_rows", lambda reports, **kwargs:
                            walks.append(kwargs) or rows_of(reports, **kwargs))
        monkeypatch.setattr(cli, "run_suites", lambda *args, **kwargs:
                            _logging_walks(identities.run_suites(*args, **kwargs), read))
        code, out = run_cli(capsys, "verify", "ALL", "--deterministic")
        assert (code, out.splitlines()[-1]) == (0, "result: PASS (76897 comparisons, 0 unequal)")
        assert (built, walks) == ([], [])
        code, out = run_cli(capsys, "verify", "ALL", "--variant", "both", "--deterministic")
        assert (code, out.splitlines()[-1]) == (
            1, "result: FAIL (87381 comparisons, 10256 unequal)")
        assert (built, walks, read) == ([], [{"unequal": True, "cap": 25}],
                                        ["C13", "T14", "C15"])
        listed = re.findall(r"^  (\S+) \[as-printed\] ", out, re.MULTILINE)
        assert Counter(listed) == {"C13": 25, "T14": 25, "C15": 25}

    def test_the_table_reads_no_failure_past_the_listed_ones(self, capsys, monkeypatch):
        # the both-editions table lists 25 of the 10,256 unequal rows of each
        # failing suite, and the walk it reads them from yields those 75 only
        yielded = []
        rows_of = identities._Reports._rows

        def counted(reports, **kwargs):
            for row in rows_of(reports, **kwargs):
                yielded.append(row[0].suite)
                yield row

        monkeypatch.setattr(identities._Reports, "_rows", counted)
        code, out = run_cli(capsys, "verify", "ALL", "--variant", "both", "--deterministic")
        assert code == 1 and "... and 8103 more failures in C13" in out
        assert Counter(yielded) == {"C13": 25, "T14": 25, "C15": 25}

    def test_audit_peak_memory_stays_small(self, capsys):
        # the audit keeps two integers per comparison, not one report with a
        # params dict each: 28.0 MiB of traced peak with them, 13.8 without
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            code = main(["verify", "ALL", "--deterministic"])
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert code == 0 and "76897 comparisons" in capsys.readouterr().out
        assert peak < 20 * 2**20

    def test_json_format_roundtrips(self, capsys):
        code, out = run_cli(capsys, "verify", "T3", "--n-max", "3",
                            "--format", "json")
        assert code == 0
        lines = out.splitlines()
        assert lines
        reports = [IdentityReport.from_json(line) for line in lines]
        assert all(r.suite == "T3" and r.equal for r in reports)

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "verify", "T1", "--n-max", "3",
                            "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["suite", "variant", "params", "lhs", "rhs", "equal"]
        assert len(rows) == 4
        assert all(row[5] == "true" for row in rows[1:])

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.jsonl"
        code, out = run_cli(capsys, "verify", "T1", "--n-max", "2",
                            "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        IdentityReport.from_json(lines[0])


MISSING_DIR_OUT = "<missing-dir>/out"


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["euler", "-1"],
        ["euler", "x"],
        ["padic-trace", "0,1", "4", "2"],
        ["integrate", "1,,2"],
        ["integrate", "1/0"],
        ["verify", "T99"],
        ["verify", "T1", "--variant", "fixed"],
        [],
        ["verify", "T1", "--out", MISSING_DIR_OUT],
        ["padic-trace", "0,1", "3", "2", "--out", MISSING_DIR_OUT],
        ["padic-trace", "0,0,0,0,0,0,0,0,0,0,1", "1000003", "80"],
        ["verify", "T1", "--n-max", "0"],
        ["verify", "C13", "--variant", "as-printed", "--k-max", "0"],
        ["verify", "T14", "--n-max", "12"],
        ["bernstein", "0", "15000"],
        ["padic-trace", "0,1", "3317044064679887385961981", "1"],
        ["verify", "C13", "--s-max", "30"],
        ["verify", "T10", "--s-max", "0", "--k-max", "1000000000"],
        ["verify", "T12", "--m-max", "0", "--k-max", "1000000000"],
        ["integrate", "1e100000000"],
        ["verify", "EULER", "--n-max", "200000"],
    ])
    def test_exit_code_two(self, argv, capsys, tmp_path):
        out_path = tmp_path / "missing" / "out"
        argv = [str(out_path) if a == MISSING_DIR_OUT else a for a in argv]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert not out_path.parent.exists()

    @pytest.mark.parametrize("p, message", [
        ("1", "p must be prime, got 1"),
        ("2", "p must be odd"),
        ("9", "p must be prime, got 9"),
        ("3317044064679887385961981", "cannot decide whether 3317044064679887385961981 is prime"),
    ])
    def test_bad_prime_is_named_as_the_cause(self, p, message, capsys):
        with pytest.raises(SystemExit) as info:
            main(["padic-trace", "0,1", p, "3"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "int-to-str" not in captured.err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="no int-to-str digit limit in this interpreter")
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_overlong_numeral_names_its_length_and_the_limit(self, sign, capsys):
        # int()'s own message, whose wording differs between CPython versions
        with pytest.raises(SystemExit) as info:
            main(["euler", sign + "7" * 5000])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "5000" in captured.err and str(sys.get_int_max_str_digits()) in captured.err
        assert len(captured.err) < 300

    @pytest.mark.parametrize("argv, named", [
        (["padic-trace", "0,1", "7" * 4000, "1"],
         ["cannot decide whether a 13288-bit number is prime"]),
        (["integrate", "x" * 20000], ["'xxxxxxxxxxxxxxxxxxxx'... (20000 characters)"]),
        (["integrate", "1," * 20000 + "x"], ["'x'"]),
        (["integrate", "1," * 20000 + ",1"],
         ["malformed coefficient list", "'1,1,1,1,1,1,1,1,1,1,'... (40002 characters)"]),
        (["integrate", "1e" + "1" * 20000], ["'1e111111111111111111'... (20002 characters)",
                                            "no exponent notation"]),
        (["integrate", "7" * 4000 + "/0"], ["zero denominator", "(4002 characters)"]),
        (["verify", "T" * 20000],
         ["unknown suite id", "'TTTTTTTTTTTTTTTTTTTT'... (20000 characters)"]),
        (["verify", "T1", "--variant", "v" * 20000],
         ["unknown variant", "'vvvvvvvvvvvvvvvvvvvv'... (20000 characters)"]),
        pytest.param(["integrate", "7" * 20000], ["20000", str(getattr(
            sys, "get_int_max_str_digits", int)())], marks=pytest.mark.skipif(
                not getattr(sys, "get_int_max_str_digits", int)(),
                reason="no int-to-str digit limit in this interpreter")),
    ], ids=["p-4000-digits", "poly-20000-x", "poly-bad-last-item", "poly-empty-item",
            "poly-exponent", "poly-zero-denominator", "suite-20000-T", "variant-20000-v",
            "poly-20000-digits"])
    def test_a_long_argument_is_named_by_its_size(self, argv, named, capsys):
        # the error names the cause and the argument's size, or the short
        # item at fault, and quotes no long argument whole
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert all(fact in captured.err for fact in named), captured.err
        assert len(captured.err) < 300

    @pytest.mark.parametrize("argv, named", [
        (["verify", "T1", "--n-max", "1" + "0" * 19],
         ["T1 with n_max=10000000000000000000", "at least 10000000000000000000 products"]),
        (["verify", "T1", "--n-max", "9" * 4000],
         ["T1 with n_max=<4000 digits>", "at least 2^13287 products"]),
        (["verify", "T12", "--m-max", "9" * 4000], ["m_max=<4000 digits>", "at least 2^"]),
    ], ids=["n-max-20-digits", "n-max-4000-digits", "m-max-4000-digits"])
    def test_a_huge_range_is_refused_at_once(self, argv, named, capsys):
        # counted without len(), which overflows past sys.maxsize, and named
        # by size: neither the range nor the product count is printed whole
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert time.perf_counter() - start < 2.0
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert all(fact in captured.err for fact in named), captured.err
        assert len(captured.err) < 300

    @pytest.mark.parametrize("argv", [
        ["verify", "T14", "--n-max", "12", "--format", "json"],
        ["verify", "T1", "T3", "--n-max", "0", "--format", "csv"],
    ], ids=["refused-range", "empty-sweep"])
    def test_refusal_leaves_no_out_file(self, argv, capsys, tmp_path):
        target = tmp_path / "report"
        with pytest.raises(SystemExit) as info:
            main(argv + ["--out", str(target)])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""
        assert not target.exists()

    def test_oversized_full_sweep_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            main(["verify", "T14", "--n-max", "12"])
        assert time.perf_counter() - start < 1.0
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "products" in err and "n_max=12" in err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="no int-to-str digit limit in this interpreter")
    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_unprintable_trace_is_refused_at_once(self, fmt, capsys):
        # S_20000 of x has 9,543 digits, past the default limit of 4300; the
        # deepest row is checked first, so none of the 20,000 rows is made
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            main(["padic-trace", "0,1", "3", "20000", "--format", fmt])
        assert time.perf_counter() - start < 2.0
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "S_20000" in captured.err and "Traceback" not in captured.err
        assert len(captured.err) < 300

    def test_empty_sweep_names_the_empty_suites(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "T1", "T3", "C13", "--n-max", "0", "--k-max", "0"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "empty sweep" in err
        assert "T1, T3, C13" in err


class TestInternalError:
    @pytest.mark.parametrize("formula, case, error", [
        # reads past the table scaled(T), which ends at e_T
        (lambda e, k, s, T, K: e[T + 1], '{"k": 0, "m": 0, "n": 0}',
         "IndexError: list index out of range"),
        # shifts by K - T, which is negative for every T > K
        (lambda e, k, s, T, K: 1 << (K - T), '{"k": 0, "m": 1, "n": 0}',
         "ValueError: negative shift count"),
    ], ids=["index", "shift"])
    def test_a_formula_that_raises_is_an_internal_error(self, formula, case, error, capsys,
                                                        monkeypatch, tmp_path):
        # a catalog fault is neither a failed comparison (1) nor bad usage
        # (2): one stderr line names the suite whose formula raised, among
        # the three swept by the same family, and the case; nothing is written
        monkeypatch.setattr(identities, "_CATALOG", tuple(
            row._replace(rhs=formula) if row.sid == "C7" else row
            for row in identities._CATALOG))
        target = tmp_path / "report"
        for out_args in ([], ["--out", str(target)]):
            code = main(["verify", "T5", "P6", "C7", "--n-max", "3", "--format", "json",
                         *out_args])
            captured = capsys.readouterr()
            assert (code, captured.out) == (3, "")
            assert captured.err == f"fermibern: internal error: C7 {case}: {error}\n"
            assert not target.exists()
        with pytest.raises(CatalogError) as info:
            identities.run_suites("C7", n_max=3)
        assert type(info.value.__cause__).__name__ == error.split(":")[0]

    @staticmethod
    def _one_line(capsys, *argv) -> str:
        """The stderr of a run that must exit 3: one line, and no output."""
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert captured.err.startswith("fermibern: internal error: ")
        return captured.err

    def test_a_table_fault_is_an_internal_error(self, capsys, monkeypatch):
        # not bad usage (2), although the table raises ValueError: the sweep
        # reads the table once per case key and never again after a fault
        def scaled(self, n):
            raise ValueError("Euler number index must be nonnegative")
        monkeypatch.setattr(EulerCache, "scaled", scaled)
        assert self._one_line(capsys, "verify", "ALL") == (
            'fermibern: internal error: EULER {"n": 0}: '
            'ValueError: Euler number index must be nonnegative\n')

    def test_a_fault_before_the_first_case_is_an_internal_error(self, capsys, monkeypatch):
        # the first prefix of T5, B_{0,0}, divides by n - k = 0 before any
        # case of the sweep is reached, so no case is named
        monkeypatch.setattr(identities, "_factor",
                            lambda k, n, m: (n * m, k * m, binom(n, k) ** m // (n - k)))
        assert self._one_line(capsys, "verify", "T5") == (
            "fermibern: internal error: T5: ZeroDivisionError: "
            "integer division or modulo by zero\n")

    def test_an_oracle_fault_is_charged_to_every_suite_of_the_sweep(self, capsys,
                                                                     monkeypatch):
        def weights(T):
            raise RuntimeError("no weights")
        monkeypatch.setattr(identities, "_weights", weights)
        assert self._one_line(capsys, "verify", "T5", "P6", "C7", "--n-max", "3") == (
            'fermibern: internal error: T5/P6/C7 {"k": 0, "m": 0, "n": 0}: '
            'RuntimeError: no weights\n')

    def test_a_shared_formula_names_each_suite_that_holds_it(self, capsys, monkeypatch):
        # _F["T5"] is the right side of T5 and of C7
        def t5(e, k, s, T, K):
            return e[T + 1]
        monkeypatch.setattr(identities, "_CATALOG", tuple(
            row._replace(rhs=t5) if row.rhs is identities._F["T5"] else row
            for row in identities._CATALOG))
        assert self._one_line(capsys, "verify", "T5", "P6", "C7", "--n-max", "3") == (
            'fermibern: internal error: T5/C7 {"k": 0, "m": 0, "n": 0}: '
            'IndexError: list index out of range\n')

    def test_a_failed_self_check_is_an_internal_error(self, capsys, monkeypatch):
        # weights one off in size break partial_sum's denominator check
        weights = fermint._weights
        monkeypatch.setattr(fermint, "_weights",
                            lambda T: [w + (-1) ** i for i, w in enumerate(weights(T))])
        err = self._one_line(capsys, "padic-trace", "1/3,1", "5", "3")
        assert err.startswith("fermibern: internal error: ArithmeticError: S_3 = ")


class TestCostGuard:
    @pytest.mark.parametrize("argv, code", [
        (["verify", "P2", "--k-max", "1000000000"], 0),
        (["verify", "T10", "--s-max", "0", "--k-max", "1000000000"], 2),
        (["verify", "T12", "--m-max", "0", "--k-max", "1000000000"], 2),
    ])
    def test_huge_k_max_stops_at_the_last_lower_index_with_a_case(self, argv, code,
                                                                   capsys):
        # no case has a lower index past n_max (P2) or comes from an empty
        # factor count or multiplicity range, so walking k to 10^9 is waste
        start = time.perf_counter()
        try:
            got = main(argv + ["--deterministic"])
        except SystemExit as exit_:
            got = exit_.code
        assert time.perf_counter() - start < 2.0
        assert got == code
        out = capsys.readouterr().out
        if code == 0:
            assert "result: PASS (231 comparisons, 0 unequal)" in out
            _, at_twenty = run_cli(capsys, "verify", "P2", "--k-max", "20",
                                   "--deterministic")
            assert out == at_twenty

    @pytest.mark.parametrize("suite", ["P6", "C9"])
    def test_k_max_past_n_max_adds_no_rows(self, suite, capsys):
        # every factor B_{k,n} with k > n_max is 0, so the walk stops at
        # k = n_max; P6 at k_max = 1000 would otherwise be 150,150 products
        start = time.perf_counter()
        code, out = run_cli(capsys, "verify", suite, "--k-max", "1000", "--deterministic")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        _, default = run_cli(capsys, "verify", suite, "--deterministic")
        assert out == default


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit in this interpreter")
class TestPrintLimit:
    # E_387 is the first Euler number whose numerator has more than 640
    # digits (644), and 640 is the lowest limit sys.set_int_max_str_digits
    # accepts
    @pytest.fixture
    def limit_640(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            yield 640
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_value_past_the_limit_exits_two_before_any_output(self, fmt, to_file,
                                                               limit_640, capsys,
                                                               tmp_path):
        target = tmp_path / "report"
        argv = ["verify", "T1", "--n-max", "387", "--format", fmt]
        with pytest.raises(SystemExit) as info:
            main(argv + (["--out", str(target)] if to_file else []))
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "640" in captured.err and "Traceback" not in captured.err
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_trace_prints_up_to_the_last_row_under_the_limit(self, fmt, limit_640,
                                                             capsys):
        # |S_N| of x is (3^N - 1)/2: 640 digits at N = 1342, 641 at N = 1343
        code, out = run_cli(capsys, "padic-trace", "0,1", "3", "1342", "--format", fmt)
        assert code == 0
        assert str((3**1342 - 1) // 2) in out.splitlines()[-1]
        with pytest.raises(SystemExit) as info:
            main(["padic-trace", "0,1", "3", "1343", "--format", fmt])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "S_1343" in captured.err

    def test_check_is_exact_at_the_limit(self, limit_640, monkeypatch):
        # str() refuses a value of more than 640 digits, |v| >= 10^640, and
        # prints every smaller one, numerator or denominator, either sign;
        # 2^2126 has 640 digits, 2^2127 has 641; each of these values has
        # more than the 2,126 bits that always print, so the check walks the
        # row and decides by converting it
        walks = []
        rows_of = identities._Reports._rows
        monkeypatch.setattr(identities._Reports, "_rows", lambda reports, **kwargs:
                            walks.append(kwargs) or rows_of(reports, **kwargs))
        widest = 10**640 - 1
        for lhs, rhs, T in [(widest, -widest, 0), (1, -1, 2126), (widest << 9, 0, 9)]:
            cli._check_printable(_swept("T1", CORRECTED, {"n": 1}, lhs, rhs, T))
            str(Fraction(lhs, 1 << T)), str(Fraction(rhs, 1 << T))
        for lhs, rhs, T in [(10**640, 0, 0), (0, -10**640, 0), (1, 0, 2127), (0, -1, 2127)]:
            # Python's own message, whose wording differs between CPython versions
            with pytest.raises(ValueError, match="^T1 n=1: ") as info:
                cli._check_printable(_swept("T1", CORRECTED, {"n": 1}, lhs, rhs, T))
            assert "640" in str(info.value)
            with pytest.raises(ValueError):
                str(Fraction(lhs, 1 << T)), str(Fraction(rhs, 1 << T))
        assert walks == [{}] * 7

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_the_printed_value_decides_not_the_stored_one(self, fmt, limit_640, capsys,
                                                           monkeypatch, tmp_path):
        # a sweep stores both sides over 2^T, so a stored numerator can be
        # far longer than the reduced one that is printed
        widest = 10**640 - 1
        fits = _swept("T1", CORRECTED, {"n": 1}, widest << 3000, 0, 3000)
        past = _swept("T1", CORRECTED, {"n": 1}, 0, 10**640 << 7, 7)
        assert fits == [IdentityReport("T1", {"n": 1}, Fraction(widest), Fraction(0))]
        assert past == [IdentityReport("T1", {"n": 1}, Fraction(0), Fraction(10**640))]
        monkeypatch.setattr(cli, "run_suites", lambda *args, **kwargs: fits)
        code, out = run_cli(capsys, "verify", "T1", "--format", fmt)
        assert code == 1  # the sides differ
        assert str(widest) in out and len(out) < 2 * 640  # not the 1,544 stored digits
        monkeypatch.setattr(cli, "run_suites", lambda *args, **kwargs: past)
        target = tmp_path / "report"
        for out_args in ([], ["--out", str(target)]):
            with pytest.raises(SystemExit) as info:
                main(["verify", "T1", "--format", fmt] + out_args)
            assert info.value.code == 2
            assert capsys.readouterr().out == ""
            assert not target.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_values_under_the_limit_print(self, fmt, limit_640, capsys):
        code, out = run_cli(capsys, "verify", "T1", "--n-max", "386", "--format", fmt)
        assert code == 0
        assert len(out.splitlines()) == 386 + (fmt == "csv")


def _env(unbuffered):
    """This environment, with stdout unbuffered (as under python -u) or not."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "python-u"])
@pytest.mark.parametrize("argv", [
    ["bernstein", "0", "3000"],
    ["verify", "ALL", "--variant", "both", "--deterministic", "--expect-typos",
     "--format", "json"],
    ["verify", "ALL", "--variant", "both", "--deterministic", "--expect-typos",
     "--format", "csv"],
], ids=["bernstein", "verify-json", "verify-csv"])
def test_closed_pipe_exits_two(argv, unbuffered):
    # a reader that takes one byte and closes the pipe, like `| head -c1`:
    # a write error, not a failed comparison and not a traceback
    with subprocess.Popen([sys.executable, "-m", "fermibern", *argv], env=_env(unbuffered),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(1)
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 2
    assert "cannot write stdout" in err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "python-u"])
def test_pipe_closed_before_the_first_byte_exits_two(unbuffered):
    # the interpreter's last flush must not retry the write and report it
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as pipe:
        proc = subprocess.run([sys.executable, "-m", "fermibern", "euler", "5"],
                              env=_env(unbuffered),
                              stdout=pipe, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert "cannot write stdout" in proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_full_disk_exits_two(to_file):
    argv = ["padic-trace", "0,1", "3", "2"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "fermibern", *argv]
                              + (["--out", "/dev/full"] if to_file else []),
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert "No space left on device" in proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "fermibern", "euler", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "1/4\n"
