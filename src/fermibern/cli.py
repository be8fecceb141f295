"""Command line front end.

Subcommands:

  euler N                  print E_N
  epoly N                  print the coefficients of E_N(x), lowest first
  bernstein K N            print the coefficients of B_{K,N}, lowest first
  integrate COEFFS         integral of the polynomial "c0, c1, ..."
  padic-trace COEFFS P N   partial sums S_1..S_N with valuation gaps
  verify SUITE [SUITE...]  run identity suites (ids per fermibern.identities,
                           or ALL)

Exit codes: 0 success, 1 at least one identity comparison failed
(as-printed failures are tolerated under --expect-typos), 2 bad usage,
a requested suite that swept no rows, a number too long to print, or a
failed write to stdout or --out (a closed pipe, a full disk, a missing
directory), 3 an internal error: any other exception, a fault of the program.
Polynomials are entered as comma-separated rational coefficients, lowest
degree first: "0, 1" is x, "1, -2, 1" is (1-x)^2.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from datetime import datetime, timezone
from math import gcd
from typing import Callable, NamedTuple, Optional, Sequence, TextIO

from .bernstein import bernstein_poly
from .euler import euler_number, euler_poly
from .exactnum import Poly
from .fermint import convergence_trace, integrate, partial_sum
from .identities import (AS_PRINTED, BOTH, CORRECTED, SUITE_ORDER, CatalogError,
                         IdentityReport, _line, run_suites)

__all__ = ["main", "build_parser"]


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:  # int() names a numeral's length, or quotes 200 characters
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _parse_poly(text: str) -> Poly:
    try:
        return Poly.from_coeff_string(text)
    except ValueError as exc:
        raise ValueError(f"bad polynomial: {exc}") from None


def _writes(text: str) -> Callable[[TextIO], None]:
    """The render of `text`, its last character written on its own: unbuffered
    stdout (python -u) drops the rest of a write that a closed pipe cuts
    short, but the next write fails."""
    return lambda out: (out.write(text[:-1]), out.write(text[-1:]))


def _text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, with one gcd and no Fraction."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def _check_printable(reports: Sequence[IdentityReport]) -> None:
    """Raise ValueError, before any output, if a printed (reduced) side of a
    `run_suites` result passes the int-to-str limit (`limit` digits, 0 for
    none), with Python's own message after the suite and params of its row.
    An integer of at most `bits` bits prints, so a result whose longest
    integer, read off its columns (`bit_length`), has no more walks no row;
    otherwise each row is converted with `_text`, as the render will."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    bits = limit * 3321928 // 1000000  # 2^bits <= 10^limit: shorter integers print
    if not limit or reports.bit_length() <= bits:
        return
    for part, case, lhs, rhs, den in reports._rows():
        try:
            _text(lhs, den), _text(rhs, den)
        except ValueError as exc:
            raise ValueError(f"{part.suite} {_params_text(part.params(case))}: {exc}") from None


def _params_text(params: dict) -> str:
    return " ".join(f"{k}={json.dumps(v, separators=(',', ':')) if isinstance(v, list) else v}"
                    for k, v in params.items())


_TABLE_FAIL_CAP = 25


class _Verdict(NamedTuple):
    """What the table and the exit code need of a run."""
    ok: bool
    line: str                    # the `result:` line
    counts: dict                 # suite -> [checks, failures]


def _verdict(reports: Sequence[IdentityReport], expect_typos: bool) -> _Verdict:
    """Whether the run passes and the `result:` line that says so, with the
    per-suite counts, read off the per-part tally of a `run_suites` result
    without walking its rows."""
    counts: dict[str, list[int]] = {}
    bad = {CORRECTED: 0, AS_PRINTED: 0}
    for part, checks, fails in reports.tally:
        count = counts.setdefault(part.suite, [0, 0])
        count[0] += checks
        count[1] += fails
        bad[part.variant] += fails
    ok = not bad[CORRECTED] and (not bad[AS_PRINTED] or expect_typos)
    detail = f"{len(reports)} comparisons, {sum(bad.values())} unequal"
    if bad[AS_PRINTED] and expect_typos and not bad[CORRECTED]:
        detail += " (all in as-printed variants, expected)"
    return _Verdict(ok, f"result: {'PASS' if ok else 'FAIL'} ({detail})", counts)


def render_verify_table(reports: Sequence[IdentityReport], verdict: _Verdict,
                        deterministic: bool) -> str:
    """The table of a `run_suites` result whose tally gave `verdict` (see
    `_verdict`); it lists at most 25 unequal rows of each failing suite,
    reading no other row, and counts the rest off `verdict`."""
    lines = []
    if not deterministic:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines.append(f"generated: {stamp}")
    lines.append(f"{'suite':<6} {'checks':>7} {'pass':>7} {'fail':>6}")
    for sid, (checks, fails) in verdict.counts.items():  # in catalog order
        lines.append(f"{sid:<6} {checks:>7} {checks - fails:>7} {fails:>6}")
    if any(fails for _, fails in verdict.counts.values()):
        lines.append("failures:")
        lines.extend(f"  {part.suite} [{part.variant}] "
                     f"{_params_text(part.params(case))}: "
                     f"lhs={_text(lhs, den)} rhs={_text(rhs, den)}"
                     for part, case, lhs, rhs, den in reports._rows(unequal=True,
                                                                    cap=_TABLE_FAIL_CAP))
        lines.extend(f"  ... and {fails - _TABLE_FAIL_CAP} more failures in {sid}"
                     for sid, (_, fails) in verdict.counts.items() if fails > _TABLE_FAIL_CAP)
    lines.append(verdict.line)
    return "\n".join(lines) + "\n"


def _printed(reports: Sequence[IdentityReport]):
    """(suite, variant, params, lhs, rhs, equal) of each report as it prints:
    params as json.dumps(params, sort_keys=True), written by `part.text` from
    the case's key tail with no params dict or encoder, and lhs and rhs reduced."""
    for part, case, lhs, rhs, den in reports._rows():
        yield (part.suite, part.variant, part.text(case), _text(lhs, den), _text(rhs, den),
               lhs == rhs)


def render_verify_json(reports: Sequence[IdentityReport], out: TextIO) -> None:
    """Write each report's `IdentityReport.to_json` line to `out`, as it is rendered."""
    for row in _printed(reports):
        out.write(_line(*row) + "\n")


def render_verify_csv(reports: Sequence[IdentityReport], out: TextIO) -> None:
    """Write the CSV header and one row per report to `out`, as each is rendered."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["suite", "variant", "params", "lhs", "rhs", "equal"])
    for *row, equal in _printed(reports):
        writer.writerow([*row, "true" if equal else "false"])


def _cmd_euler(args):
    return 0, _writes(f"{euler_number(args.n)}\n")


def _cmd_epoly(args):
    return 0, _writes(euler_poly(args.n).to_coeff_string() + "\n")


def _cmd_bernstein(args):
    return 0, _writes(bernstein_poly(args.k, args.n).to_coeff_string() + "\n")


def _cmd_integrate(args):
    return 0, _writes(f"{integrate(_parse_poly(args.poly))}\n")


def _cmd_padic_trace(args):
    f = _parse_poly(args.poly)
    # |S_N| grows with p^N, so the deepest row, one partial sum, is the
    # longest: a trace that cannot print is refused before any row is made
    # (a longer middle row, from huge coefficients, fails its str() below);
    # a bad p is refused by partial_sum itself, with its own message
    deepest = partial_sum(f, args.p, args.n_max)
    try:
        str(deepest)
    except ValueError as exc:
        raise ValueError(f"S_{args.n_max}: {exc}") from None
    trace = convergence_trace(f, args.p, args.n_max)
    if args.format == "csv":
        return 0, _writes(trace.to_csv())
    lines = [f"{'N':>3}  {'S_N':<24} valuation_gap"]
    lines.extend(f"{n:>3}  {str(s_n):<24} {gap}" for n, s_n, gap in trace.rows)
    return 0, _writes("\n".join(lines) + "\n")


def _cmd_verify(args):
    reports = run_suites(args.suites, n_max=args.n_max, k_max=args.k_max,
                         s_max=args.s_max, m_max=args.m_max, variant=args.variant)
    verdict = _verdict(reports, args.expect_typos)
    code = 0 if verdict.ok else 1
    if args.format == "table":
        return code, _writes(render_verify_table(reports, verdict, args.deterministic))
    _check_printable(reports)  # streamed, so every value is checked before the first byte
    render = render_verify_json if args.format == "json" else render_verify_csv
    return code, lambda out: render(reports, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermibern",
        description="Exact Euler/Bernstein arithmetic and the alternating "
                    "p-adic integral, with identity verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_euler = sub.add_parser("euler", help="print the Euler number E_N")
    p_euler.add_argument("n", type=_nonneg)
    p_euler.set_defaults(func=_cmd_euler)

    p_epoly = sub.add_parser("epoly", help="print E_N(x) coefficients, "
                                           "lowest degree first")
    p_epoly.add_argument("n", type=_nonneg)
    p_epoly.set_defaults(func=_cmd_epoly)

    p_bern = sub.add_parser("bernstein", help="print B_{K,N} coefficients, "
                                              "lowest degree first")
    p_bern.add_argument("k", type=_nonneg)
    p_bern.add_argument("n", type=_nonneg)
    p_bern.set_defaults(func=_cmd_bernstein)

    p_int = sub.add_parser("integrate", help="alternating integral of a "
                                             "polynomial")
    p_int.add_argument("poly", help='coefficients "c0, c1, ...", lowest first')
    p_int.set_defaults(func=_cmd_integrate)

    p_tr = sub.add_parser("padic-trace", help="partial sums S_1..S_N and "
                                              "their p-adic gap to the limit")
    p_tr.add_argument("poly", help='coefficients "c0, c1, ...", lowest first')
    p_tr.add_argument("p", type=_nonneg, help="odd prime")
    p_tr.add_argument("n_max", type=_nonneg, help="largest exponent N")
    p_tr.add_argument("--format", choices=("table", "csv"), default="table")
    p_tr.add_argument("--out", metavar="PATH",
                      help="write output to PATH instead of stdout")
    p_tr.set_defaults(func=_cmd_padic_trace)

    p_ver = sub.add_parser("verify", help="run identity suites")
    p_ver.add_argument("suites", nargs="+", metavar="SUITE",
                       help=f"suite ids ({', '.join(SUITE_ORDER)}) or ALL")
    p_ver.add_argument("--n-max", type=_nonneg, default=None)
    p_ver.add_argument("--k-max", type=_nonneg, default=None)
    p_ver.add_argument("--s-max", type=_nonneg, default=None)
    p_ver.add_argument("--m-max", type=_nonneg, default=None)
    p_ver.add_argument("--variant", metavar="{" + ",".join((CORRECTED, AS_PRINTED, BOTH)) + "}",
                       default=CORRECTED)
    p_ver.add_argument("--format", choices=("table", "json", "csv"),
                       default="table")
    p_ver.add_argument("--out", metavar="PATH",
                       help="write output to PATH instead of stdout")
    p_ver.add_argument("--deterministic", action="store_true",
                       help="suppress the timestamp so identical runs are "
                            "byte-identical")
    p_ver.add_argument("--expect-typos", action="store_true",
                       help="do not fail the exit code over as-printed "
                            "variant mismatches")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_path = getattr(args, "out", None)
    # each command does every step that can fail and returns its exit code
    # and render; a bad p, a refused sweep range, a number too long for
    # int-to-str conversion or a failed write is bad usage, in every subcommand,
    # and any other exception is an internal error
    try:
        code, render = args.func(args)
        with (open(out_path, "w", encoding="utf-8") if out_path
              else nullcontext(sys.stdout)) as out:
            render(out)
            out.flush()
        return code
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:
        if not out_path:  # so that the interpreter's last flush writes nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        where = repr(out_path) if out_path else "stdout"
        parser.error(f"cannot write {where}: {exc.strerror or exc}")
    except Exception as exc:  # a CatalogError's message names the exception it wraps
        fault = exc if isinstance(exc, CatalogError) else f"{type(exc).__name__}: {exc}"
        print(f"{parser.prog}: internal error: {fault}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
