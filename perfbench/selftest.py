"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/selftest.py

Each check is fed a correct value, which must pass, and a corrupted one,
which must be reported: a flipped byte in the export, a perturbed Euler
number, a p-adic gap below N, a wrong verdict, a count that does not
repeat.  The perturbed Euler number and the short gap are also pushed
through the workload passes to show they land in the `failed` count.
Takes about 20 s: it runs the export once and grows the E_700 table.
Exits 1 if any check failed to fail (or to pass).
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from fermibern import euler, fermint  # noqa: E402
from fermibern.exactnum import Poly  # noqa: E402

results: list[tuple[str, bool]] = []


def expect(label: str, errors: list[str], should_fail: bool) -> None:
    ok = bool(errors) == should_fail
    results.append((label, ok))
    print(f"{'ok  ' if ok else 'BAD '} {label}: {errors[0] if errors else 'passes'}")


def audit_checks() -> None:
    verdict = workloads.EXPECTED["audit"]["verdict"].encode()
    table = b"suite   checks    pass   fail\n" + verdict + b"\n"
    expect("audit verdict", workloads.check_audit(0, table), False)
    expect("audit exit code 1", workloads.check_audit(1, table), True)
    expect("audit wrong verdict", workloads.check_audit(
        0, table.replace(b"0 unequal", b"1 unequal")), True)


def export_checks(work: Path) -> None:
    out = work / "export.jsonl"
    rc = subprocess.run(run.cli_argv("audit-export", out), env=run.child_env(),
                        cwd=run.ROOT).returncode
    expect("export digest", workloads.check_export(rc, out), False)
    expect("export exit code 1", workloads.check_export(1, out), True)
    data = bytearray(out.read_bytes())
    data[len(data) // 2] ^= 0x01
    flipped = work / "flipped.jsonl"
    flipped.write_bytes(data)
    expect("export with one flipped byte", workloads.check_export(rc, flipped), True)
    expect("export file missing", workloads.check_export(rc, work / "missing.jsonl"), True)


def euler_checks() -> None:
    values = euler.euler_numbers(workloads.EULER_N, euler.EulerCache())
    poly = euler.euler_poly(workloads.EULER_N).coeffs
    expect("Euler table", workloads.check_euler(values, poly), False)
    for label, n, delta in (("perturbed odd E_n", 101, Fraction(1, 4)),
                            ("nonzero even E_n", 100, Fraction(1, 4)),
                            ("non-dyadic E_n", 7, Fraction(1, 3))):
        bad = list(values)
        bad[n] += delta
        expect(label, workloads.check_euler(bad, poly), True)

    real = euler.euler_numbers

    def perturbed(n, cache=euler.DEFAULT_CACHE):
        out = list(real(n, cache))
        if n >= 301:
            out[301] += 1
        return out

    euler.euler_numbers = perturbed
    try:
        attempted, failed, errors = workloads.euler_deep_pass([])
    finally:
        euler.euler_numbers = real
    expect("euler-deep pass with a perturbed E_301", errors, True)
    results.append(("perturbed E_n counts as a failed operation", (attempted, failed) == (1, 1)))


def padic_checks() -> None:
    poly, p, n = Poly([Fraction(3, 4), -2, 0, 5]), 5, 3
    trace = fermint.convergence_trace(poly, p, n)
    expect("convergence rows", workloads.check_trace_rows(trace.rows), False)
    short = [(k, s, k - 1 if k == 2 else gap) for k, s, gap in trace.rows]
    expect("gap below N", workloads.check_trace_rows(short), True)
    q_one = fermint.q_partial_sum(poly, p, 1, n, n).r
    partial = fermint.partial_sum(poly, p, n)
    last = trace.rows[-1][1]
    expect("q = 1 cross-check", workloads.check_q_at_one(q_one, partial, last, p, n), False)
    expect("q = 1 residue off by one", workloads.check_q_at_one(
        (q_one + 1) % p ** n, partial, last, p, n), True)
    expect("partial_sum differs from S_N", workloads.check_q_at_one(
        q_one, partial + p ** n, last, p, n), True)

    real = fermint.convergence_trace

    def short_gap(f, p, n_max, cache=euler.DEFAULT_CACHE):
        t = real(f, p, n_max, cache)
        rows = list(t.rows)
        k, s, _ = rows[-1]
        rows[-1] = (k, s, k - 1)
        return fermint.PartialSumTrace(p=t.p, rows=tuple(rows))

    queries = workloads.padic_queries(7, 12)
    fermint.convergence_trace = short_gap
    try:
        attempted, failed, errors = workloads.padic_sweep_pass(queries, [])
    finally:
        fermint.convergence_trace = real
    expect("padic-sweep pass with gaps below N", errors, True)
    results.append(("each short gap counts as a failed query", (attempted, failed) == (12, 12)))


def count_checks(work: Path) -> None:
    store = work / "counts.json"
    counts = {"exactnum.mul_calls": 37610, "identities.rows": 76897}
    expect("first traced run", run.check_counts_repeat(store, "k", counts), False)
    expect("same counts again", run.check_counts_repeat(store, "k", dict(counts)), False)
    moved = dict(counts, **{"exactnum.mul_calls": 37611})
    expect("a count that moved", run.check_counts_repeat(store, "k", moved), True)


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        work = Path(tmp)
        audit_checks()
        export_checks(work)
        euler_checks()
        padic_checks()
        count_checks(work)
    bad = [label for label, ok in results if not ok]
    print(f"selftest: {len(results) - len(bad)}/{len(results)} as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
