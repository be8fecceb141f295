"""Workload inputs, the library workload passes and the correctness checks.

The check functions take plain values (exit codes, bytes, files, rows) so
that `selftest.py` can feed them corrupted data and show that each one fails.
The library passes import `fermibern` lazily and call it through module
attributes, so the functions that `tracer.py` patches are the ones used.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

EXPECTED = json.loads(Path(__file__).with_name("record.json").read_text())["expected"]

AUDIT_ARGV = ["verify", "ALL", "--deterministic"]
EXPORT_ARGV = ["verify", "ALL", "--variant", "both", "--format", "json",
               "--deterministic", "--expect-typos", "--out"]

# p -> N with p^N in the low thousands: 3^7 = 2187, 5^5 = 3125, 7^4 = 2401
PADIC_N = {3: 7, 5: 5, 7: 4}
PADIC_QUERIES = EXPECTED["padic-sweep"]["queries_per_pass"]
EULER_N = EXPECTED["euler-deep"]["n"]


def another_fits(start: float, samples: int, seconds: float) -> bool:
    """Start another sample only if one more of the average length still fits."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / samples <= seconds


# -- checks: each returns a list of failure messages, empty when correct ------

def check_audit(returncode: int, stdout: bytes) -> list[str]:
    want = EXPECTED["audit"]["verdict"]
    lines = stdout.decode("utf-8", "replace").rstrip("\n").split("\n")
    errors = []
    if returncode != 0:
        errors.append(f"audit exit code {returncode}, expected 0")
    if lines[-1] != want:
        errors.append(f"audit verdict {lines[-1]!r}, expected {want!r}")
    return errors


def check_export(returncode: int, path: Path) -> list[str]:
    """Exit code 0 and the recorded sha256 of the file.

    The file is hashed in chunks so that the checking process stays smaller
    than the children whose peak RSS it measures (see run.run_child).
    """
    want = EXPECTED["audit-export"]["sha256"]
    errors = []
    if returncode != 0:
        errors.append(f"export exit code {returncode}, expected 0")
    if not path.is_file():
        return errors + [f"export file {path} is missing"]
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    if digest.hexdigest() != want:
        errors.append(f"export sha256 {digest.hexdigest()}, expected {want}")
    return errors


def euler_digest(values) -> str:
    return hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()


def check_euler(values, poly_coeffs) -> list[str]:
    """E_2m = 0, dyadic denominators, the table digest and E_n(x)'s ends."""
    errors = []
    for m in range(2, len(values), 2):
        if values[m] != 0:
            errors.append(f"E_{m} = {values[m]}, expected 0")
    for n, v in enumerate(values):
        den = v.denominator
        if den & (den - 1):
            errors.append(f"E_{n} has denominator {den}, not a power of two")
    got = euler_digest(values)
    if got != EXPECTED["euler-deep"]["table_sha256"]:
        errors.append(f"Euler table sha256 {got} differs from the record")
    n = len(values) - 1
    if poly_coeffs[0] != values[n] or poly_coeffs[-1] != 1 or len(poly_coeffs) != n + 1:
        errors.append(f"E_{n}(x) is not monic of degree {n} with constant E_{n}")
    return errors


def check_trace_rows(rows) -> list[str]:
    """vp(S_N - I(f)) >= N on every row of a convergence trace."""
    return [f"gap {gap} < N = {n} (S_N = {s_n})"
            for n, s_n, gap in rows if gap < n]


def check_q_at_one(q_residue: int, partial: Fraction, trace_last: Fraction,
                   p: int, M: int) -> list[str]:
    """q_partial_sum at q = 1 equals reduce_mod(partial_sum), which equals S_N."""
    from fermibern import padic
    errors = []
    if partial != trace_last:
        errors.append(f"partial_sum {partial} != convergence_trace S_N {trace_last}")
    want = padic.reduce_mod(partial, p, M).r
    if q_residue != want:
        errors.append(f"q_partial_sum at q=1 is {q_residue}, reduce_mod gives {want}")
    return errors


# -- inputs -------------------------------------------------------------------

def padic_queries(seed: int, count: int = PADIC_QUERIES) -> list[tuple]:
    """Seeded stream of (poly, p, N, q, M) queries.

    Degree at most 8; each polynomial has either integer or dyadic
    coefficients (both are p-integral for odd p), and q = 1 + p t.
    """
    from fermibern.exactnum import Poly
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        p = rng.choice(sorted(PADIC_N))
        n = PADIC_N[p]
        dyadic = rng.random() < 0.5
        coeffs = []
        for _ in range(rng.randint(0, 8) + 1):
            num = rng.randint(-99, 99)
            coeffs.append(Fraction(num, 2 ** rng.randint(1, 6)) if dyadic
                          else Fraction(num))
        if coeffs[-1] == 0:
            coeffs[-1] = Fraction(1)
        queries.append((Poly(coeffs), p, n, 1 + p * rng.randint(1, 20), n))
    return queries


def library_pass(name: str, seed: int):
    """The pass of a library workload, with its inputs made, and its units of work."""
    if name == "padic-sweep":
        queries = padic_queries(seed)
        return (lambda latencies: padic_sweep_pass(queries, latencies)), len(queries)
    return euler_deep_pass, EULER_N


# -- library workload passes ---------------------------------------------------

def euler_deep_pass(latencies: list[float]) -> tuple[int, int, list[str]]:
    """Grow a fresh EulerCache from E_0 to E_n one index at a time.

    Appends the time of each step to `latencies`.  The whole table is one
    operation; returns (attempted, failed, messages).
    """
    from fermibern import euler
    cache = euler.EulerCache()
    for i in range(1, EULER_N + 1):
        t0 = perf_counter()
        euler.euler_numbers(i, cache)
        latencies.append(perf_counter() - t0)
    values = euler.euler_numbers(EULER_N, cache)
    errors = check_euler(values, euler.euler_poly(EULER_N, cache).coeffs)
    return 1, int(bool(errors)), errors


def padic_sweep_pass(queries: list[tuple],
                     latencies: list[float]) -> tuple[int, int, list[str]]:
    """Run convergence_trace then q_partial_sum for every query.

    The first query for each p also runs the q = 1 cross-check against the
    brute-force partial_sum; that check is timed in the pass, not the query.
    Each query is one operation; returns (attempted, failed, messages).
    """
    from fermibern import fermint
    failed, errors = 0, []
    cross_checked = set()
    for poly, p, n, q, m in queries:
        t0 = perf_counter()
        trace = fermint.convergence_trace(poly, p, n)
        fermint.q_partial_sum(poly, p, q, n, m)
        latencies.append(perf_counter() - t0)
        query_errors = check_trace_rows(trace.rows)
        if p not in cross_checked:
            cross_checked.add(p)
            query_errors += check_q_at_one(fermint.q_partial_sum(poly, p, 1, n, m).r,
                                           fermint.partial_sum(poly, p, n),
                                           trace.rows[-1][1], p, m)
        failed += bool(query_errors)
        errors += query_errors
    return len(queries), failed, errors
