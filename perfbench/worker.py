"""Child process that runs one workload in process and prints one JSON line.

    python perfbench/worker.py WORKLOAD --seed N --seconds S --trace 0|1 --work DIR

Untraced (library workloads only): repeat passes until S seconds have gone
(at least one pass) and report each pass time and each query latency.
Traced (every workload): one pass with `tracer.py` installed, reporting the
per-layer metrics; the audits call `fermibern.cli.main` in process, the
library workloads first run an untimed pass and then an untraced pass as
the overhead baseline.
`run.py` starts this script with `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from time import perf_counter

import workloads

MAX_ERRORS_SHOWN = 5


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    t0 = perf_counter()
    run_pass, units = workloads.library_pass(name, seed)
    pre_s = perf_counter() - t0
    pass_s, latency_s, errors = [], [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        ops, bad, messages = run_pass(latency_s)
        pass_s.append(perf_counter() - t0)
        attempted += ops
        failed += bad
        errors += messages
        if not workloads.another_fits(start, len(pass_s), seconds):
            break
    return {"pre_s": pre_s, "pass_s": pass_s, "latency_s": latency_s,
            "units": units, "attempted": attempted, "failed": failed,
            "errors": errors[:MAX_ERRORS_SHOWN]}


def run_traced(name: str, seed: int, work: Path) -> dict:
    import tracer as tracing
    from fermibern import identities

    audit = name.startswith("audit")
    plain_s = None
    if not audit:
        # an untimed pass first, so that the timed untraced pass is not the
        # one that pays for first-touch memory and the traced one warm
        run_pass, _ = workloads.library_pass(name, seed)
        attempted, failed, errors = run_pass([])
        t0 = perf_counter()
        ops, bad, messages = run_pass([])
        plain_s = perf_counter() - t0
        attempted, failed, errors = attempted + ops, failed + bad, errors + messages

    tracer = tracing.Tracer(run_id=f"{name}:{seed}")
    bernstein_poly = tracing.install(tracer, with_cli=audit)
    reports = []
    run_suites = identities.run_suites

    def capture(*args, **kwargs):
        out = run_suites(*args, **kwargs)
        reports.extend(out)
        return out

    output_bytes = 0
    if audit:
        from fermibern import cli
        cli.run_suites = capture
        out_path = work / f"traced-{name}.out"
        t0 = perf_counter()
        if name == "audit":
            with open(out_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                rc = cli.main(workloads.AUDIT_ARGV)
        else:
            rc = cli.main(workloads.EXPORT_ARGV + [str(out_path)])
        wall = perf_counter() - t0
        output_bytes = out_path.stat().st_size
        if name == "audit":
            errors = workloads.check_audit(rc, out_path.read_bytes())
        else:
            errors = workloads.check_export(rc, out_path)
        attempted, failed = 1, int(bool(errors))
    else:
        t0 = perf_counter()
        ops, bad, messages = run_pass([])
        wall = perf_counter() - t0
        attempted, failed, errors = attempted + ops, failed + bad, errors + messages

    summary = tracer.summary()
    total, calls, self_s = summary["total_s"], summary["calls"], summary["self_s"]
    cache = bernstein_poly.cache_info()
    looked_up = cache.hits + cache.misses
    metrics = {
        "cli.render_s": total.get("cli.render", 0.0),
        "cli.output_bytes": output_bytes,
    }
    for suite in identities.SUITE_ORDER:
        metrics[f"identities.suite_s.{suite}"] = float(tracer.suite_s[suite])
    t12 = [r for r in reports if r.suite == "T12"]
    distinct = {(sum(n * m for n, m in zip(r.params["n"], r.params["m"])),
                 r.params["k"] * sum(r.params["m"])) for r in t12}
    products = tracer.parent_name_calls("exactnum.mul", "identities.mult_walker")
    mul_calls = calls.get("exactnum.mul", 0)
    metrics.update({
        "identities.rows": len(reports),
        "identities.rows_unequal.corrected": sum(
            1 for r in reports if not r.equal and r.variant == identities.CORRECTED),
        "identities.rows_unequal.as_printed": sum(
            1 for r in reports if not r.equal and r.variant == identities.AS_PRINTED),
        "identities.bracket_distinct": len(distinct),
        "identities.bracket_evals": len(t12),
        "identities.bracket_distinct_ratio": _ratio(len(distinct), len(t12)),
        "identities.mult_products": products,
        "identities.oracle_calls.T12": tracer.suite_integrate["T12"],
        "identities.oracle_calls.C13": tracer.suite_integrate["C13"],
        "identities.oracle_use_ratio.T12": _ratio(tracer.suite_integrate["T12"], products),
        "identities.oracle_use_ratio.C13": _ratio(tracer.suite_integrate["C13"], products),
        "exactnum.mul_calls": mul_calls,
        "exactnum.mul_int_calls": tracer.counts["exactnum.mul_int_calls"],
        "exactnum.mul_int_share": _ratio(tracer.counts["exactnum.mul_int_calls"], mul_calls),
        "exactnum.mul_s": total.get("exactnum.mul", 0.0),
        "fermint.integrate_calls": calls.get("fermint.integrate", 0),
        "fermint.integrate_s": total.get("fermint.integrate", 0.0),
        "fermint.convergence_trace_s": total.get("fermint.convergence_trace", 0.0),
        "fermint.partial_sum_s": total.get("fermint.partial_sum", 0.0),
        "fermint.q_partial_sum_s": total.get("fermint.q_partial_sum", 0.0),
        "fermint.points": tracer.counts["fermint.points"],
        "euler.ensure_s": total.get("euler.ensure", 0.0),
        "euler.table_size": tracer.counts["euler.table_size"],
        "bernstein.poly_calls": calls.get("bernstein.poly", 0),
        "bernstein.cache_hits": cache.hits,
        "bernstein.cache_lookups": looked_up,
        "bernstein.cache_hit_ratio": _ratio(cache.hits, looked_up),
        "padic.vp_calls": calls.get("padic.vp", 0),
        "padic.vp_s": total.get("padic.vp", 0.0),
        "padic.reduce_mod_s": total.get("padic.reduce_mod", 0.0),
        "trace.spans": len(tracer.names),
    })
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    tracer.write_spans(work / f"spans-{name}.csv.gz")
    return {"wall_s": wall, "plain_s": plain_s, "metrics": metrics,
            "attempted": attempted, "failed": failed, "errors": errors[:MAX_ERRORS_SHOWN]}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    if args.trace:
        result = run_traced(args.workload, args.seed, args.work)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
