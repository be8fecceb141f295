"""Benchmark of fermibern: end-to-end metrics, or per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, one table

Run from the root of a checkout; the program is taken from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
`end_to_end` list of BENCHMARK.json, with --trace 1 the `per_layer` list.

Workloads (closed loop, one client, one child process at a time):
  audit         `fermibern verify ALL --deterministic`, fresh interpreter
  audit-export  the same with `--variant both --format json --expect-typos
                --out FILE`: 87,381 rows, 13.9 MB, checked by sha256
  euler-deep    grow a fresh EulerCache to E_700 (worker.py, in process)
  padic-sweep   seeded queries: convergence_trace, then q_partial_sum
Only padic-sweep uses --seed.  See record.json for why each workload was
chosen, the metric -> layer -> workload map and the recorded baseline.

Each sample is checked (exit code, verdict, digest, p-adic gap); a failed
check counts in `failed` and makes `correct` false.  Counts from a traced
run are stored under .perfbench-work/ and must repeat exactly on the next
traced run of the same code, workload and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("audit", "audit-export", "euler-deep", "padic-sweep")
SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 170


class ChildResult(NamedTuple):
    wall_s: float
    returncode: int
    maxrss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], stdout_path: Path) -> ChildResult:
    """Run argv to completion with stdout to a file; wall time and peak RSS.

    On Linux a child's ru_maxrss starts at the peak RSS of the process that
    spawned it, which is carried across exec, so this process keeps itself
    smaller than the children it measures (it never reads the export whole).
    """
    with open(stdout_path, "wb") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return ChildResult(wall, proc.returncode, usage.ru_maxrss / 1024)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(samples: int) -> list[float]:
    """Fresh-interpreter times to import fermibern.cli."""
    argv = [sys.executable, "-c", "import fermibern.cli"]
    times = []
    for _ in range(samples):
        res = run_child(argv, WORK / "setup.out")
        if res.returncode != 0:
            raise RuntimeError("cannot import fermibern.cli from src/")
        times.append(res.wall_s)
    return times


# -- one workload, untraced -----------------------------------------------------

def cli_argv(name: str, export_path: Path) -> list[str]:
    argv = [sys.executable, "-m", "fermibern"]
    if name == "audit":
        return argv + workloads.AUDIT_ARGV
    return argv + workloads.EXPORT_ARGV + [str(export_path)]


def run_audit_sample(name: str) -> tuple[ChildResult, list[str]]:
    export = WORK / "export.jsonl"
    stdout = WORK / f"{name}.stdout"
    export.unlink(missing_ok=True)
    res = run_child(cli_argv(name, export), stdout)
    if name == "audit":
        errors = workloads.check_audit(res.returncode, stdout.read_bytes())
    else:
        errors = workloads.check_export(res.returncode, export)
    return res, errors


def run_worker(name: str, seed: int, seconds: float, trace: int) -> tuple[ChildResult, dict]:
    argv = [sys.executable, str(HERE / "worker.py"), name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--work", str(WORK)]
    stdout = WORK / f"worker-{name}.stdout"
    res = run_child(argv, stdout)
    if res.returncode != 0:
        raise RuntimeError(f"worker for {name} exited with {res.returncode}")
    return res, json.loads(stdout.read_text().splitlines()[-1])


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    # the first import writes the bytecode cache, which users also have;
    # the timed imports are split before and after the workload so that
    # their median covers the same stretch of time as the workload's
    measure_setup(1)
    setup = measure_setup(SETUP_SAMPLES // 2)
    if name.startswith("audit"):
        samples, errors, attempted, failed = [], [], 0, 0
        start = perf_counter()
        while True:
            res, errs = run_audit_sample(name)
            samples.append(res)
            attempted += 1
            failed += bool(errs)
            errors += errs
            if not workloads.another_fits(start, len(samples), seconds):
                break
        walls = [s.wall_s for s in samples]
        latencies, rss, pre_s = walls, [s.maxrss_mb for s in samples], 0.0
        units = workloads.EXPECTED[name]["comparisons"]
        unit_name, query_name, sample_name = "comparisons", "runs", "runs"
    else:
        res, out = run_worker(name, seed, seconds, 0)
        walls, latencies, rss, pre_s = out["pass_s"], out["latency_s"], [res.maxrss_mb], out["pre_s"]
        attempted, failed, errors = out["attempted"], out["failed"], out["errors"]
        units = out["units"]
        unit_name, query_name = (("queries", "queries") if name == "padic-sweep"
                                 else ("Euler numbers", "table steps"))
        sample_name = "passes"
    setup += measure_setup(SETUP_SAMPLES - len(setup))
    wall = statistics.median(walls)
    values = {
        "wall_s": (wall, f"median of n={len(walls)} {sample_name}"),
        "setup_s": (statistics.median(setup) + pre_s,
                    f"median of n={len(setup)} imports + {pre_s:.4f} s workload set-up"),
        "work_per_s": (units / wall, f"{units} {unit_name} / median wall_s"),
        "query_p50_ms": (percentile(latencies, 0.50) * 1000,
                         f"n={len(latencies)} {query_name}"),
        "query_p95_ms": (percentile(latencies, 0.95) * 1000,
                         f"n={len(latencies)} {query_name}, "
                         f"{len(latencies) - math.ceil(0.95 * len(latencies))} beyond"),
        "peak_rss_mb": (statistics.median(rss), f"median of n={len(rss)} processes"),
    }
    return {"values": values, "attempted": attempted, "failed": failed, "errors": errors}


# -- one workload, traced -------------------------------------------------------

def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_counts_repeat(store: Path, key: str, counts: dict) -> list[str]:
    """Compare with the counts stored for the last traced run of the same key."""
    seen = json.loads(store.read_text()) if store.exists() else {}
    before = seen.get(key)
    errors = []
    if before is not None:
        errors = [f"count {k} was {before.get(k)} on the last traced run, now {v}"
                  for k, v in counts.items() if before.get(k) != v]
    seen[key] = counts
    store.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return errors


def traced(name: str, seed: int, layer_units: dict) -> dict:
    """Per-layer metrics from one traced run, and the tracing overhead.

    The audits compare a CLI run with a traced in-process run, each in a
    fresh interpreter (a second run in one process would find warm caches).
    The library workloads compare an untraced and a traced pass that the
    worker runs back to back.
    """
    attempted, failed, errors = 0, 0, []
    if name.startswith("audit"):
        plain, errors = run_audit_sample(name)
        attempted, failed = 1, int(bool(errors))
        res, out = run_worker(name, seed, 0, 1)
        overhead = res.wall_s - plain.wall_s
    else:
        _, out = run_worker(name, seed, 0, 1)
        overhead = out["wall_s"] - out["plain_s"]
    metrics = dict(out["metrics"])
    metrics["trace.overhead_s"] = overhead
    attempted += out["attempted"]
    failed += out["failed"]
    errors = errors + out["errors"]
    counts = {k: metrics[k] for k, unit in layer_units.items() if unit in ("count", "bytes")}
    flags = check_counts_repeat(WORK / "counts.json", f"{name}:{seed}:{code_digest()}",
                                counts)
    failed += bool(flags)
    attempted += 1
    values = {k: (metrics[k], "") for k in layer_units}
    return {"values": values, "attempted": attempted, "failed": failed,
            "errors": errors + flags}


# -- output ---------------------------------------------------------------------

def report(name: str, seed: int, trace: int, result: dict, units: dict) -> None:
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    for metric, (value, note) in result["values"].items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {metric:<36} {shown} {units[metric]:<7} {note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_ratio':<36} {failed / attempted:>16.6f} ratio   "
          f"{failed} failed / {attempted} attempted")
    for err in result["errors"]:
        print(f"  FAILED CHECK: {err}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fermibern" / "cli.py").is_file():
        print(f"error: no fermibern sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    WORK.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        if args.trace:
            result = traced(name, args.seed, units)
        else:
            result = end_to_end(name, args.seed, seconds)
        report(name, args.seed, args.trace, result, units)
        prefix = f"{name}." if args.workload == "all" else ""
        for metric in units:
            metrics[prefix + metric] = {"value": result["values"][metric][0],
                                        "unit": units[metric]}
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
