"""Spans around the public functions of each fermibern layer, from outside.

`install()` replaces module attributes with timing wrappers: the defining
module's name and every other module that bound the function at import
(`identities` and `cli` import `integrate`, `bernstein_poly` and
`run_suites` by name; `fermint` imports `vp` and `reduce_mod`).  Nothing
under `src/` is edited.  Spans (name, start, end, parent, run id) stay in
memory until `write_spans()`.

A layer is the first component of a span name.  A layer's self time is
the sum over its spans of the span's duration minus the part its child
spans cover.  Per-suite times come from the construction of each
`IdentityReport`: the time since the previous report (or since
`run_suites` started) is charged to the suite of the new report.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "identities", "exactnum", "fermint", "euler", "bernstein", "padic")


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.suite_s: Counter = Counter()
        self.suite_integrate: Counter = Counter()
        self._last_report = 0.0
        self._integrate_at_last_report = 0

    def span(self, name: str, fn, on_call=None):
        """Wrap fn so that each call records a span named `name`."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return wrapper

    # -- hooks that count work at the layer boundary --------------------------

    def _count_mul(self, a, b):
        self.counts["exactnum.mul_int_calls"] += _integral(a) and _integral(b)

    def _count_points(self, n_index: int):
        def hook(*args, **kwargs):
            self.counts["fermint.points"] += args[1] ** args[n_index]
        return hook

    def _count_integrate(self, *args, **kwargs):
        self.counts["fermint.integrate_calls"] += 1

    def _count_ensure(self, cache, n):
        if n + 1 > self.counts["euler.table_size"]:
            self.counts["euler.table_size"] = n + 1

    def _start_suites(self, *args, **kwargs):
        self._last_report = perf_counter()
        self._integrate_at_last_report = self.counts["fermint.integrate_calls"]

    def _on_report(self, suite):
        now = perf_counter()
        self.suite_s[suite] += now - self._last_report
        integrate_calls = self.counts["fermint.integrate_calls"]
        self.suite_integrate[suite] += integrate_calls - self._integrate_at_last_report
        self._last_report = now
        self._integrate_at_last_report = integrate_calls

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts and total time, and per-layer self time."""
        n = len(self.names)
        child = [0.0] * n
        total = defaultdict(float)
        calls = Counter()
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += dur
            total[self.names[i]] += dur
            calls[self.names[i]] += 1
        self_s = defaultdict(float)
        for i in range(n):
            self_s[self.names[i].split(".", 1)[0]] += (
                self.ends[i] - self.starts[i] - child[i])
        return {"total_s": dict(total), "calls": dict(calls), "self_s": dict(self_s)}

    def parent_name_calls(self, name: str, parent_name: str) -> int:
        """Calls of `name` made directly inside a span named `parent_name`."""
        names, parents = self.names, self.parents
        return sum(1 for i, nm in enumerate(names)
                   if nm == name and parents[i] >= 0 and names[parents[i]] == parent_name)

    def write_spans(self, path) -> None:
        """One CSV row per span: run id, index, parent index, name, start, end."""
        base = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("run_id,span,parent,name,start_s,end_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{self.run_id},{i},{self.parents[i]},{name},"
                         f"{self.starts[i] - base:.9f},{self.ends[i] - base:.9f}\n")


def _integral(x) -> bool:
    if isinstance(x, int):
        return True
    coeffs = getattr(x, "coeffs", None)
    if coeffs is None:
        return getattr(x, "denominator", 0) == 1
    return all(c.denominator == 1 for c in coeffs)


def install(tracer: Tracer, with_cli: bool):
    """Patch the layer boundaries; returns the cached bernstein_poly for cache_info()."""
    from fermibern import bernstein, euler, exactnum, fermint, identities, padic

    def patch(modules, attr, name, on_call=None):
        original = getattr(modules[0], attr)
        wrapped = tracer.span(name, original, on_call)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
        return original

    mods_cli = []
    if with_cli:
        from fermibern import cli
        mods_cli = [cli]

    patch([exactnum.Poly], "__mul__", "exactnum.mul", tracer._count_mul)
    exactnum.Poly.__rmul__ = exactnum.Poly.__mul__
    patch([euler.EulerCache], "ensure", "euler.ensure", tracer._count_ensure)
    bern = patch([bernstein, identities] + mods_cli, "bernstein_poly", "bernstein.poly")
    patch([fermint, identities] + mods_cli, "integrate", "fermint.integrate",
          tracer._count_integrate)
    patch([fermint] + mods_cli, "convergence_trace", "fermint.convergence_trace",
          tracer._count_points(2))
    patch([fermint], "partial_sum", "fermint.partial_sum", tracer._count_points(2))
    patch([fermint], "q_partial_sum", "fermint.q_partial_sum", tracer._count_points(3))
    patch([padic, fermint], "vp", "padic.vp")
    patch([padic, fermint], "reduce_mod", "padic.reduce_mod")
    patch([identities] + mods_cli, "run_suites", "identities.run_suites",
          tracer._start_suites)
    # private helpers of the identities layer: the T12/C13 product walker
    # and its cached powers, so that products built by the walker can be
    # told apart from the multiplications inside the powers
    for attr, name in (("_mult_rows", "identities.mult_walker"),
                       ("_bern_power", "identities.bern_power")):
        if hasattr(identities, attr):
            patch([identities], attr, name)

    report_init = identities.IdentityReport.__init__

    @functools.wraps(report_init)
    def counted_init(self, suite, *args, **kwargs):
        tracer._on_report(suite)
        report_init(self, suite, *args, **kwargs)

    identities.IdentityReport.__init__ = counted_init

    if with_cli:
        for attr in ("render_verify_table", "render_verify_json", "render_verify_csv"):
            patch([cli], attr, "cli.render")
        patch([cli], "main", "cli.main")
    return bern
