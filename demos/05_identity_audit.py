"""
Auditing the closed-form catalog, typos included
================================================

Every entry in the catalog claims a closed form for the alternating
integral of a product of Bernstein basis polynomials.  The audit
evaluates each claim against the difference oracle over a sweep of
parameters.  Two of the catalog entries circulate with a wrong index in
one edition; the "as-printed" variants reproduce that text literally,
and the sweep finds the smallest parameters that refute it.
"""

from collections import Counter

from fermibern import SUITE_ORDER, find_counterexample, run_suites

print("identity audit, corrected forms")
print("=" * 45)

reports = run_suites("ALL", n_max=8, s_max=3, m_max=2, k_max=2)
counts, fails = Counter(), Counter()
for r in reports:  # each report is built as it is read, so read each once
    counts[r.suite] += 1
    fails[r.suite] += not r.equal
print(f"\n{'suite':<7}{'checks':>8}{'fail':>6}")
for sid in SUITE_ORDER:
    print(f"{sid:<7}{counts[sid]:>8}{fails[sid]:>6}")
print(f"\ntotal: {len(reports)} comparisons, {sum(fails.values())} failures")

print("\nsmallest counterexamples to the as-printed editions")
print("=" * 45)

for sid in ("C13", "T14", "C15"):
    bad = find_counterexample(sid)
    print(f"\n{sid}: params {bad.params}")
    print(f"     closed form gives {bad.rhs}, the integral is {bad.lhs}")

print("\nthe corrected editions survive the same search")
clean = all(
    find_counterexample(sid, variant="corrected") is None
    for sid in ("C13", "T14", "C15")
)
print("corrected C13/T14/C15 sweep:", "PASS" if clean else "FAIL")
print("full corrected audit:", "PASS" if not sum(fails.values()) else "FAIL")
