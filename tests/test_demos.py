"""Smoke test: every demo runs to completion and reports no FAIL.

Demo 05, the identity audit, is the slowest, at about 2-3 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_euler_numbers.py",
    "02_bernstein_basis.py",
    "03_fermionic_moments.py",
    "04_padic_convergence.py",
    "05_identity_audit.py",
])
def test_demo_runs_clean(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout
    assert "PASS" in proc.stdout
