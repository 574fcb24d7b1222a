"""The fingerprint tool runs on the source tree and repeats itself exactly."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fingerprint.py"
FIELDS = ("data=", "x=", "counters=", "blocks=", "wasted=", "restarts=", "converged=",
          "breakdown=", "s0_star=")


def fingerprint(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # no warning either: the fixed runs are clean
    assert proc.stderr == ""
    return proc.stdout


def test_two_runs_print_identical_lines(tmp_path):
    first = fingerprint(tmp_path)
    assert fingerprint(tmp_path) == first
    lines = first.splitlines()
    assert len(lines) == 23
    names = [ln.split()[0] for ln in lines]
    assert len(set(names)) == len(names)
    runs = [ln for ln in lines if not ln.startswith("harvest-")]
    assert len(runs) == 21
    for ln in runs:
        assert all(f" {f}" in ln for f in FIELDS), ln
    # the convection-diffusion harvest really drives the conjugate-pair path
    assert "pairs=18 " in next(ln for ln in lines if ln.startswith("harvest-convdiff"))
    # the temporary outputs, Matrix Market file included, are cleaned up
    assert not any(tmp_path.iterdir())


def test_usage_error_without_a_checkout():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 1 and "CHECKOUT" in proc.stderr
