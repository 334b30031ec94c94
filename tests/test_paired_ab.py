"""Smoke test of ``tools/paired_ab.py``: a checkout against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_checkout_against_itself():
    """Two rounds of one pair each: every run gives the same digest, the report
    has both sides' quartiles and a verdict, and the exit code is 0."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "paired_ab.py"), str(ROOT),
                           str(ROOT), "--workload", "weak64", "--rounds", "2", "--pairs", "1",
                           "--seed", "3"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" ")[0] for line in lines if line.startswith("round ")] == ["round"] * 2
    assert sum(line.startswith(("parent: median", "change: median")) for line in lines) == 2
    assert "outputs: identical" in lines
    assert lines[-1] in ("verdict: gain", "verdict: unresolved")
