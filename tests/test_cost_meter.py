"""Tests of ``tools/cost_meter.py``: two runs of one checkout count the same work."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cost_meter.py"


def test_checkout_against_itself_repeats():
    """One weak64 pair, this checkout on both sides, twice: the two reports are
    equal, each level's line shows every count on both sides and no difference,
    and the totals close the report. No count is pinned."""
    outputs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload",
                               "weak64", "--pairs", "1", "--seed", "3"],
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    levels = [line for line in lines if line.startswith("p00 level ")]
    assert len(levels) == 3
    for line in levels:
        counts = re.findall(r"(evaluations|backward passes|iterations) (\d+) -> (\d+) \(\+0\)",
                            line)
        assert [name for name, _, _ in counts] == ["evaluations", "backward passes",
                                                   "iterations"], line
        assert all(int(p) == int(c) > 0 for _, p, c in counts), line
        parent, change = re.search(r"termination (\w+) -> (\w+)$", line).groups()
        assert parent == change
    totals = lines[-3:]
    assert [line.split(" ")[0] for line in totals] == ["evaluations", "backward", "iterations"]
    assert all(line.endswith("(+0)") for line in totals)
