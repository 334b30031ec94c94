"""Tests of ``tools/paired_ab.py``: a checkout against itself, its warm-up and its usage errors."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "paired_ab.py"


def test_checkout_against_itself():
    """Two rounds of one pair each: every run gives the same digest, the report
    gives both sides' medians and a verdict for each measure, which cannot be a
    gain from fewer than nine wins, and the exit code is 0. Each level's line
    shows every count on both sides and no difference, the totals show none
    either, and each side's accepted share closes the report. No count is pinned."""
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload",
                           "weak64", "--rounds", "2", "--pairs", "1", "--seed", "3"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rounds = [line for line in lines if line.startswith("round ")]
    assert len(rounds) == 2
    assert all(re.search(r"; warm-up \d+ pairs, \d+ faults -> \d+ pairs, \d+ faults$", line)
               for line in rounds), rounds
    for name in ("wall time (s)", "minor faults", "CPU time (s)", "peak RSS (MB)"):
        for side in ("parent", "change"):
            assert sum(line.startswith(f"{name}: {side} median ") for line in lines) == 1
        verdicts = [line for line in lines if line.startswith(f"{name}: change lower in ")]
        assert len(verdicts) == 1
        assert verdicts[0].endswith("verdict unresolved")
    assert "outputs: identical" in lines
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
    totals, shares = lines[-5:-2], lines[-2:]
    assert [line.split(" ")[0] for line in totals] == ["evaluations", "backward", "iterations"]
    assert all(line.endswith("(+0)") for line in totals)
    assert [line.split(":")[0] for line in shares] == ["parent", "change"]
    assert shares[0].split(": ")[1] == shares[1].split(": ")[1]
    assert re.fullmatch(r"change: \d+ of \d+ trials accepted \(0\.\d{4}\)", shares[1])


def load_tool():
    spec = importlib.util.spec_from_file_location("paired_ab", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("faults, pairs", [
    # the heap grows over the first pairs, then the count holds still
    ([1505, 682, 168, 100, 74, 2, 1, 0, 0], 8),
    # a settled count need not be 0
    ([499, 175, 167, 123, 116, 119, 126, 153], 6),
    # never settles: the warm-up stops at its cap
    ([0, 100] * 30, 30),
])
def test_warm_up_runs_until_the_faults_settle(faults, pairs, monkeypatch):
    """The warm-up registers the cases in turn and stops after the first run of
    ``SETTLED_RUN`` pairs whose fault counts lie within ``SETTLED_SPREAD``, or
    after ``MAX_WARMUP`` pairs, and returns each pair's faults."""
    tool = load_tool()
    assert (tool.SETTLED_RUN, tool.SETTLED_SPREAD, tool.MAX_WARMUP) == (3, 10, 30)
    total, registered = [0], []

    def register(fixed, moving, sup_fixed, sup_moving, cfg):
        total[0] += faults[len(registered)]
        registered.append(fixed)

    monkeypatch.setattr(tool, "minor_faults", lambda: total[0])
    cases = [SimpleNamespace(fixed=name, moving=name, sup_fixed=None, sup_moving=None)
             for name in "abc"]
    assert tool.warm_up(register, cases, None) == faults[:pairs]
    assert registered == ["abc"[k % 3] for k in range(pairs)]


def assert_usage_error(argv, monkeypatch, capsys):
    """Exit 2 with one line on stderr, before any child starts."""
    tool = load_tool()

    def no_child(*args, **kwargs):
        raise AssertionError("a child was started")

    monkeypatch.setattr(tool.subprocess, "run", no_child)
    with pytest.raises(SystemExit) as exit_info:
        tool.main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "error:" in err


@pytest.mark.parametrize("flags", [("--pairs", "0"), ("--pairs", "-1"), ("--seed", "-1")])
def test_bad_count_is_a_usage_error(flags, monkeypatch, capsys):
    assert_usage_error([str(ROOT), str(ROOT), "--workload", "weak64", *flags],
                       monkeypatch, capsys)


def test_paths_of_different_lengths_are_a_usage_error(tmp_path, monkeypatch, capsys):
    """Fault counts follow the checkout's path, so two stub checkouts at paths of
    different lengths are refused."""
    roots = [tmp_path / "a", tmp_path / "bb"]
    for root in roots:
        (root / "src" / "defreg").mkdir(parents=True)
        (root / "perfbench").mkdir()
        (root / "perfbench" / "run.py").touch()
    assert_usage_error([*map(str, roots), "--workload", "weak64"], monkeypatch, capsys)
