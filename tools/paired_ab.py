#!/usr/bin/env python3
"""Paired A/B timing of two defreg checkouts on one benchmark workload.

    python3 tools/paired_ab.py PARENT CHANGE --workload W [--rounds 10] [--seed S] [--pairs N]

``PARENT`` and ``CHANGE`` are the roots of two checkouts. Each round runs each
checkout once in a fresh interpreter, alternating which of them runs first. A
run imports its checkout's ``src/defreg`` and the benchmark inputs
(``make_cases``) from its ``perfbench/run.py``, as ``tools/output_digest.py``
does. It registers one warm-up pair, then the workload's pairs in process with
the default configuration (``batch_cli``'s pairs too, without the CLI), and
prints each pair's seconds and one sha256 over the pairs' grids and loss traces.

A side's time in a round is the median of its pairs' seconds, as the
benchmark's ``pair_s_p50``. The report gives each side's median and quartiles
over the rounds, the rounds the change won (a tie counts for neither side), the
median of the per-round ratios change/parent, and whether every run gave the
same digest. Its verdict is ``gain`` only when the change won at least nine
tenths of the rounds and its median is below the parent's by more than the
parent's interquartile range; otherwise it is ``unresolved``. The exit code is
0 when every run succeeded, 1 when one failed and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_checkout(root: Path, workload: str, seed: int, pairs: int | None) -> dict:
    """In a fresh interpreter: time the workload's pairs with ``root``'s defreg."""
    sys.path.insert(0, str(root / "src"))
    import defreg
    from defreg import RegistrationConfig, register

    if Path(defreg.__file__).resolve().parent != (root / "src" / "defreg").resolve():
        raise SystemExit(f"imported defreg from {defreg.__file__}, not from {root / 'src'}")
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)  # its dataclasses look their module up by name
    cases = bench.make_cases(workload, seed, bench.DEFAULT_SIZE[workload],
                             pairs or bench.DEFAULT_PAIRS[workload])
    cfg = RegistrationConfig()
    warm = cases[0]
    register(warm.fixed, warm.moving, warm.sup_fixed, warm.sup_moving, cfg)
    digest, seconds = hashlib.sha256(), []
    for case in cases:
        start = time.perf_counter()
        res = register(case.fixed, case.moving, case.sup_fixed, case.sup_moving, cfg)
        seconds.append(time.perf_counter() - start)
        digest.update(res.grid.coeffs.tobytes())
        digest.update(repr([t.losses for t in res.level_traces]).encode())
    return {"seconds": seconds, "sha256": digest.hexdigest()}


def run_side(root: Path, args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--run", str(root),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.pairs:
        cmd += ["--pairs", str(args.pairs)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run of {root} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(name: str, times: list) -> float:
    """Print a side's median and quartiles; return its interquartile range."""
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    print(f"{name}: median {median:.4f} s, quartiles {q1:.4f}-{q3:.4f} s (IQR {q3 - q1:.4f} s)")
    return q3 - q1


def compare(args) -> int:
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times = {"parent": [], "change": []}
    digests = set()
    print(f"workload {args.workload}, seed {args.seed}, {args.rounds} rounds; a round's "
          "time is the median seconds per pair", flush=True)
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                out = run_side(roots[side], args)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            times[side].append(statistics.median(out["seconds"]))
            digests.add(out["sha256"])
        print(f"round {r + 1} ({order[0]} first): parent {times['parent'][-1]:.4f} s, "
              f"change {times['change'][-1]:.4f} s", flush=True)
    parent_iqr = summary("parent", times["parent"])
    summary("change", times["change"])
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    ratio = statistics.median(c / p for p, c in zip(times["parent"], times["change"]))
    print(f"change faster in {wins} of {args.rounds} rounds; "
          f"median ratio change/parent {ratio:.3f}")
    print("outputs: " + ("identical" if len(digests) == 1 else "differ"))
    gap = statistics.median(times["parent"]) - statistics.median(times["change"])
    gain = wins >= 0.9 * args.rounds and gap > parent_iqr
    print("verdict: " + ("gain" if gain else "unresolved"))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, nargs="?")
    p.add_argument("change", type=Path, nargs="?")
    p.add_argument("--workload", required=True, choices=("recovery112", "weak64", "batch_cli"))
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=None, help="pairs per run (the workload's)")
    p.add_argument("--run", type=Path, help=argparse.SUPPRESS)  # one side, in a child
    args = p.parse_args(argv)
    if args.run is not None:
        print(json.dumps(run_checkout(args.run.resolve(), args.workload, args.seed, args.pairs)))
        return 0
    if args.parent is None or args.change is None or args.rounds < 2:
        p.error("give PARENT and CHANGE, and at least 2 rounds")
    for root in (args.parent, args.change):
        if not (root / "src" / "defreg").is_dir() or not (root / "perfbench" / "run.py").is_file():
            p.error(f"{root} is not the root of a defreg checkout")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
