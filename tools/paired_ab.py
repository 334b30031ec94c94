#!/usr/bin/env python3
"""Paired A/B runs of two defreg checkouts on one benchmark workload: wall time,
minor page faults and CPU time per pair, peak RSS per run, and the work each
level of each pair does.

    python3 tools/paired_ab.py PARENT CHANGE --workload W [--rounds 10] [--seed S] [--pairs N]

``PARENT`` and ``CHANGE`` are the roots of two checkouts. Each round runs each
checkout once in a fresh interpreter, alternating which runs first. A run
imports its checkout's ``src/defreg`` and ``make_cases`` from its
``perfbench/run.py`` and registers the workload's pairs in process with the
default configuration (``batch_cli``'s without the CLI). It first warms up:
glibc's heap grows over the first pairs of an interpreter, which take hundreds
to over a thousand minor faults each, so it registers the pairs in turn until
the minor-fault counts of ``SETTLED_RUN`` successive pairs differ by at most
``SETTLED_SPREAD`` (they settle from about the seventh pair), or for
``MAX_WARMUP`` pairs. It then measures the pairs once more and prints each
pair's wall seconds, ``getrusage`` minor faults (``ru_minflt``) and user plus
system CPU seconds, the run's peak resident set (``ru_maxrss`` in MB, as the
benchmark's ``peak_rss_mb``), the warm-up's pair count and minor faults, and
one sha256 over the measured grids and reports (``report_dict()`` as sorted
JSON: each level's trace, and the folding), hashed outside the timed region.

A side's value in a round is the median over its pairs, as the benchmark's
``pair_s_p50``, and for RSS the run's peak. For each measure the report gives
each side's median and quartiles over the rounds, the rounds where the change's
value was lower (a tie counts for neither side), the median of the per-round
ratios change/parent (over rounds where the parent's is not 0), and a verdict:
``gain`` only when the change was lower in at least nine rounds and nine tenths
of them and its median is below the parent's by more than the parent's
interquartile range, otherwise ``unresolved``. Each round's line also gives
both sides' warm-up pairs and faults, which no verdict reads. Then it says
whether every run gave the same digest.

Last come the counts from each side's last run, which repeat exactly: per pair
and level (coarsest first) the trace's loss evaluations (the start plus every
line-search trial), backward passes (``len(losses)``: the start plus each
accepted step), iterations and termination, parent -> change with the
difference; each count's total and mean per pair; and each side's accepted
share of the trials, iterations / (evaluations - levels).

Fault counts follow the memory layout, which follows the string hash seed
(children inherit the caller's environment; set ``PYTHONHASHSEED`` to fix it)
and the checkout's path, so the two checkouts' resolved paths must have one
length. The exit code is 0 when every run succeeded, 1 when one failed or the
two checkouts built different pairs, and 2, with one line and before any run,
on a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the measures a run reports, per pair (RSS once per run): key, name in the report, format
MEASURES = (("seconds", "wall time (s)", ".4f"), ("faults", "minor faults", ".1f"),
            ("cpu", "CPU time (s)", ".4f"), ("rss", "peak RSS (MB)", ".1f"))
# the counts of a level that its trace gives, besides its termination
COUNTS = ("evaluations", "backward passes", "iterations")
# the warm-up ends once SETTLED_RUN successive pairs' minor-fault counts differ
# by at most SETTLED_SPREAD, or after MAX_WARMUP pairs; the settled count need
# not be 0 (one weak64 pair repeated settles at 116-161 faults)
SETTLED_RUN = 3
SETTLED_SPREAD = 10
MAX_WARMUP = 30


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def warm_up(register, cases, cfg) -> list:
    """Register the cases in turn until the per-pair minor-fault count settles;
    return each warm-up pair's faults."""
    faults = []
    while len(faults) < MAX_WARMUP and not (
            len(faults) >= SETTLED_RUN
            and max(faults[-SETTLED_RUN:]) - min(faults[-SETTLED_RUN:]) <= SETTLED_SPREAD):
        case, before = cases[len(faults) % len(cases)], minor_faults()
        register(case.fixed, case.moving, case.sup_fixed, case.sup_moving, cfg)
        faults.append(minor_faults() - before)
    return faults


def run_checkout(root: Path, workload: str, seed: int, pairs: int | None) -> dict:
    """In a fresh interpreter: import ``root``'s defreg, build the workload's cases
    with ``root``'s ``perfbench/run.py`` and measure them."""
    sys.path.insert(0, str(root / "src"))
    import defreg

    if Path(defreg.__file__).resolve().parent != (root / "src" / "defreg").resolve():
        raise SystemExit(f"imported defreg from {defreg.__file__}, not from {root / 'src'}")
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)  # its dataclasses look their module up by name
    cases = bench.make_cases(workload, seed, bench.DEFAULT_SIZE[workload],
                             pairs or bench.DEFAULT_PAIRS[workload])
    register, cfg = defreg.register, defreg.RegistrationConfig()
    warmup = warm_up(register, cases, cfg)
    digest, out, counts = hashlib.sha256(), {key: [] for key, _, _ in MEASURES}, []
    for case in cases:
        before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        res = register(case.fixed, case.moving, case.sup_fixed, case.sup_moving, cfg)
        out["seconds"].append(time.perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_SELF)
        out["faults"].append(after.ru_minflt - before.ru_minflt)
        out["cpu"].append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        digest.update(res.grid.coeffs.tobytes())
        digest.update(json.dumps(res.report_dict(), sort_keys=True).encode())
        counts.append({"pid": case.pid, "levels": [
            {"level": t.level, "width": t.width, "evaluations": t.evaluations,
             "backward passes": len(t.losses), "iterations": len(t.losses) - 1,
             "termination": t.termination} for t in res.level_traces]})
    out["rss"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return {**out, "warmup_faults": warmup, "sha256": digest.hexdigest(), "counts": counts}


def run_side(root: Path, args):
    """Run this script with ``--run root`` and ``args``' workload, seed and pairs in
    a fresh interpreter; return the JSON value its last stdout line holds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--run", str(root),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.pairs is not None:
        cmd += ["--pairs", str(args.pairs)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run of {root} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def report(name: str, fmt: str, parent: list, change: list) -> None:
    """Print one measure's quartiles per side, the change's wins, the median
    ratio and the verdict."""
    iqr = {}
    for side, values in (("parent", parent), ("change", change)):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        iqr[side] = q3 - q1
        print(f"{name}: {side} median {median:{fmt}}, quartiles {q1:{fmt}}-{q3:{fmt}} "
              f"(IQR {q3 - q1:{fmt}})")
    wins = sum(c < p for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change) if p]
    ratio = f"{statistics.median(ratios):.3f}" if ratios else "undefined"
    gap = statistics.median(parent) - statistics.median(change)
    gain = wins >= max(9, 0.9 * len(parent)) and gap > iqr["parent"]
    print(f"{name}: change lower in {wins} of {len(parent)} rounds, median ratio "
          f"change/parent {ratio}, verdict {'gain' if gain else 'unresolved'}")


def compare(args) -> int:
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    rounds = {key: {"parent": [], "change": []} for key, _, _ in MEASURES}
    warmups, digests, counts = {}, set(), {}
    print(f"workload {args.workload}, seed {args.seed}, {args.rounds} rounds; a round's "
          "value is the median per pair", flush=True)
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                out = run_side(roots[side], args)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            for key, values in rounds.items():
                values[side].append(statistics.median(out[key]))
            warmups[side] = out["warmup_faults"]
            digests.add(out["sha256"])
            counts[side] = out["counts"]
        print(f"round {r + 1} ({order[0]} first), parent -> change: " + "; ".join(
            f"{name} {rounds[key]['parent'][-1]:{fmt}} -> {rounds[key]['change'][-1]:{fmt}}"
            for key, name, fmt in MEASURES) + "; warm-up " + " -> ".join(
            f"{len(warmups[side])} pairs, {sum(warmups[side])} faults"
            for side in ("parent", "change")), flush=True)
    for key, name, fmt in MEASURES:
        report(name, fmt, rounds[key]["parent"], rounds[key]["change"])
    print("outputs: " + ("identical" if len(digests) == 1 else "differ"))
    return report_counts(counts["parent"], counts["change"])


def _diff(name: str, parent, change) -> str:
    return f"{name} {parent:g} -> {change:g} ({change - parent:+g})"


def report_counts(parent: list, change: list) -> int:
    """Print each pair's and level's counts, parent -> change, their totals and each
    side's accepted share of the trials; 1 when the sides built other pairs."""
    if [p["pid"] for p in parent] != [c["pid"] for c in change]:
        print("error: the two checkouts built different pairs", file=sys.stderr)
        return 1
    print("counts per pair and level, parent -> change (difference)")
    for p, c in zip(parent, change):
        for pl, cl in zip(p["levels"], c["levels"]):
            print(f"{p['pid']} level {pl['level']} ({pl['width']} px): " + "; ".join(
                _diff(name, pl[name], cl[name]) for name in COUNTS)
                + f"; termination {pl['termination']} -> {cl['termination']}")
    totals = {name: [sum(level[name] for pair in pairs for level in pair["levels"])
                     for pairs in (parent, change)] for name in COUNTS}
    for name, sides in totals.items():
        print(f"{_diff(name, *sides)} in total, "
              f"{_diff('per pair', *(t / len(parent) for t in sides))}")
    for k, (side, pairs) in enumerate((("parent", parent), ("change", change))):
        accepted = totals["iterations"][k]
        trials = totals["evaluations"][k] - sum(len(pair["levels"]) for pair in pairs)
        print(f"{side}: {accepted} of {trials} trials accepted ({accepted / trials:.4f})")
    return 0


class Parser(argparse.ArgumentParser):
    """A usage error prints one line and exits 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def main(argv=None):
    """Parse ``argv``. In a child (``--run ROOT``), print one side's run as JSON and
    exit 0; otherwise compare PARENT with CHANGE. A usage error exits 2 with one
    line, before any run."""
    p = Parser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, nargs="?")
    p.add_argument("change", type=Path, nargs="?")
    p.add_argument("--workload", required=True, choices=("recovery112", "weak64", "batch_cli"))
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=None, help="pairs per run (the workload's)")
    p.add_argument("--run", type=Path, help=argparse.SUPPRESS)  # one side, in a child
    args = p.parse_args(argv)
    if args.seed < 0 or (args.pairs is not None and args.pairs < 1):
        p.error("give a seed of at least 0 and at least 1 pair")
    if args.run is not None:
        print(json.dumps(run_checkout(args.run.resolve(), args.workload, args.seed, args.pairs)))
        return 0
    if args.parent is None or args.change is None:
        p.error("give PARENT and CHANGE")
    for root in (args.parent, args.change):
        if not (root / "src" / "defreg").is_dir() or not (root / "perfbench" / "run.py").is_file():
            p.error(f"{root} is not the root of a defreg checkout")
    if args.rounds < 2:
        p.error("give at least 2 rounds")
    lengths = [len(str(root.resolve())) for root in (args.parent, args.change)]
    if lengths[0] != lengths[1]:
        p.error(f"PARENT and CHANGE resolve to paths of {lengths[0]} and {lengths[1]} "
                "characters; fault counts follow the path, so give paths of one length")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
