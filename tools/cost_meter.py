#!/usr/bin/env python3
"""Count the work two defreg checkouts do on one benchmark workload: per pair
and level, the loss evaluations, backward passes, iterations and termination.

    python3 tools/cost_meter.py PARENT CHANGE --workload W [--seed S] [--pairs N]

``PARENT`` and ``CHANGE`` are the roots of two checkouts. Each runs once in a
fresh interpreter, which imports its ``src/defreg`` and the workload's cases
from its ``perfbench/run.py`` (as ``tools/paired_ab.py`` does) and registers
every pair in process with the default configuration. Loss evaluations are
counted by wrapping ``defreg.solver.total_loss``: each call is one. The rest
comes from each level's trace: a level runs one backward pass at its start and
one per accepted step, so it runs ``len(losses)`` backward passes in
``len(losses) - 1`` iterations. Unlike times, the counts repeat exactly from run
to run, so one run per side suffices.

It prints, for each pair and level (coarsest first), both sides' counts and
the change's differences, then each side's total over the pairs and the mean
per pair. The exit code is 0 when both runs succeeded, 1 when one failed and 2,
with one line and before any run, on a usage error.
"""

from __future__ import annotations

import sys
from pathlib import Path

from paired_ab import checkout_parser, load_checkout, parse_args, run_side

COUNTS = ("evaluations", "backward passes", "iterations")


def count_checkout(root: Path, workload: str, seed: int, pairs: int | None) -> list:
    """In a fresh interpreter: each pair's id and per-level counts with ``root``'s defreg."""
    defreg, cases = load_checkout(root, workload, seed, pairs)
    solver, cfg = defreg.solver, defreg.RegistrationConfig()
    original, levels = solver.total_loss, []

    def counting_total_loss(fixed, *args, **kwargs):
        if not levels or levels[-1]["shape"] != fixed.data.shape:
            levels.append({"shape": fixed.data.shape, "evaluations": 0})
        levels[-1]["evaluations"] += 1
        return original(fixed, *args, **kwargs)

    solver.total_loss = counting_total_loss
    out = []
    for case in cases:
        levels.clear()
        res = defreg.register(case.fixed, case.moving, case.sup_fixed, case.sup_moving, cfg)
        if len(levels) != len(res.level_traces):
            raise SystemExit(f"{case.pid}: counted {len(levels)} levels, "
                             f"registered {len(res.level_traces)}")
        out.append({"pid": case.pid, "levels": [
            {"level": t.level, "width": t.width, "evaluations": n["evaluations"],
             "backward passes": len(t.losses), "iterations": len(t.losses) - 1,
             "termination": t.termination}
            for t, n in zip(res.level_traces, levels)]})
    return out


def _diff(name: str, parent, change) -> str:
    return f"{name} {parent:g} -> {change:g} ({change - parent:+g})"


def compare(args) -> int:
    sides = {}
    for side, root in (("parent", args.parent), ("change", args.change)):
        try:
            sides[side] = run_side(root.resolve(), args, __file__)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    parent, change = sides["parent"], sides["change"]
    if [p["pid"] for p in parent] != [c["pid"] for c in change]:
        print("error: the two checkouts built different pairs", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, {len(parent)} pairs; "
          "parent -> change (difference)")
    for p, c in zip(parent, change):
        for pl, cl in zip(p["levels"], c["levels"]):
            print(f"{p['pid']} level {pl['level']} ({pl['width']} px): " + "; ".join(
                _diff(name, pl[name], cl[name]) for name in COUNTS)
                + f"; termination {pl['termination']} -> {cl['termination']}")
    for name in COUNTS:
        totals = [sum(level[name] for pair in pairs for level in pair["levels"])
                  for pairs in (parent, change)]
        print(f"{_diff(name, *totals)} in total, "
              f"{_diff('per pair', *(t / len(parent) for t in totals))}")
    return 0


def main(argv=None):
    return compare(parse_args(checkout_parser(__doc__.splitlines()[0]), argv, count_checkout))


if __name__ == "__main__":
    sys.exit(main())
