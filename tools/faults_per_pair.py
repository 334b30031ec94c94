#!/usr/bin/env python3
"""Print minor page faults and CPU seconds per registered pair of a defreg checkout.

    python3 tools/faults_per_pair.py ROOT [PAIRS]

``ROOT`` is the root of a checkout; its ``src/defreg`` is imported, and the
criterion-5 recipe (``ablation_pair``) from its ``tests/test_acceptance.py``.
Three suites are registered in this one process with the default
configuration, each after one warm-up pair that is not reported:

* ``labelled112``: the criterion-4 recipe, 112 px pairs with a 4 px field
  and their label maps;
* ``unlabelled112``: the same pairs without labels (the images the
  ``batch_cli`` benchmark workload registers);
* ``weak64``: the criterion-5 recipe, 64 px pairs with an 8 px field,
  observation noise and label maps jittered by 2.5 px.

Each pair prints one line: the suite, the pair's seed, ``getrusage``
``ru_minflt`` and the user and system CPU seconds of its ``register`` call.
Each suite then prints its mean. Fault counts depend on the code, the C
library, the interpreter's memory layout and the state of the machine. The
layout follows the string hash seed, so when ``PYTHONHASHSEED`` is unset the
tool re-runs itself with ``PYTHONHASHSEED=0``. Even so, runs do not repeat:
within one hour one checkout read a ``labelled112`` mean of 752, then 1,206,
faults per pair. So one run per checkout tells nothing about a change.
Compare a parent and a change by several runs of each, interleaved in a fixed
order (A, B, B, A, ...), and compare the spread of each side's means.
"""

from __future__ import annotations

import os
import resource
import sys
from pathlib import Path


def suites(pairs: int):
    """``(name, [(seed, fixed, moving, fixed_labels, moving_labels)])`` per suite;
    seed 0 of each suite is its warm-up pair."""
    from defreg import PhantomSpec, make_pair
    from test_acceptance import ablation_pair

    recovery = [(seed, make_pair(PhantomSpec(), deform_magnitude_px=4.0, seed=seed))
                for seed in range(pairs + 1)]
    yield "labelled112", [(seed, p.fixed_image, p.moving_image, p.fixed_labels, p.moving_labels)
                          for seed, p in recovery]
    yield "unlabelled112", [(seed, p.fixed_image, p.moving_image, None, None)
                            for seed, p in recovery]
    weak = [(seed, *ablation_pair(seed)) for seed in range(pairs + 1)]
    yield "weak64", [(seed, p.fixed_image, p.moving_image, sup_fixed, sup_moving)
                     for seed, p, sup_fixed, sup_moving in weak]


def measure(root: Path, pairs: int):
    """Yield one ``(suite, seed, minflt, user_s, sys_s)`` per reported pair."""
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from defreg import register

    for name, cases in suites(pairs):
        for k, (seed, fixed, moving, fixed_lab, moving_lab) in enumerate(cases):
            before = resource.getrusage(resource.RUSAGE_SELF)
            register(fixed, moving, fixed_lab, moving_lab)
            after = resource.getrusage(resource.RUSAGE_SELF)
            if k:  # the first pair warms the suite up
                yield (name, seed, after.ru_minflt - before.ru_minflt,
                       after.ru_utime - before.ru_utime, after.ru_stime - before.ru_stime)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        raise SystemExit(f"usage: {Path(__file__).name} ROOT [PAIRS]")
    pairs = int(argv[1]) if len(argv) == 2 else 4
    print("suite seed minflt user_s sys_s")
    rows = {}
    for row in measure(Path(argv[0]).resolve(), pairs):
        print(f"{row[0]} {row[1]} {row[2]} {row[3]:.3f} {row[4]:.3f}", flush=True)
        rows.setdefault(row[0], []).append(row[2:])
    for name, values in rows.items():
        n = len(values)
        print(f"{name} mean {sum(v[0] for v in values) / n:.0f} "
              f"{sum(v[1] for v in values) / n:.3f} {sum(v[2] for v in values) / n:.3f}")


if __name__ == "__main__":
    if "PYTHONHASHSEED" not in os.environ:  # the fault counts follow the hash seed
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    main()
