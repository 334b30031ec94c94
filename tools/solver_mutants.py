#!/usr/bin/env python3
"""Check that the solver-policy fingerprint test notices each of six small
changes to the solver's policy.

    python3 tools/solver_mutants.py [ROOT]

``ROOT`` is the root of a checkout (default: this script's checkout). Its
``src/``, ``tests/`` and ``pyproject.toml`` are copied to a temporary
directory; the checkout itself is never written. The copy needs its own
``src``, because pyproject's ``pythonpath = ["src"]`` puts the rootdir's
``src`` ahead of ``PYTHONPATH``. The unmutated copy must pass the
fingerprint; then each mutant is applied to a fresh copy and
``tests/test_solver.py -k fingerprint`` runs there. A mutant survives when
that run passes. The exit code is 1 if any mutant survives (each is named),
otherwise 0. Standard library only; each run takes about 1 s on 2 cores.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SOLVER = "src/defreg/solver.py"
# name -> (file, old, new); ``old`` must occur exactly once in ``file``
MUTANTS = {
    "armijo constant 1e-4 -> 1e-2": (SOLVER, "ARMIJO_CONSTANT = 1e-4", "ARMIJO_CONSTANT = 1e-2"),
    "warm start 2.0*t -> 1.5*t": (SOLVER, "step = 2.0 * t", "step = 1.5 * t"),
    "backtrack factor 0.5 -> 0.6": (SOLVER, "BACKTRACK_FACTOR = 0.5", "BACKTRACK_FACTOR = 0.6"),
    "stall window 10 -> 5": (SOLVER, "STALL_WINDOW = 10", "STALL_WINDOW = 5"),
    "stall tolerance 1e-3 -> 1e-4": (SOLVER, "STALL_TOLERANCE = 1e-3", "STALL_TOLERANCE = 1e-4"),
    "prolongation 2.0*fine -> 1.9*fine": ("src/defreg/bspline.py",
                                          "ControlGrid(grid.spacing_px, 2.0 * fine)",
                                          "ControlGrid(grid.spacing_px, 1.9 * fine)"),
}


def _copy(root: Path, dest: Path):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(root / name, dest / name, ignore=ignore)
    shutil.copy2(root / "pyproject.toml", dest / "pyproject.toml")


def _mutate(dest: Path, file: str, old: str, new: str):
    path = dest / file
    text = path.read_text()
    count = text.count(old)
    if count != 1:
        raise SystemExit(f"error: {old!r} occurs {count} times in {file}, expected once")
    path.write_text(text.replace(old, new))


def _fingerprint_passes(dest: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(dest / "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "tests/test_solver.py", "-k", "fingerprint"],
                          cwd=dest, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: tests failed; anything else: pytest itself did
        raise SystemExit(f"error: pytest exited {proc.returncode} in {dest}\n{proc.stdout}"
                         f"{proc.stderr}")
    return proc.returncode == 0


def _run(root: Path, mutant) -> bool:
    """Whether the fingerprint passes on a copy of ``root`` with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="solver_mutant_") as tmp:
        dest = Path(tmp)
        _copy(root, dest)
        if mutant is not None:
            _mutate(dest, *mutant)
        return _fingerprint_passes(dest)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        raise SystemExit("usage: solver_mutants.py [ROOT]")
    root = Path(argv[0] if argv else Path(__file__).parents[1]).resolve()
    if not _run(root, None):
        print("error: the fingerprint fails without any mutant", file=sys.stderr)
        return 1
    survivors = []
    for name, mutant in MUTANTS.items():
        killed = not _run(root, mutant)
        print(f"{'killed' if killed else 'SURVIVED'}: {name}")
        if not killed:
            survivors.append(name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
