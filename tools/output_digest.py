#!/usr/bin/env python3
"""Print one ``name sha256`` line per deterministic output of a defreg checkout.

    python3 tools/output_digest.py ROOT > digests.txt

``ROOT`` is the root of a checkout; its ``src/defreg`` is imported, the
criterion-5 recipe (``ablation_pair``) is imported from its
``tests/test_acceptance.py`` and the benchmark inputs (``make_cases``) from its
``perfbench/run.py``, so no recipe is copied here. The 102 items are:

* criterion 4: for ten seeded 112 px pairs, the ground-truth label map that
  ``make_pair`` warps, the registered field and ``report_dict()`` (30);
* criterion 5: the ten supervision label pairs (10) and, for every pair and
  weight ablation, the registered field with its Dice and folding (40);
* criterion 7: the six files that ``register --manifest`` writes (6);
* benchmark: the first pass of every ``perfbench`` workload at seed 40, each
  pair registered in-process with the default config, its field and the loss
  traces of every level (16).

Two checkouts produce the same outputs when the two listings are equal:

    diff <(python3 tools/output_digest.py A) <(python3 tools/output_digest.py B)

It runs in about 35 s on 2 cores.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def _labels(lab) -> str:
    return _sha(lab.labels.shape, lab.num_classes, lab.labels.tobytes())


def _field(fld) -> str:
    return _sha(fld.u.shape, fld.u.tobytes())


def digests(root: Path):
    """Yield ``(name, sha256)`` for every item, in a fixed order."""
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from defreg import (LossWeights, PhantomSpec, RegistrationConfig, evaluate_pair,
                        make_pair, register)
    from defreg.cli import cli_main
    from test_acceptance import ablation_pair

    cfg = RegistrationConfig()
    for seed in range(10):
        pair = make_pair(PhantomSpec(), deform_magnitude_px=4.0, seed=seed)
        res = register(pair.fixed_image, pair.moving_image,
                       pair.fixed_labels, pair.moving_labels, cfg)
        yield f"c4.{seed}.gt_labels", _labels(pair.fixed_labels)
        yield f"c4.{seed}.field", _field(res.field)
        yield f"c4.{seed}.report", _sha(json.dumps(res.report_dict(), sort_keys=True))

    variants = {"reference": LossWeights(), "beta0": LossWeights(beta=0.0),
                "delta0": LossWeights(delta=0.0), "alpha0": LossWeights(alpha=0.0)}
    for seed in range(10):
        pair, sup_fixed, sup_moving = ablation_pair(seed)
        yield f"c5.{seed}.supervision", _sha(_labels(sup_fixed), _labels(sup_moving))
        for name, weights in variants.items():
            res = register(pair.fixed_image, pair.moving_image, sup_fixed, sup_moving,
                           RegistrationConfig(weights=weights))
            rep = evaluate_pair(pair.fixed_labels, pair.moving_labels, res.field)
            yield (f"c5.{seed}.{name}",
                   _sha(_field(res.field), rep.mean_dice, res.quality.folding_fraction))

    # synth prints the manifest path, which names the temporary directory
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        data, out = Path(tmp) / "data", Path(tmp) / "out"
        if cli_main(["synth", "--out", str(data), "--pairs", "2", "--width", "48",
                     "--height", "48", "--magnitude", "2"]) != 0:
            raise SystemExit("synth failed")
        if cli_main(["register", "--manifest", str(data / "manifest.json"),
                     "--out", str(out), "--max-iters", "40"]) != 0:
            raise SystemExit("register failed")
        c7 = [(f"c7.{pid}.{name}", _sha((out / pid / name).read_bytes()))
              for pid in ("pair_000", "pair_001")
              for name in ("field.raw", "grid.raw", "report.json")]
    yield from c7

    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)  # its dataclasses look their module up by name
    for workload in bench.WORKLOADS:
        for case in bench.make_cases(workload, 40, bench.DEFAULT_SIZE[workload],
                                     bench.DEFAULT_PAIRS[workload]):
            res = register(case.fixed, case.moving, case.sup_fixed, case.sup_moving, cfg)
            yield (f"bench.{workload}.{case.pid}",
                   _sha(_field(res.field), [t.losses for t in res.level_traces]))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit(f"usage: {Path(__file__).name} ROOT")
    for name, digest in digests(Path(argv[0]).resolve()):
        print(name, digest, flush=True)


if __name__ == "__main__":
    main()
