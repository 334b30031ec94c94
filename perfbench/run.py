#!/usr/bin/env python3
"""defreg benchmark: closed-loop registration workloads with correctness checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload recovery112 --seed 1 --seconds 36 --trace 0

One client registers one pair (or, on ``batch_cli``, one manifest) at a time.
Each run first registers every pair of its workload once; these pairs give the
quality and count metrics, which depend only on the seed. It then registers
the pairs again in turn until ``--seconds`` of wall time are used. The last
stdout line is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with ``--trace 0``, per-layer
metrics from a traced first pass with ``--trace 1``. The line before it
records the environment. ``perfbench/README.md`` describes the workloads,
the metrics and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("recovery112", "weak64", "batch_cli")
DEFAULT_SIZE = {"recovery112": 112, "weak64": 64, "batch_cli": 112}
DEFAULT_PAIRS = {"recovery112": 4, "weak64": 8, "batch_cli": 4}
LEVELS = 3
SETUP_REPEATS = 3
BATCH = "batch"  # pair id of spans shared by all pairs of a run (set-up, cli batch)

END_TO_END_UNITS = {
    "setup_s": "s", "pairs_per_s": "1/s", "pair_s_p50": "s", "peak_rss_mb": "MB",
    "pairs_ok_frac": "ratio", "epe_px": "px", "dice_mean": "ratio",
    "jac_det_min": "ratio", "final_loss": "loss",
}


def per_layer_units():
    units = {
        "image.sample_calls": "count", "image.sample_s": "s",
        "bspline.densify_calls": "count", "bspline.densify_s": "s", "bspline.splat_s": "s",
        "bspline.prolongate_s": "s", "bspline.quality_s": "s", "image.pyramid_s": "s",
        "lossterms.total_loss_s": "s", "lossterms.total_loss_self_s": "s",
        "lossterms.ngf_s": "s", "lossterms.curvature_s": "s",
        "solver.loss_evals": "count", "solver.grad_evals": "count",
        "solver.accept_ratio": "ratio", "solver.levels_at_cap": "count",
        "cli.parallel_efficiency": "ratio", "io.read_s": "s", "io.write_s": "s",
        "io.bytes_written": "bytes", "metrics.evaluate_s": "s", "phantom.make_pair_s": "s",
        "metrics.folding_pct": "pct", "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
    }
    for lvl in range(LEVELS):
        units[f"image.sample_us_per_call.level{lvl}"] = "us"
        units[f"bspline.densify_us_per_call.level{lvl}"] = "us"
        units[f"solver.level{lvl}_s"] = "s"
    for layer in ("cli", "io", "solver", "lossterms", "bspline", "image", "metrics", "phantom"):
        units[f"{layer}.self_s"] = "s"
    return units


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # reduced sizes for the smoke test; the defaults are the benchmark
    p.add_argument("--size", type=int, default=None, help="image width and height")
    p.add_argument("--pairs", type=int, default=None, help="distinct pairs per run")
    p.add_argument("--max-iters", type=int, default=100, help="iterations per level")
    args = p.parse_args(argv)
    args.size = args.size or DEFAULT_SIZE[args.workload]
    args.pairs = args.pairs or DEFAULT_PAIRS[args.workload]
    return args


IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, defreg.cli; "
                "print(time.perf_counter() - t)")


def import_defreg():
    """Import defreg from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "defreg" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'defreg'} not found; run from a defreg checkout")
    sys.path.insert(0, str(SRC))
    import defreg
    import defreg.cli  # noqa: F401
    if Path(defreg.__file__).resolve().parent != SRC / "defreg":
        sys.exit(f"perfbench: imported defreg from {defreg.__file__}, not from {SRC}")


def import_seconds():
    """Time a fresh interpreter importing numpy and defreg, as a user's process does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Case:
    pid: str
    fixed: object  # Image2D
    moving: object
    sup_fixed: object  # LabelMap given to the solver, or None (unsupervised)
    sup_moving: object
    true_fixed: object  # LabelMap used for scoring
    true_moving: object
    true_u: object  # (H, W, 2) ground-truth displacement


def make_cases(workload, seed, size, n_pairs):
    """Seeded inputs.

    The ground-truth deformations are those of the acceptance suites
    (deformation seeds 0..n-1); ``seed`` draws the phantom texture and
    observation noise, so every seed gives new images of equally hard pairs.
    """
    import numpy as np
    from defreg import phantom
    from defreg.bspline import densify, random_smooth_deformation, warp_labels
    from defreg.image import Image2D

    cases = []
    for k in range(n_pairs):
        noise_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        if workload == "weak64":
            # criterion-5 recipe: 8 px field at spacing 8, observation noise,
            # solver labels jittered by 2.5 px, scored against the true labels
            s = size / 64.0
            spec = phantom.PhantomSpec(width=size, height=size, center=(36.0 * s, 32.0 * s),
                                       lv_radius=8.0 * s, myo_outer_radius=13.0 * s,
                                       rv_thickness=5.0 * s, seed=noise_seed)
            pair = phantom.make_pair(spec, deform_magnitude_px=8.0 * s, seed=k,
                                     control_spacing_px=8.0)
            rng = np.random.default_rng([seed, k, 1])
            fixed, moving = (Image2D(np.clip(im.data + rng.uniform(-0.02, 0.02, im.data.shape),
                                             0.0, 1.0))
                             for im in (pair.fixed_image, pair.moving_image))
            jf, jm = (densify(random_smooth_deformation(size, size, 2.5 * s, seed=(k, j),
                                                        spacing_px=8.0), size, size)
                      for j in (11, 13))
            sup_fixed = warp_labels(pair.fixed_labels, jf)
            sup_moving = warp_labels(pair.moving_labels, jm)
        else:
            # criterion-4 recipe: 4 px field at spacing 16, default geometry
            s = size / 112.0
            spec = phantom.PhantomSpec(width=size, height=size, center=(62.0 * s, 56.0 * s),
                                       lv_radius=13.0 * s, myo_outer_radius=22.0 * s,
                                       rv_thickness=8.0 * s, seed=noise_seed)
            pair = phantom.make_pair(spec, deform_magnitude_px=4.0 * s, seed=k)
            fixed, moving = pair.fixed_image, pair.moving_image
            sup_fixed, sup_moving = pair.fixed_labels, pair.moving_labels
            if workload == "batch_cli":
                sup_fixed = sup_moving = None
        cases.append(Case(f"p{k:02d}", fixed, moving, sup_fixed, sup_moving,
                          pair.fixed_labels, pair.moving_labels, pair.true_field.u))
    return cases


def write_manifest(cases, directory):
    """Write the pairs as raw images plus a manifest without label keys."""
    from defreg import io as regio

    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for c in cases:
        regio.write_raw_image(directory / f"{c.pid}_fixed.raw", c.fixed)
        regio.write_raw_image(directory / f"{c.pid}_moving.raw", c.moving)
        entries.append({"id": c.pid, "fixed_image": f"{c.pid}_fixed.raw",
                        "moving_image": f"{c.pid}_moving.raw"})
    regio.write_manifest(directory / "manifest.json", entries)
    return directory / "manifest.json"


# ---------------------------------------------------------------------------
# registering and checking


@dataclass
class Outcome:
    pid: str
    seconds: float
    result: object = None  # RegistrationResult
    u: object = None  # the field as the user receives it
    error: str = ""


def run_in_process(case, cfg):
    import numpy as np
    from defreg import solver

    t0 = time.perf_counter()
    try:
        res = solver.register(case.fixed, case.moving, case.sup_fixed, case.sup_moving, cfg)
    except Exception:
        return Outcome(case.pid, time.perf_counter() - t0, error=traceback.format_exc())
    out = Outcome(case.pid, time.perf_counter() - t0, res, res.field.u)
    final = res.level_traces[-1].losses[-1]
    if not np.isfinite(final):
        out.error = f"non-finite final loss {final}"
    return out


def check_cli_output(directory, size, res):
    """Read field.raw and report.json back; return (field, problem)."""
    import numpy as np

    try:
        side = json.loads((directory / "field.json").read_text())
        payload = (directory / "field.raw").read_bytes()
        report = json.loads((directory / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return None, f"missing or unreadable output: {exc}"
    if (side.get("kind"), side.get("width"), side.get("height")) != ("field", size, size):
        return None, f"field sidecar mismatch: {side}"
    if len(payload) != size * size * 2 * 4:
        return None, f"field.raw holds {len(payload)} bytes"
    u = np.frombuffer(payload, dtype="<f4").reshape(size, size, 2).astype(np.float64)
    if not np.all(np.isfinite(u)):
        return None, "non-finite field"
    if res is None:
        return None, "register returned no result"
    if not np.array_equal(u, res.field.u.astype("<f4")):
        return None, "field.raw differs from the registration result"
    final = report.get("final_loss")
    if not (isinstance(final, float) and np.isfinite(final)
            and final == res.level_traces[-1].losses[-1]
            and len(report.get("levels", [])) == len(res.level_traces)):
        return None, "report.json does not match the registration result"
    return u, ""


def capture_register_one(captured):
    """Wrap ``cli._register_one`` to keep each pair's duration and result."""
    from defreg import cli

    fn = cli._register_one

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        res = fn(*args, **kwargs)
        captured[Path(args[5]).name] = (time.perf_counter() - t0, res)
        return res

    cli._register_one = wrapper


def run_cli_batch(cases, manifest, out_dir, jobs, max_iters, captured):
    """One ``defreg register --manifest`` call; returns its wall time and outcomes."""
    from defreg import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    captured.clear()
    argv = ["register", "--manifest", str(manifest), "--out", str(out_dir),
            "--jobs", str(jobs), "--max-iters", str(max_iters)]
    t0 = time.perf_counter()
    try:
        code, error = cli.cli_main(argv), ""
    except Exception:
        code, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    if code != 0:
        error = error or f"cli exit code {code}"
    outcomes = []
    for c in cases:
        seconds, res = captured.get(c.pid, (0.0, None))
        u, problem = check_cli_output(out_dir / c.pid, c.fixed.width, res)
        outcomes.append(Outcome(c.pid, seconds, res, u, error or problem))
    return wall, outcomes


def score(case, outcome):
    """Quality of one successful registration against the ground truth."""
    import numpy as np
    from defreg import metrics
    from defreg.bspline import DisplacementField, deformation_quality

    fld = DisplacementField(outcome.u)
    fg = case.true_fixed.labels > 0
    err = outcome.u - case.true_u
    after = metrics.evaluate_pair(case.true_fixed, case.true_moving, fld)
    before = np.mean([metrics.dice(case.true_fixed, case.true_moving, k)
                      for k in range(1, case.true_fixed.num_classes)])
    return {
        "epe_px": float(np.hypot(err[..., 0], err[..., 1])[fg].mean()),
        "dice_mean": after.mean_dice,
        "dice_before": float(before),
        "folding_pct": after.folding_percent,
        "jac_det_min": float(deformation_quality(fld).jacobian_det.min()),
        "final_loss": outcome.result.level_traces[-1].losses[-1],
    }


# ---------------------------------------------------------------------------
# tracing


def install_spans(tracer):
    """Wrap the call sites through which defreg's layers reach each other."""
    from defreg import cli, lossterms, metrics, phantom, solver
    from defreg import io as regio

    width_of_image = lambda a, k: a[0].width  # noqa: E731
    width_arg1 = lambda a, k: a[1]  # noqa: E731
    tracer.patch(phantom, "make_pair", "phantom.make_pair")
    tracer.patch(solver, "register", "solver.register")
    tracer.patch(cli, "register", "solver.register")
    tracer.patch(solver, "_solve_level", "solver.level", lambda a, k: a[6])
    tracer.patch(solver, "_build_pyramid", "image.pyramid")
    tracer.patch(solver, "_build_onehot_pyramid", "image.pyramid")
    tracer.patch(solver, "prolongate", "bspline.prolongate")
    tracer.patch(solver, "deformation_quality", "bspline.quality")
    tracer.patch(solver, "densify", "bspline.densify", width_arg1)
    tracer.patch(solver, "total_loss", "lossterms.total_loss", width_of_image)
    tracer.patch(lossterms, "densify", "bspline.densify", width_arg1)
    tracer.patch(lossterms, "bilinear_sample_with_grad", "image.sample",
                 lambda a, k: a[0].shape[1])
    tracer.patch(lossterms, "_ngf_core", "lossterms.ngf")
    tracer.patch(lossterms, "curvature", "lossterms.curvature")
    tracer.patch(lossterms, "splat_to_grid", "bspline.splat")
    tracer.patch(metrics, "evaluate_pair", "metrics.evaluate")
    for name in ("read_raw_image", "read_label_pgm", "read_manifest"):
        tracer.patch(regio, name, "io.read")
    for name in ("write_raw_image", "write_field", "write_grid", "write_manifest"):
        tracer.patch(regio, name, "io.write")
    tracer.patch(cli, "_register_one", "cli.register_one",
                 pair_of=lambda a, k: Path(a[5]).name)
    tracer.patch(cli, "cli_main", "cli.main", root=True)


def layer_metrics(tracer, first, level_widths, bytes_written):
    """Per-pair layer metrics of the traced first pass."""
    agg = tracer.summary(set(first) | {BATCH})
    n = len(first)

    def total(name, key="busy"):
        return agg[name][key] if name in agg else 0

    def us_per_call(name, width):
        durs = agg[name]["by_width"].get(width, []) if name in agg else []
        return statistics.median(durs) * 1e6 if durs else 0.0

    traces = [t for o in first.values() if o.result is not None for t in o.result.level_traces]
    loss_evals = total("lossterms.total_loss", "calls")
    grad_evals = sum(len(t.losses) for t in traces)  # one per accepted step, plus the start
    accepted = sum(len(t.losses) - 1 for t in traces)
    trials = loss_evals - grad_evals
    m = {
        "image.sample_calls": total("image.sample", "calls") / n,
        "image.sample_s": total("image.sample") / n,
        "bspline.densify_calls": total("bspline.densify", "calls") / n,
        "bspline.densify_s": total("bspline.densify") / n,
        "bspline.splat_s": total("bspline.splat") / n,
        "bspline.prolongate_s": total("bspline.prolongate") / n,
        "bspline.quality_s": total("bspline.quality") / n,
        "image.pyramid_s": total("image.pyramid") / n,
        "lossterms.total_loss_s": total("lossterms.total_loss") / n,
        "lossterms.total_loss_self_s": total("lossterms.total_loss", "self") / n,
        "lossterms.ngf_s": total("lossterms.ngf") / n,
        "lossterms.curvature_s": total("lossterms.curvature") / n,
        "solver.loss_evals": loss_evals / n,
        "solver.grad_evals": grad_evals / n,
        "solver.accept_ratio": accepted / trials if trials else 0.0,
        "solver.levels_at_cap": sum(t.termination == "max_iters" for t in traces) / n,
        "io.read_s": total("io.read") / n,
        "io.write_s": total("io.write") / n,
        "io.bytes_written": bytes_written / n,
        "metrics.evaluate_s": total("metrics.evaluate") / n,
        "phantom.make_pair_s": total("phantom.make_pair") / n,
    }
    levels = agg["solver.level"]["by_width"] if "solver.level" in agg else {}
    for lvl, width in enumerate(level_widths):
        m[f"image.sample_us_per_call.level{lvl}"] = us_per_call("image.sample", width)
        m[f"bspline.densify_us_per_call.level{lvl}"] = us_per_call("bspline.densify", width)
        m[f"solver.level{lvl}_s"] = sum(levels.get(lvl, [])) / n
    for layer in ("cli", "io", "solver", "lossterms", "bspline", "image", "metrics", "phantom"):
        m[f"{layer}.self_s"] = sum(a["self"] for name, a in agg.items()
                                   if name.split(".")[0] == layer) / n
    return m


def trace_overhead(traced, untraced):
    """Median traced-minus-untraced seconds per pair, and the total as a share of untraced."""
    diffs = [t.seconds - u.seconds for t, u in zip(traced, untraced)]
    return statistics.median(diffs), sum(diffs) / sum(u.seconds for u in untraced)


# ---------------------------------------------------------------------------
# the run


def environment(jobs):
    """What a result depends on besides the code: host, versions, thread settings."""
    import numpy as np

    commit = "unknown"  # a checkout without .git has no commit to report
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else commit
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": jobs,
        "commit": commit,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "defreg").glob("*.py"))),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
    }


def main(argv=None):
    args = parse_args(argv)
    import_defreg()
    import numpy as np
    from defreg.solver import RegistrationConfig

    sys.path.insert(0, str(HERE))
    from spans import Tracer

    jobs = len(os.sched_getaffinity(0))
    batch = args.workload == "batch_cli"
    captured = {}
    capture_register_one(captured)
    tracer = Tracer() if args.trace else None
    if tracer:
        install_spans(tracer)
    work = OUT / f"work-{os.getpid()}"
    try:
        # set-up, repeated: import in a fresh interpreter, generate the inputs
        # and, for the cli, write the manifest
        setup_times = []
        manifest = None
        for rep in range(SETUP_REPEATS):
            if tracer:
                tracer.set_pair(BATCH if rep == SETUP_REPEATS - 1 else None)
            import_s = import_seconds()
            t0 = time.perf_counter()
            cases = make_cases(args.workload, args.seed, args.size, args.pairs)
            if batch:
                manifest = write_manifest(cases, work / f"inputs{rep}")
            setup_times.append(import_s + time.perf_counter() - t0)
        setup_s = statistics.median(setup_times)

        # closed loop. The first pass registers every pair once; it is checked
        # and scored and, in a trace run, traced, each traced unit followed by
        # the same unit untraced to measure the tracing overhead. Then the
        # pairs are registered again, untraced, until the time is used.
        cfg = RegistrationConfig(max_iters_per_level=args.max_iters)
        out_dir = work / "out"
        outcomes, unit_times = [], []
        traced, untraced = [], []  # paired outcomes of a trace run's first pass
        bytes_written = 0
        parallel_efficiency = 0.0  # serial over parallel batch time, per job

        def run_unit(k):
            if batch:
                wall, done = run_cli_batch(cases, manifest, out_dir, jobs, args.max_iters,
                                           captured)
            else:
                done = [run_in_process(cases[k % len(cases)], cfg)]
                wall = done[0].seconds
            unit_times.append(wall)
            outcomes.extend(done)
            return done

        start = time.perf_counter()
        for k in range(1 if batch else len(cases)):
            if tracer:
                tracer.set_pair(BATCH if batch else cases[k].pid)
            done = run_unit(k)
            if batch:
                bytes_written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
            if tracer:
                traced.extend(done)
                tracer.pause()
                untraced.extend(run_unit(k))
                if batch:  # the same batch with one job settles whether --jobs pays
                    serial_wall, serial = run_cli_batch(cases, manifest, out_dir, 1,
                                                        args.max_iters, captured)
                    outcomes.extend(serial)
                    parallel_efficiency = serial_wall / (unit_times[-1] * jobs)
                tracer.resume()
        first = {o.pid: o for o in (traced or outcomes)}
        scores = []
        for c in cases:
            if not first[c.pid].error:
                if tracer:
                    tracer.set_pair(c.pid)
                scores.append(score(c, first[c.pid]))
        if tracer:
            tracer.pause()
        while time.perf_counter() - start + statistics.median(unit_times) <= args.seconds:
            run_unit(len(unit_times))

        failed = [o for o in outcomes if o.error]
        for o in failed:
            print(f"pair {o.pid} failed: {o.error}", file=sys.stderr)
        correct = not failed and all(s["dice_mean"] > s["dice_before"] for s in scores)

        def mean(key):
            return float(np.mean([s[key] for s in scores])) if scores else float("nan")

        if tracer:
            metrics = layer_metrics(tracer, first, level_widths(args.size), bytes_written)
            metrics["cli.parallel_efficiency"] = parallel_efficiency
            metrics["metrics.folding_pct"] = mean("folding_pct")
            metrics["trace.overhead_s"], metrics["trace.overhead_frac"] = \
                trace_overhead(traced, untraced)
            units = per_layer_units()
        else:
            metrics = {
                "setup_s": setup_s,
                "pairs_per_s": len(outcomes) / sum(unit_times),
                "pair_s_p50": statistics.median(o.seconds for o in outcomes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "pairs_ok_frac": 1.0 - len(failed) / len(outcomes),
                "epe_px": mean("epe_px"),
                "dice_mean": mean("dice_mean"),
                "jac_det_min": mean("jac_det_min"),
                "final_loss": mean("final_loss"),
            }
            units = END_TO_END_UNITS

        env = environment(jobs)
        OUT.mkdir(exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "env": env, "setup_repeats_s": setup_times,
                  "unit_s": unit_times, "scores": scores, "metrics": metrics}
        (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
        if tracer:
            tracer.write(OUT / f"spans-{tag}.jsonl")
        print("env " + json.dumps(env, sort_keys=True))
        print(json.dumps({
            "correct": bool(correct),
            "attempted": len(outcomes),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def level_widths(size):
    """Image width of each pyramid level, finest (level 0) first."""
    widths = [size]
    for _ in range(LEVELS - 1):
        widths.append((widths[-1] + 1) // 2)
    return widths


if __name__ == "__main__":
    sys.exit(main())
