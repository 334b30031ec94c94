"""Command-line interface: synth, register, eval, ablate, diff.

Flags may also come from a JSON config file (``--config``); explicit flags win
over the file, the file wins over built-in defaults; ``REGVAR_SEED`` supplies
the seed of ``synth`` if nothing else does. Resolved parameters are echoed into
every JSON report. Exit codes: 0 success, 1 domain/configuration/usage error,
2 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import io as regio
from .errors import HUGE, ConfigurationError, DomainError, NumericalError, check_count, check_real
from .image import Image2D, normalize_intensity
from .lossterms import LossWeights
from .metrics import difference_image, evaluate_pair
from .phantom import PhantomSpec, make_pair
from .solver import RegistrationConfig, ablate, register

_CFG = RegistrationConfig()
DEFAULTS = {
    **asdict(_CFG.weights),
    "levels": _CFG.num_levels,
    "spacing": _CFG.finest_control_spacing_px,
    "max_iters": _CFG.max_iters_per_level,
    "seed": PhantomSpec().seed,
}
# an unreadable or missing input file (OSError) exits 1 like any other bad input
_FAILURES = (DomainError, ConfigurationError, NumericalError, OSError)


def _config_file_defaults(path) -> dict:
    """The settings in a JSON config file as the types of their flags: numbers,
    not bools or strings, and integral where the flag takes an integer."""
    values = regio.read_json(path, dict)
    settings = {}
    for key, default in DEFAULTS.items():
        if key not in values:
            continue
        # finite, so converting it to the flag's type cannot overflow
        value = check_real(values[key], f"{path}: {key}", -HUGE, HUGE, ConfigurationError)
        if isinstance(default, int) and isinstance(value, float) and not value.is_integer():
            raise ConfigurationError(f"{path}: {key} must be an integer, got {value!r}")
        settings[key] = type(default)(value)
    return settings


def _build_config(args):
    return RegistrationConfig(
        weights=LossWeights(delta=args.delta, alpha=args.alpha, beta=args.beta,
                            epsilon=args.epsilon),
        num_levels=args.levels,
        finest_control_spacing_px=args.spacing,
        max_iters_per_level=args.max_iters,
    )


def _read_image(path) -> Image2D:
    path = str(path)
    if path.endswith(".pgm"):
        return regio.read_pgm(path)
    return regio.read_raw_image(path)


def _read_label_pair(fixed_path, moving_path):
    """Both label maps of a pair, or ``(None, None)`` when neither is given.

    The maps share the larger ``num_classes``, so a partial map that lacks a
    class still pairs with a complete one.
    """
    if not (fixed_path or moving_path):
        return None, None
    if not (fixed_path and moving_path):
        raise DomainError("supply both label maps or neither")
    fixed, moving = regio.read_label_pgm(fixed_path), regio.read_label_pgm(moving_path)
    n = max(fixed.num_classes, moving.num_classes)
    return replace(fixed, num_classes=n), replace(moving, num_classes=n)


def _entry_paths(e, fixed_key, moving_key):
    """The fixed and moving paths of a manifest entry that must have both."""
    if not (e.get(fixed_key) and e.get(moving_key)):
        raise ConfigurationError(f"manifest entry {e['id']!r} lacks {fixed_key}/{moving_key}")
    return e[fixed_key], e[moving_key]


def _fail(exc, prefix="") -> int:
    """Print the one-line message of a failed run and return its exit code. Unprintable
    characters (a newline in a path or an id) are escaped, so the message stays one line."""
    if isinstance(exc, NumericalError):
        line, code = (f"numerical error: {prefix}{exc} (level={exc.level}, "
                      f"iteration={exc.iteration}, weights={exc.weights})"), 2
    else:
        line, code = f"error: {prefix}{exc}", 1
    print("".join(c if c.isprintable() else repr(c)[1:-1] for c in line), file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    check_count(args.pairs, "--pairs", 1, ConfigurationError)
    # scale the default 112-px geometry to the requested size
    s = min(args.width, args.height) / 112.0
    spec = PhantomSpec(width=args.width, height=args.height, seed=args.seed,
                       center=(62.0 * s, 56.0 * s), lv_radius=13.0 * s,
                       myo_outer_radius=22.0 * s, rv_thickness=8.0 * s,
                       noise_amplitude=args.noise)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(args.pairs):
        pair = make_pair(spec, deform_magnitude_px=args.magnitude, seed=args.seed + i)
        pid = f"pair_{i:03d}"
        regio.write_raw_image(out / f"{pid}_fixed.raw", pair.fixed_image)
        regio.write_raw_image(out / f"{pid}_moving.raw", pair.moving_image)
        regio.write_label_pgm(out / f"{pid}_fixed_labels.pgm", pair.fixed_labels)
        regio.write_label_pgm(out / f"{pid}_moving_labels.pgm", pair.moving_labels)
        regio.write_field(out / f"{pid}_gt_field.raw", pair.true_field)
        entries.append({
            "id": pid,
            "fixed_image": f"{pid}_fixed.raw",
            "moving_image": f"{pid}_moving.raw",
            "fixed_labels": f"{pid}_fixed_labels.pgm",
            "moving_labels": f"{pid}_moving_labels.pgm",
            "gt_field": f"{pid}_gt_field.raw",
        })
    regio.write_manifest(out / "manifest.json", entries)
    print(str(out / "manifest.json"))
    return 0


def _register_one(fixed_p, moving_p, flab_p, mlab_p, cfg, out_dir, normalize):
    fixed = _read_image(fixed_p)
    moving = _read_image(moving_p)
    if normalize:
        fixed = normalize_intensity(fixed)
        moving = normalize_intensity(moving)
    flab, mlab = _read_label_pair(flab_p, mlab_p)
    result = register(fixed, moving, flab, mlab, cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    regio.write_field(out_dir / "field.raw", result.field)
    regio.write_grid(out_dir / "grid.raw", result.grid)
    report = result.report_dict()
    (out_dir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"{out_dir}: final loss {report['final_loss']:.6g}, "
          f"folding {report['folding_fraction'] * 100:.3f}% "
          f"({result.duration_s:.2f}s)", file=sys.stderr)
    return result


def cmd_register(args):
    """One pair, or every manifest entry in turn; a failed pair does not stop the rest."""
    cfg = _build_config(args)
    out = Path(args.out)
    if not args.manifest:
        if not (args.fixed and args.moving):
            raise ConfigurationError("register needs --fixed/--moving or --manifest")
        _register_one(args.fixed, args.moving, args.fixed_labels, args.moving_labels,
                      cfg, out, args.normalize)
        return 0
    code = 0
    for e in regio.read_manifest(args.manifest):
        try:
            _register_one(*_entry_paths(e, "fixed_image", "moving_image"),
                          e.get("fixed_labels"), e.get("moving_labels"),
                          cfg, out / e["id"], args.normalize)
        except _FAILURES as exc:
            code = max(code, _fail(exc, f"{e['id']}: "))
    return code


def cmd_eval(args):
    if args.manifest:
        if not args.fields_dir:
            raise ConfigurationError("eval --manifest needs --fields-dir")
        fields_dir = Path(args.fields_dir)

        def run(e):
            flab, mlab = _read_label_pair(*_entry_paths(e, "fixed_labels", "moving_labels"))
            fld = regio.read_field(fields_dir / e["id"] / "field.raw")
            return e["id"], evaluate_pair(flab, mlab, fld)

        results = [run(e) for e in regio.read_manifest(args.manifest)]
        with open(args.out, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["pair_id", "dice_lvc", "dice_rvc", "dice_myo",
                         "dice_mean", "folding_pct"])
            for pid, rep in results:
                wr.writerow([pid,
                             f"{rep.per_label_dice.get(1, float('nan')):.6f}",
                             f"{rep.per_label_dice.get(3, float('nan')):.6f}",
                             f"{rep.per_label_dice.get(2, float('nan')):.6f}",
                             f"{rep.mean_dice:.6f}",
                             f"{rep.folding_percent:.6f}"])
        return 0
    if not (args.field and args.fixed_labels and args.moving_labels):
        raise ConfigurationError("eval needs --field and both label maps, or --manifest")
    flab, mlab = _read_label_pair(args.fixed_labels, args.moving_labels)
    fld = regio.read_field(args.field)
    rep = evaluate_pair(flab, mlab, fld)
    payload = rep.as_dict()
    payload["defaults"] = DEFAULTS
    Path(args.out).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_ablate(args):
    cfg = _build_config(args)
    try:
        factors = [float(f) for f in args.factors.split(",")]
    except ValueError:
        raise ConfigurationError(f"--factors must be comma-separated numbers, "
                                 f"got {args.factors!r}") from None
    entries = regio.read_manifest(args.manifest)
    dataset = [(*map(_read_image, _entry_paths(e, "fixed_image", "moving_image")),
                *_read_label_pair(*_entry_paths(e, "fixed_labels", "moving_labels")))
               for e in entries]
    rows = ablate(dataset, cfg, args.param, factors)
    with open(args.out, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["factor", "dice_mean", "folding_pct"])
        for factor, dice_mean, folding_pct in rows:
            wr.writerow([f"{factor:g}", f"{dice_mean:.6f}", f"{folding_pct:.6f}"])
    return 0


def cmd_diff(args):
    a = _read_image(args.a)
    b = _read_image(args.b)
    regio.write_pgm(args.out, difference_image(a, b))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p):
    p.add_argument("--config", help="JSON file with default flag values")


def _add_ignored_jobs(p):
    """``--jobs N`` is accepted and ignored: pairs run one after another, since
    threads measured slower than the serial loop (numpy sampling holds the GIL)."""
    p.add_argument("--jobs", type=int, help=argparse.SUPPRESS)


def _add_solver_flags(p):
    """Loss weights and solver settings; unset flags fall back to config file or DEFAULTS."""
    for key in ("delta", "alpha", "beta", "epsilon", "levels", "spacing", "max_iters"):
        default = DEFAULTS[key]
        p.add_argument("--" + key.replace("_", "-"), type=type(default), default=default)


class _Parser(argparse.ArgumentParser):
    """A usage error prints one ``error:`` line, like every other bad input, and exits 1."""

    def error(self, message):
        self.exit(1, f"error: {self.prog}: {message}\n")


def build_parser():
    """The parser and its subparsers action, whose ``choices`` map command to subparser."""
    parser = _Parser(prog="defreg", description="2D deformable image registration engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit labeled phantom pairs and a manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--pairs", type=int, default=1)
    p.add_argument("--width", type=int, default=112)
    p.add_argument("--height", type=int, default=112)
    p.add_argument("--magnitude", type=float, default=4.0)
    p.add_argument("--noise", type=float, default=0.02)
    # a string default goes through type=int, so a bad REGVAR_SEED is a usage error
    p.add_argument("--seed", type=int,
                   default=os.environ.get("REGVAR_SEED", DEFAULTS["seed"]),
                   help="random seed (else config file, REGVAR_SEED, 0)")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("register", help="register one pair or every manifest entry")
    p.add_argument("--fixed")
    p.add_argument("--moving")
    p.add_argument("--fixed-labels")
    p.add_argument("--moving-labels")
    p.add_argument("--manifest")
    p.add_argument("--out", required=True)
    _add_ignored_jobs(p)
    p.add_argument("--normalize", action="store_true",
                   help="min-max normalize intensities before registering")
    _add_solver_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("eval", help="score a solved field against label maps")
    p.add_argument("--field")
    p.add_argument("--fixed-labels")
    p.add_argument("--moving-labels")
    p.add_argument("--manifest")
    p.add_argument("--fields-dir")
    _add_ignored_jobs(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="vary one loss weight over a factor list")
    p.add_argument("--manifest", required=True)
    p.add_argument("--param", required=True, choices=["delta", "alpha", "beta"])
    p.add_argument("--factors", default="100,10,1,0.1,0.01,0")
    p.add_argument("--out", required=True)
    _add_solver_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("diff", help="write a grey-centered difference image as PGM")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diff)

    return parser, sub


def cli_main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's settings become defaults, so a flag given on the command line wins
            commands.choices[args.command].set_defaults(**_config_file_defaults(args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    except _FAILURES as exc:
        return _fail(exc)


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
