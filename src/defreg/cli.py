"""Command-line front end.

Commands: register, eval, synth, slices, version.  Machine-readable metric
lines go to stdout, diagnostics to stderr.  Every file-writing command
records a manifest JSON (resolved config, input digests, output paths) so
the run can be reproduced exactly.

Exit codes: 0 success, 1 user or validation error, 2 environment/I-O error.

numpy is imported lazily inside command handlers so that --threads (or the
DEFREG_THREADS environment variable) can pin BLAS/OpenMP thread counts
before the first numpy import; --threads 1 is the bit-reproducibility
baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

__all__ = ["main", "build_parser"]

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class _Parser(argparse.ArgumentParser):
    # user errors exit 1 (2 is reserved for I/O failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path, command, config, inputs, outputs, wall_seconds):
    from . import __version__

    manifest = {
        "command": command,
        "tool_version": __version__,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_seconds": wall_seconds,
    }
    Path(path).write_text(json.dumps(manifest, indent=2) + "\n")


def _configure_threads(threads: int | None) -> None:
    if threads is None:
        env = os.environ.get("DEFREG_THREADS")
        if env is None:
            return
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(f"DEFREG_THREADS must be an integer, got {env!r}") from None
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(threads)


# ---------------------------------------------------------------------------
# settings: one row per value a command takes from a flag or its --config file.
# Rows hold no defaults: a setting given neither way is not passed on, so the
# config dataclass supplies it (importing those here would load numpy early).


def _scalar(what: str, *types) -> Callable:
    def check(value):
        if type(value) not in types:  # exact: neither 1.7 nor true is an integer
            raise ValueError(f"expected {what}, got {json.dumps(value)}")
        return types[0](value)

    return check


def _list_of(item: Callable) -> Callable:
    def check(value):
        if type(value) is not list:
            raise ValueError(f"expected a list, got {json.dumps(value)}")
        return tuple(item(v) for v in value)

    return check


_int = _scalar("an integer", int)
_float = _scalar("a number", float, int)
_bool = _scalar("true or false", bool)
_str = _scalar("a string", str)
_floats = _list_of(_float)


def _ints(value) -> tuple:
    if isinstance(value, str):  # "10,10,0", the form --iters-schedule takes
        try:
            return tuple(int(v) for v in value.split(","))
        except ValueError:
            got = json.dumps(value)
            raise ValueError(f"expected comma-separated integers, got {got}") from None
    return _list_of(_int)(value)


# add_argument keywords of each type; a row's own keywords extend them
_ARGPARSE = {_int: {"type": int}, _float: {"type": float}, _str: {}, _ints: {},
             _floats: {"type": float}, _bool: {"action": "store_true", "default": None}}


class _Setting(NamedTuple):
    flag: str | None  # None: config file only
    key: str  # config field name; "loss.x" and "convnet.x" sit in those sections
    check: Callable
    help: str | None = None
    argparse: dict = {}


_REGISTER = (
    _Setting("--mode", "mode", _str, "parameterization (default: freeform)",
             {"choices": ("freeform", "convnet")}),
    _Setting("--levels", "pyramid_levels", _int, "pyramid levels (default: 3 freeform, 1 convnet)"),
    _Setting("--iters", "iterations_per_level", _int,
             "iterations per level (default: 200 freeform, 100 convnet)"),
    _Setting("--iters-schedule", "iterations_schedule", _ints,
             "comma-separated per-level iterations, coarsest first (overrides --iters)"),
    _Setting("--lambda", "loss.reg_weight", _float, "smoothness weight (default: 1.0)"),
    _Setting("--ncc-window", "loss.ncc_window", _int, "NCC window side in voxels (default: 9)"),
    _Setting("--variance-floor", "loss.variance_floor", _float,
             "NCC denominator floor (default: 1e-5)"),
    _Setting("--learning-rate", "learning_rate", _float,
             "Adam step size (default: 1.0 freeform, 1e-4 convnet)"),
    _Setting("--convergence-tol", "convergence_tol", _float,
             "relative loss-change tolerance over a 10-iteration window (default: 1e-6)"),
    _Setting("--max-seconds", "max_seconds", _float, "wall-clock budget (default: none)"),
    _Setting("--seed", "seed", _int, "network init seed, convnet mode (default: 0)"),
    _Setting("--net-levels", "convnet.levels", _int, "encoder depth, convnet mode (default: 3)"),
    _Setting("--base-filters", "convnet.base_filters", _int,
             "first-level filter count, convnet mode (default: 8)"),
    _Setting(None, "convnet.use_batchnorm", _bool),
)

_SYNTH = (
    _Setting("--dims", "dims", _ints, "grid size (default: 48 48 48)",
             {"type": int, "nargs": 3, "metavar": ("NX", "NY", "NZ")}),
    _Setting("--spacing", "spacing", _floats, "voxel spacing in mm (default: 1 1 1)",
             {"nargs": 3, "metavar": ("SX", "SY", "SZ")}),
    _Setting("--seed", "seed", _int, "generator seed (default: 0)"),
    _Setting("--num-blobs", "num_blobs", _int, "intensity blob count (default: 12)"),
    _Setting("--field-bumps", "field_bumps", _int, "vector bump count (default: 4)"),
    _Setting("--max-disp", "max_displacement", _float, "peak displacement in mm (default: 5)"),
    _Setting("--num-landmarks", "num_landmarks", _int, "landmark count (default: 20)"),
    _Setting("--noise-sigma", "noise_sigma", _float, "moving-image noise sigma (default: 0.02)"),
    _Setting("--cavity", "cavity", _bool,
             "zero out a spherical region of the moving image (default: off)"),
)


def _add_settings(p, settings) -> None:
    for s in settings:
        if s.flag:
            p.add_argument(s.flag, help=s.help, **_ARGPARSE[s.check], **s.argparse)
    p.add_argument("--config", help="JSON config file; flags override its values")


def _load_config_file(path, settings) -> dict:
    """The file's values by setting key; a key not in ``settings`` is an error."""
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    keys = {tuple(s.key.split(".")): s.key for s in settings}
    sections = {k[0] for k in keys if len(k) == 2}
    values = {}
    for name, value in cfg.items():
        if name not in sections:
            entries = [((name,), value)]
        elif type(value) is dict:
            entries = [((name, k), v) for k, v in value.items()]
        else:
            raise ValueError(f"{path}: {name}: expected an object, got {json.dumps(value)}")
        for key, v in entries:
            if key not in keys:
                near = [k for k in keys.values() if k.rpartition(".")[2] == key[-1]]
                hint = f" (did you mean {near[0]!r}?)" if near else ""
                raise ValueError(f"{path}: unknown key {'.'.join(key)!r}{hint}")
            values[keys[key]] = v
    return values


def _resolve(settings, args) -> dict:
    """Config keyword arguments, each from its flag or else from the file.

    A file value of null counts as not given, and settings given neither way
    are left out.  "loss.x" and "convnet.x" values come back in nested dicts
    under "loss" and "convnet".
    """
    file_values = _load_config_file(args.config, settings)
    kwargs = {}
    for s in settings:
        flag_value = getattr(args, s.flag[2:].replace("-", "_")) if s.flag else None
        value = file_values.get(s.key) if flag_value is None else flag_value
        if value is None:
            continue
        try:
            value = s.check(value)
        except ValueError as exc:
            where = s.flag if flag_value is not None else f"{args.config}: {s.key}"
            raise ValueError(f"{where}: {exc}") from None
        section, _, name = s.key.rpartition(".")
        (kwargs.setdefault(section, {}) if section else kwargs)[name] = value
    return kwargs


# ---------------------------------------------------------------------------
# register


def _cmd_register(args) -> int:
    import numpy as np

    from .loss import LossConfig
    from .model import ConvNetConfig, save_checkpoint
    from .register import RegistrationConfig, register, report_to_json
    from .volume import load_volume, save_volume
    from .warp import save_field, warp_volume

    t0 = time.monotonic()
    kwargs = _resolve(_REGISTER, args)
    cfg = RegistrationConfig(
        loss=LossConfig(**kwargs.pop("loss", {})),
        convnet=ConvNetConfig(**kwargs.pop("convnet", {})),
        **kwargs,
    )
    if args.out_checkpoint and cfg.mode != "convnet":
        raise ValueError("--out-checkpoint requires --mode convnet")

    fixed = load_volume(args.fixed)
    moving = load_volume(args.moving)
    print(
        f"registering {args.fixed} -> {args.moving}: mode={cfg.mode} "
        f"levels={cfg.resolved_levels} dims={fixed.dims}",
        file=sys.stderr,
    )
    # a diverging run says so in its stop reason; numpy's overflow warnings
    # would only point into the library's internals
    with np.errstate(over="ignore", invalid="ignore"):
        report = register(fixed, moving, cfg)

    out_field = Path(args.out_field)
    save_field(report.field, out_field)
    outputs = [out_field, Path(str(out_field) + ".json")]
    if args.out_warped:
        save_volume(warp_volume(moving, report.field), args.out_warped)
        outputs += [Path(args.out_warped), Path(args.out_warped + ".json")]
    checkpoint_path = None
    if args.out_checkpoint:
        save_checkpoint(args.out_checkpoint, report.parameters)
        checkpoint_path = args.out_checkpoint
        outputs.append(Path(checkpoint_path))
    report_path = args.out_report or str(out_field) + ".report.json"
    Path(report_path).write_text(
        json.dumps(report_to_json(report, str(out_field), checkpoint_path), indent=2) + "\n"
    )
    outputs.append(Path(report_path))

    manifest_path = str(out_field) + ".manifest.json"
    _write_manifest(
        manifest_path,
        "register",
        cfg.to_dict(),
        [args.fixed, args.moving] + ([args.config] if args.config else []),
        outputs,
        time.monotonic() - t0,
    )
    final = report.final  # the loss of the field just written
    print(
        f"total={final.total!r} similarity={final.similarity!r} "
        f"smoothness={final.smoothness!r} iterations={report.iterations_executed} "
        f"stop={report.stop_reason}"
    )
    return 0


# ---------------------------------------------------------------------------
# eval


def _read_value_column(path) -> list[float]:
    values = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line.split(",")[-1]))
        except ValueError:
            if values:
                raise ValueError(f"{path}: malformed value line {line!r}") from None
            # header line
    if not values:
        raise ValueError(f"{path}: no numeric values")
    return values


def _cmd_eval(args) -> int:
    from .evaluate import (
        CaseRecord,
        case_metrics,
        cohort_summary,
        landmark_errors,
        load_landmarks,
        save_long_errors,
        save_metrics,
        transform_landmarks,
    )
    from .warp import jacobian_determinant, load_field

    t0 = time.monotonic()
    if args.summarize:
        values = _read_value_column(args.summarize)
        s = cohort_summary(values)
        print(
            f"n={len(values)} mean={s.mean!r} stddev={s.stddev!r} "
            f"median={s.median!r} q25={s.q25!r} q75={s.q75!r}"
        )
        return 0
    for flag, value in (
        ("--field", args.field),
        ("--fixed-landmarks", args.fixed_landmarks),
        ("--moving-landmarks", args.moving_landmarks),
    ):
        if value is None:
            raise ValueError(f"{flag} is required unless --summarize is used")

    field = load_field(args.field)
    fixed_lms = load_landmarks(args.fixed_landmarks)
    moving_lms = load_landmarks(args.moving_landmarks)
    case = args.case or Path(args.field).stem

    before = landmark_errors(fixed_lms, moving_lms)
    mapped = transform_landmarks(fixed_lms, field)
    after = landmark_errors(mapped, moving_lms)
    jmap = jacobian_determinant(field)
    metrics = case_metrics(after, before, jmap)
    import numpy as np

    initial_median = float(np.median(before))

    outputs = []
    if args.out_prefix:
        prefix = args.out_prefix
        csv_path = prefix + "metrics.csv"
        json_path = prefix + "metrics.json"
        long_path = prefix + "errors_long.csv"
        record = CaseRecord(case=case, initial_mae_median=initial_median, metrics=metrics)
        save_metrics([record], csv_path, json_path)
        rows = [(case, "initial", e) for e in before] + [
            (case, "registered", e) for e in after
        ]
        save_long_errors(rows, long_path)
        outputs = [csv_path, json_path, long_path]
        _write_manifest(
            prefix + "manifest.json",
            "eval",
            {"case": case},
            [args.field, args.fixed_landmarks, args.moving_landmarks],
            outputs,
            time.monotonic() - t0,
        )
    print(
        f"case={case} mae_median={metrics.mae_median!r} mae_mean={metrics.mae_mean!r} "
        f"mtre={metrics.mae_mean!r} robustness={metrics.robustness!r} "
        f"folding_fraction={metrics.folding_fraction!r} "
        f"initial_mae_median={initial_median!r} clamped={int(mapped.clamped.sum())}"
    )
    return 0


# ---------------------------------------------------------------------------
# synth


def _cmd_synth(args) -> int:
    from .synth import SynthConfig, generate_case, save_case

    t0 = time.monotonic()
    cfg = SynthConfig(**_resolve(_SYNTH, args))
    case = generate_case(cfg)
    manifest = save_case(case, args.out)
    outdir = Path(args.out)
    _write_manifest(
        outdir / "manifest.json",
        "synth",
        cfg.to_dict(),
        [],
        [outdir / name for name in manifest["files"].values()] + [outdir / "case.json"],
        time.monotonic() - t0,
    )
    print(
        f"case seed={cfg.seed} dims={'x'.join(str(d) for d in cfg.dims)} "
        f"max_disp={cfg.max_displacement!r} residual={case.inversion_residual!r} "
        f"out={args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# slices


def _cmd_slices(args) -> int:
    from .volume import export_slice, load_volume
    from .warp import jacobian_determinant, load_field

    t0 = time.monotonic()
    if (args.volume is None) == (args.field is None):
        raise ValueError("exactly one of --volume / --field is required")
    if args.volume is not None:
        if args.jacobian:
            raise ValueError("--jacobian applies to --field input only")
        vol = load_volume(args.volume)
        src = args.volume
    else:
        if not args.jacobian:
            raise ValueError("--field input requires --jacobian (renders the Jacobian map)")
        vol = jacobian_determinant(load_field(args.field))
        src = args.field
    export_slice(vol, args.axis, args.index, args.out)
    _write_manifest(
        str(args.out) + ".manifest.json",
        "slices",
        {"axis": args.axis, "index": args.index, "jacobian": bool(args.jacobian)},
        [src],
        [args.out],
        time.monotonic() - t0,
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_version(args) -> int:
    from . import __version__

    print(f"defreg {__version__}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="defreg", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="BLAS/OpenMP thread cap; 1 is the bit-reproducibility baseline "
        "(default: DEFREG_THREADS or all cores)",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("register", parents=[], help="register a moving volume to a fixed one")
    p.add_argument("--fixed", required=True, help="fixed volume (.vol)")
    p.add_argument("--moving", required=True, help="moving volume (.vol)")
    p.add_argument("--out-field", required=True, help="output displacement field (.dfield)")
    p.add_argument("--out-warped", help="optional warped moving volume (.vol)")
    p.add_argument("--out-report", help="report JSON path (default: <out-field>.report.json)")
    p.add_argument("--out-checkpoint", help="network checkpoint path (convnet mode)")
    _add_settings(p, _REGISTER)
    p.set_defaults(func=_cmd_register)

    p = sub.add_parser("eval", help="landmark evaluation of a displacement field")
    p.add_argument("--field", help="displacement field (.dfield)")
    p.add_argument("--fixed-landmarks", help="fixed-image landmark CSV (id,x,y,z)")
    p.add_argument("--moving-landmarks", help="moving-image landmark CSV (id,x,y,z)")
    p.add_argument("--case", help="case label for output rows (default: field file stem)")
    p.add_argument(
        "--out-prefix", help="write <prefix>metrics.{csv,json} and <prefix>errors_long.csv"
    )
    p.add_argument(
        "--summarize",
        metavar="CSV",
        help="print cohort summary statistics of a single-column value file and exit",
    )
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic ground-truth case")
    p.add_argument("--out", required=True, help="output directory")
    _add_settings(p, _SYNTH)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("slices", help="export a 2D PGM slice from a volume or Jacobian map")
    p.add_argument("--volume", help="volume input (.vol)")
    p.add_argument("--field", help="field input (.dfield), rendered via --jacobian")
    p.add_argument("--jacobian", action="store_true", default=False,
                   help="render the field's Jacobian determinant map")
    p.add_argument("--axis", choices=("x", "y", "z"), required=True, help="slice axis")
    p.add_argument("--index", type=int, required=True, help="slice index along the axis")
    p.add_argument("--out", required=True, help="output PGM path")
    p.set_defaults(func=_cmd_slices)

    p = sub.add_parser("version", help="print the tool version")
    p.set_defaults(func=_cmd_version)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        print("defreg: error: a command is required", file=sys.stderr)
        return 1
    try:
        _configure_threads(args.threads)
        return args.func(args)
    except OSError as exc:
        print(f"defreg: i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"defreg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
