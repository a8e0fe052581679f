"""Command-line interface.

Verbs: solve, compare, geometry, synth, convert. The solve and compare
flags are built from the ExperimentConfig fields: --<field-name>, with
--dataset, --format, --burn-in, --out and --use-rotation/--no-rotation
for the fields they name, a --no- form for each true-or-false field, and
comma-separated lists for --spectrum and --seeds. A JSON config file
provides defaults that individual flags override. Exit codes: 0 success,
1 parse/config error or a file that cannot be read or written, 2 solver
degeneracy or non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

from .errors import (_FLAG, _INTEGER, _REAL, ConfigError,
                     DegenerateIterateError, NonConvergenceError, VrpcaError)
from .harness import (_KINDS, INITS, SOLVERS, ExperimentConfig,
                      compare_baselines, geometry_report, run_experiment)
from .io import FORMATS, load_dataset, save_dataset
from .oracle import SpectrumSpec, synthesize_dataset


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _csv(kind, what):
    """An argparse type: text -> tuple of ``kind``, comma-separated; a
    value that is not one is refused with a message naming ``what``."""
    def parse(text):
        try:
            return tuple(kind(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}") from None
    return parse


_csv_floats = _csv(float, "numbers")
_csv_ints = _csv(int, "integers")


#: the flags not spelled --<field-name>
_SPELLINGS = {"dataset_path": ("--dataset",), "dataset_format": ("--format",),
              "run_burn_in": ("--burn-in",), "out_dir": ("--out",),
              "use_rotation": ("--use-rotation", "--rotation")}
#: the argparse type of each value kind; a path or a name stays a string
_TYPES = {_INTEGER: int, _REAL: float, _KINDS["spectrum"]: _csv_floats,
          _KINDS["seeds"]: _csv_ints}
_CHOICES = {"solver": SOLVERS, "init": INITS, "dataset_format": FORMATS}


def _add_experiment_flags(p):
    """One flag per ExperimentConfig field, parsing to the field's _KINDS
    kind; a true-or-false field also takes the --no- form of each of its
    spellings."""
    p.add_argument("--config", help="JSON config file; flags override it")
    for f in fields(ExperimentConfig):
        names = _SPELLINGS.get(f.name, ("--" + f.name.replace("_", "-"),))
        kind = _KINDS[f.name]
        if kind is _FLAG:
            p.add_argument(*names, dest=f.name,
                           action=argparse.BooleanOptionalAction)
        else:
            p.add_argument(*names, dest=f.name, type=_TYPES.get(kind),
                           choices=_CHOICES.get(f.name))


def _experiment_config(args) -> ExperimentConfig:
    """The config of the solve or compare verb: the --config file's
    object, overridden by the flags given. At k >= 2 compare takes
    vrpca_block when neither sets a solver, since the default
    vrpca_vector needs k == 1."""
    raw = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    for key in ExperimentConfig.__dataclass_fields__:
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    if args.verb == "compare" and raw.get("k", 1) != 1:
        raw.setdefault("solver", "vrpca_block")
    return ExperimentConfig.from_dict(raw)


def build_parser() -> _Parser:
    parser = _Parser(prog="vrpca", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_solve = sub.add_parser("solve", help="run the experiment pipeline")
    _add_experiment_flags(p_solve)

    p_cmp = sub.add_parser("compare", help="solver-vs-baselines comparison")
    _add_experiment_flags(p_cmp)

    p_geo = sub.add_parser("geometry", help="Rayleigh-quotient diagnostics")
    p_geo.add_argument("--lam", type=float, required=True,
                       help="eigengap of the probe instances")
    p_geo.add_argument("--eps", type=float, required=True)
    p_geo.add_argument("--samples", type=int, default=10000)
    p_geo.add_argument("--seed", type=int, default=0)
    p_geo.add_argument("--out")

    p_synth = sub.add_parser("synth", help="write a synthetic dataset")
    p_synth.add_argument("--spectrum", type=_csv_floats, required=True)
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--format", choices=FORMATS, default="f64le")
    p_synth.add_argument("--out", required=True)

    p_conv = sub.add_parser("convert", help="convert between dataset formats")
    p_conv.add_argument("src")
    p_conv.add_argument("dst")
    p_conv.add_argument("--from", dest="src_format", choices=FORMATS,
                        required=True)
    p_conv.add_argument("--to", dest="dst_format", choices=FORMATS,
                        required=True)

    return parser


@functools.cache
def _parser() -> _Parser:
    """build_parser()'s parser, built on main's first call and reused by
    every later one in the process: parsing leaves it unchanged."""
    return build_parser()


def _json_result(args):
    """The object that the solve, compare or geometry verb prints as JSON."""
    if args.verb == "solve":
        return [r.to_dict() for r in run_experiment(_experiment_config(args))]
    if args.verb == "compare":
        return compare_baselines(_experiment_config(args))
    return geometry_report(args.lam, args.eps, out=args.out,
                           samples=args.samples, seed=args.seed)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.verb == "synth":
            spec = SpectrumSpec(eigenvalues=args.spectrum)
            X = synthesize_dataset(spec, args.n, args.seed)
            save_dataset(X, args.out, args.format)
            print(f"wrote {X.d} x {X.n} dataset (r={X.r:.6g}) to {args.out}")
        elif args.verb == "convert":
            X = load_dataset(args.src, args.src_format)
            save_dataset(X, args.dst, args.dst_format)
            print(f"wrote {X.d} x {X.n} dataset to {args.dst}")
        else:
            json.dump(_json_result(args), sys.stdout, indent=2)
            sys.stdout.write("\n")
    except (DegenerateIterateError, NonConvergenceError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except (VrpcaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
