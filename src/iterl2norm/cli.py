"""Command-line benchmark harness.

Subcommands: precision, convergence, compare-fisr, latency, normalize.
Exit codes: 0 success, 2 usage error, 3 data error (malformed, missing or
unreadable input file, non-finite input, gamma or beta value), 4 range
error (an input value or a squared norm out of the format's range).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DataFormatError, RangeOverflowError, UsageError
from .experiments import (
    ExperimentSpec,
    run_compare_fisr,
    run_convergence,
    run_latency,
    run_normalize,
    run_precision,
    write_csv,
)
from .fpformat import FORMATS
from .latency import stage_costs_from_dict
from .norm_core import DEFAULT_STEPS, FixedSteps, NormConfig, Threshold

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RANGE = 4

# The ExperimentSpec fields the experiment flags set; a flag left out takes
# the spec's default.
_SPEC_FIELDS = ("dims", "num_vectors", "seed", "steps", "lambda_override")
_FISR_FIELDS = ("newton_iters", "fp32_magic", "bf16_magic")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers, "
                                         f"got {text!r}")
    return values


_FLAGS = {
    "--format": dict(action="append", dest="formats", choices=tuple(FORMATS),
                     help="target format; repeatable"),
    "--dims": dict(type=_int_list, help="comma-separated vector lengths"),
    "--num-vectors": dict(type=int, help="vectors per (format, d) (default 1000)"),
    "--seed": dict(type=int, help="RNG seed (default 0)"),
    "--steps": dict(type=_int_list,
                    help=f"iteration steps (default {DEFAULT_STEPS}; `convergence` sweeps "
                         "1,...,10 and takes a comma list)"),
    "--lambda": dict(dest="lambda_override", type=float,
                     help="override the per-vector default update rate"),
    "--out": dict(help="output path (default: stdout)"),
    "--config": dict(help="JSON config: stage costs, FISR magic/newton overrides"),
}
_ERROR_TABLE_FLAGS = ("--format", "--dims", "--num-vectors", "--seed", "--steps", "--lambda",
                      "--out")


# (runner, help, flags) of each experiment subcommand; `normalize` is built
# on its own.
_EXPERIMENTS = {
    "precision": (run_precision, "error vs the binary64 reference", _ERROR_TABLE_FLAGS),
    "convergence": (run_convergence, "error vs iteration steps", _ERROR_TABLE_FLAGS),
    "compare-fisr": (run_compare_fisr, "paired table against FISR",
                     _ERROR_TABLE_FLAGS + ("--config",)),
    # --seed draws nothing; perfbench and run_paper_experiments.py pass it to all
    "latency": (run_latency, "macro cycle counts",
                ("--dims", "--seed", "--steps", "--out", "--config")),
}
_COMMANDS = tuple(_EXPERIMENTS) + ("normalize",)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Given a known `command`, only that
    subcommand is built: a command line that starts with it parses, and
    fails, as it does under the parser of every subcommand.  Otherwise
    every subcommand is built, for `-h`, a missing or an unknown command."""
    names = (command,) if command in _COMMANDS else _COMMANDS
    parser = argparse.ArgumentParser(
        prog="iterl2norm",
        description="Iterative division-free layer normalization benchmark harness",
    )
    # the usage line of an error in the subcommand's arguments lists every
    # command either way
    metavar = None if names == _COMMANDS else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        if name == "normalize":
            _add_normalize(sub)
            continue
        _, help_text, flags = _EXPERIMENTS[name]
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _add_normalize(sub) -> None:
    p = sub.add_parser("normalize", help="normalize vectors from a file")
    p.add_argument("--input", required=True, help="vector file (text or binary)")
    p.add_argument("--out", required=True,
                   help="output vector file; diagnostics go to <out>.meta.jsonl")
    p.add_argument("--format", choices=tuple(FORMATS),
                   help="format of a text input (default fp32); a binary file names its own")
    p.add_argument("--gamma", help="scale parameter file")
    p.add_argument("--beta", help="shift parameter file")
    stop = p.add_mutually_exclusive_group()
    stop.add_argument("--steps", type=int, help=f"iteration steps (default {DEFAULT_STEPS})")
    stop.add_argument("--delta-max", type=float,
                      help="threshold stopping: iterate until |da| <= DELTA_MAX")
    p.add_argument("--lambda", **_FLAGS["--lambda"])


def _load_config(path: str | None) -> dict:
    """The `--config` JSON as ExperimentSpec fields: stage costs, and the
    FISR Newton step count and magic constants.  A key it does not read is
    a usage error."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DataFormatError(f"{path}: config must be a JSON object")
    fisr, costs = data.get("fisr", {}), data.get("stage_costs", {})
    if not (isinstance(fisr, dict) and isinstance(costs, dict)):
        raise DataFormatError(f"{path}: \"fisr\" and \"stage_costs\" must be JSON objects")
    for keys, known, what in ((data, ("fisr", "stage_costs"), "config keys"),
                              (fisr, _FISR_FIELDS, "fisr fields")):
        unknown = sorted(set(keys) - set(known))
        if unknown:
            raise UsageError(f"{path}: unknown {what}: {unknown}")
    try:
        newton_iters = int(fisr.get("newton_iters", 1))
        magic = {key.removesuffix("_magic"): int(v, 0) if isinstance(v, str) else int(v)
                 for key, v in fisr.items() if key != "newton_iters"}
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad fisr setting: {exc}") from exc
    return {"stage_costs": stage_costs_from_dict(costs),
            "fisr_newton_iters": newton_iters, "fisr_magic": magic}


def _build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The spec from the flags the user gave; the rest take the kind's
    defaults in ExperimentSpec."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    return ExperimentSpec(
        kind=args.command,
        formats=tuple(given.get("formats", ())),
        **{k: given[k] for k in _SPEC_FIELDS if k in given},
        **_load_config(given.get("config")),
    )


def _normalize(args: argparse.Namespace) -> None:
    # --steps has no argparse default: one would hide `--steps 5 --delta-max X`
    # from the mutually exclusive group
    stopping = (Threshold(args.delta_max) if args.delta_max is not None
                else FixedSteps(DEFAULT_STEPS if args.steps is None else args.steps))
    summary = run_normalize(args.input, args.out, NormConfig(stopping, args.lambda_override),
                            args.format, args.gamma, args.beta)
    print(f"normalized {summary.count} vectors -> {summary.out_path} "
          f"(diagnostics: {summary.sidecar_path})")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.command == "normalize":
            _normalize(args)
            return EXIT_OK
        text = write_csv(_EXPERIMENTS[args.command][0](_build_spec(args)), args.out)
        if args.out is None:
            sys.stdout.write(text)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RangeOverflowError as exc:
        print(f"range error: {exc}", file=sys.stderr)
        return EXIT_RANGE


def entrypoint() -> None:  # console_scripts shim
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
