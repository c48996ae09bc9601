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
from .latency import stage_costs_from_dict
from .norm_core import DEFAULT_STEPS

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RANGE = 4


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterl2norm",
        description="Iterative division-free layer normalization benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: bool = True) -> None:
        if formats:
            p.add_argument("--format", action="append", dest="formats",
                           choices=["fp32", "fp16", "bf16"],
                           help="target format; repeatable")
        p.add_argument("--dims", type=_int_list, default=None,
                       help="comma-separated vector lengths")
        p.add_argument("--num-vectors", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--steps", type=_int_list, default=None,
                       help=f"iteration steps (default {DEFAULT_STEPS}; `convergence` "
                            "sweeps 1,...,10); a comma list sweeps step counts "
                            "for `convergence`")
        p.add_argument("--lambda", dest="lambda_override", type=float, default=None,
                       help="override the per-vector default update rate")
        p.add_argument("--delta-max", type=float, default=None,
                       help="threshold stopping: iterate until |da| <= DELTA_MAX")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--config", default=None,
                       help="JSON config: stage costs, FISR magic/newton overrides")

    common(sub.add_parser("precision", help="error vs the binary64 reference"))
    common(sub.add_parser("convergence", help="error vs iteration steps"))
    common(sub.add_parser("compare-fisr", help="paired table against FISR"))
    common(sub.add_parser("latency", help="macro cycle counts"), formats=False)

    p_norm = sub.add_parser("normalize", help="normalize vectors from a file")
    common(p_norm)
    p_norm.add_argument("--input", required=True, help="vector file (text or binary)")
    p_norm.add_argument("--gamma", default=None, help="scale parameter file")
    p_norm.add_argument("--beta", default=None, help="shift parameter file")
    return parser


def _load_config(path: str | None) -> dict:
    """The `--config` JSON as ExperimentSpec fields: stage costs, and the
    FISR Newton step count and magic constants."""
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
    try:
        newton_iters = int(fisr.get("newton_iters", 1))
        magic = {key.removesuffix("_magic"): int(v, 0) if isinstance(v, str) else int(v)
                 for key, v in fisr.items() if key in ("fp32_magic", "bf16_magic")}
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad fisr setting: {exc}") from exc
    return {"stage_costs": stage_costs_from_dict(costs),
            "fisr_newton_iters": newton_iters, "fisr_magic": magic}


def _build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The spec from the flags the user gave; the rest take the kind's
    defaults in ExperimentSpec."""
    return ExperimentSpec(
        kind=args.command,
        formats=tuple(getattr(args, "formats", None) or ()),
        dims=args.dims or (),
        num_vectors=args.num_vectors,
        seed=args.seed,
        steps=args.steps or (),
        lambda_override=args.lambda_override,
        delta_max=args.delta_max,
        input_path=getattr(args, "input", None),
        output_path=args.out,
        **_load_config(args.config),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _build_spec(args)
        if args.command == "normalize":
            summary = run_normalize(spec, gamma_path=args.gamma, beta_path=args.beta)
            print(f"normalized {summary.count} vectors -> {summary.output_path} "
                  f"(diagnostics: {summary.sidecar_path})")
            return EXIT_OK
        runner = {
            "precision": run_precision,
            "convergence": run_convergence,
            "compare-fisr": run_compare_fisr,
            "latency": run_latency,
        }[args.command]
        result = runner(spec)
        text = write_csv(result, args.out)
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
