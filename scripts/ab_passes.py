#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload, or on the package's
import, in one process.

    python3 scripts/ab_passes.py --a ../parent --b . --workload file_bin --rounds 20
    python3 scripts/ab_passes.py --a ../parent --b . --setup --rounds 40

Each tree is a checkout with the package under `src/`.  Both are imported
into this process (the package is dropped from `sys.modules` and imported
again from each `src/`), so the host's fast and slow spells fall on both
alike.  Each round measures A and B once, A first in even rounds and B
first in odd ones.

With `--workload`, the workload's inputs, from `perfbench/workloads.py` of
this checkout, are generated once.  After one untimed warm-up pass of each
tree, each round times one pass of each tree, and the first timed outputs
of the two trees (each `normalize` call's output and its `<out>.meta.jsonl`
sidecar, and each experiment's CSV) are compared byte for byte.  One line per op of the
workload follows, with each tree's median seconds for that op and their
ratio (B/A), so that a change can be located by op.  The line before the
last reports each tree's median minor page faults per timed pass (`getrusage`
`ru_minflt` taken around each pass), once over the rounds the tree ran
first and once over those it ran second: where a pass's temporaries land
depends on what ran before it, so a fault difference means something only
if it holds in both slots.  A pass that leaves more threads alive than
there were before the passes ends the run with a non-zero exit, naming the
tree: a leaked worker would run on beside the passes that follow it.

With `--setup`, each round times one fresh import of the seven modules
that perfbench's set-up imports, per tree.  One untimed import of each
tree comes first: it writes the bytecode and loads the standard library
modules either tree uses, which perfbench has loaded before its set-up
too.  The line before the last reports each tree's median import time.

The last line reports the median of the per-round B/A ratios (pass or
import times), their interquartile range and the rounds B won.
"""

from __future__ import annotations

import os

# Before numpy loads: keep every numpy kernel on one thread, as perfbench does.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import importlib
import io
import resource
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("fpformat", "norm_core", "baselines", "latency", "vecio", "experiments", "cli")


def load_tree(tree: Path) -> SimpleNamespace:
    """The package's modules, by short name, imported afresh from
    `tree`/src; each module keeps the references it took at import."""
    src = tree.resolve() / "src"
    if not (src / "iterl2norm" / "__init__.py").is_file():
        raise SystemExit(f"no iterl2norm sources under {src}")
    for name in [n for n in sys.modules if n == "iterl2norm" or n.startswith("iterl2norm.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        lib = SimpleNamespace(**{m: importlib.import_module(f"iterl2norm.{m}") for m in MODULES})
    finally:
        sys.path.remove(str(src))
    if not Path(lib.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"iterl2norm was imported from {lib.cli.__file__}, not {src}")
    return lib


def run_pass(lib, ops) -> tuple[list[float], int, list[bytes]]:
    """One pass of the workload's CLI calls: (each call's seconds inside
    `cli.main`, minor page faults of the pass, each call's output bytes,
    followed by its diagnostics sidecar's for a `normalize` call)."""
    seconds, outputs = [], []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for op in ops:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            code = lib.cli.main(op.argv)
            seconds.append(time.perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"{op.name}: exit code {code}: {sink.getvalue().strip()[-300:]}")
        outputs.append(op.output.read_bytes())
        if op.kind != "csv":  # a `normalize` call writes a sidecar too
            outputs.append(Path(f"{op.output}.meta.jsonl").read_bytes())
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, outputs


def time_import(tree: Path) -> float:
    """Seconds of one fresh import of the package's modules from `tree`."""
    t0 = time.perf_counter()
    load_tree(tree)
    return time.perf_counter() - t0


def alternate(rounds: int, measure) -> dict[str, list]:
    """`measure(key)` for "a" and "b" once per round, A first in even rounds
    and B first in odd ones: per key, the results in round order."""
    results = {"a": [], "b": []}
    for r in range(rounds):
        for key in ("ab" if r % 2 == 0 else "ba"):
            results[key].append(measure(key))
    return results


def by_slot(key: str, values: list) -> str:
    """The median of a tree's values over the rounds it ran first, then
    over those it ran second ("-" for a slot it never ran in)."""
    # A runs first in even rounds, B in odd ones
    slots = {"first": values[key == "b"::2], "second": values[key == "a"::2]}
    return "  ".join(f"{slot} {statistics.median(v):.0f}" if v else f"{slot} -"
                     for slot, v in slots.items())


def report(ratios: list[float]) -> None:
    """Print the median B/A ratio, its interquartile range and the rounds B
    won."""
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"ratio {statistics.median(ratios):.3f}  iqr {q1:.3f}-{q3:.3f}  "
          f"b_faster {sum(x < 1.0 for x in ratios)}/{len(ratios)}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--a", type=Path, required=True, help="baseline source tree")
    p.add_argument("--b", type=Path, required=True, help="source tree compared with A")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="a workload of perfbench/workloads.py")
    mode.add_argument("--setup", action="store_true",
                      help="time fresh imports of the package instead of passes")
    p.add_argument("--rounds", type=int, default=20, help="timed A/B rounds (default 20)")
    p.add_argument("--seed", type=int, default=0, help="workload input seed (default 0)")
    args = p.parse_args()
    if args.rounds < 1:
        p.error("--rounds must be >= 1")
    trees = {"a": args.a, "b": args.b}
    head = f"a: {args.a.resolve()}  b: {args.b.resolve()}  "

    if args.setup:
        for tree in trees.values():
            load_tree(tree)  # bytecode and standard library modules
        times = alternate(args.rounds, lambda key: time_import(trees[key]))
        print(f"{head}setup  rounds: {args.rounds}")
        print(f"import ms  a {1e3 * statistics.median(times['a']):.1f}  "
              f"b {1e3 * statistics.median(times['b']):.1f}")
        report([b / a for a, b in zip(times["a"], times["b"])])
        return 0

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(sorted(WORKLOADS))}")
    libs = {key: load_tree(tree) for key, tree in trees.items()}
    outputs = {}

    def checked_pass(key: str) -> tuple[list[float], int, list[bytes]]:
        result = run_pass(libs[key], ops)
        if threading.active_count() > threads:
            raise SystemExit(f"{key}: {threading.active_count()} threads alive after a pass, "
                             f"{threads} before the passes")
        return result

    def measure(key: str) -> tuple[list[float], int]:
        seconds, faults, out = checked_pass(key)
        outputs.setdefault(key, out)  # the first timed outputs
        return seconds, faults

    with tempfile.TemporaryDirectory() as tmp:
        ops = WORKLOADS[args.workload].generate(libs["a"], args.seed, Path(tmp))
        threads = threading.active_count()
        for key in libs:
            checked_pass(key)  # warm-up
        passes = alternate(args.rounds, measure)

    same = outputs["a"] == outputs["b"]
    print(f"{head}workload: {args.workload}  seed: {args.seed}  rounds: {args.rounds}  "
          f"outputs: {'same' if same else 'DIFFER'}")
    for k, op in enumerate(ops):
        a, b = (statistics.median(sec[k] for sec, _ in passes[key]) for key in trees)
        print(f"op {op.name}  a {a:.6f}  b {b:.6f}  ratio {b / a:.3f}")
    print("minflt per pass  " + "  ".join(
        f"{key} {by_slot(key, [flt for _, flt in passes[key]])}" for key in trees))
    report([sum(b) / sum(a) for (a, _), (b, _) in zip(passes["a"], passes["b"])])
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
