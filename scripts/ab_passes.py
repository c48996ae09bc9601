#!/usr/bin/env python3
"""Compare the pass times of two source trees on one benchmark workload, in
one process.

    python3 scripts/ab_passes.py --a ../parent --b . --workload file_bin --rounds 20

Each tree is a checkout with the package under `src/`.  Both are imported
into this process (the package is dropped from `sys.modules` and imported
again from each `src/`), so the host's fast and slow spells fall on both
alike.  The workload's inputs, from `perfbench/workloads.py` of this
checkout, are generated once.  After one untimed warm-up pass of each
tree, each round times one pass of A and one of B, A first in even rounds
and B first in odd ones.  The first timed outputs of the two trees are
compared byte for byte.  The line before the last reports each tree's
median minor page faults per timed pass (`getrusage` `ru_minflt` taken
around each pass), so that a change in temporaries shows beside the time;
the last line reports the median of the per-round B/A pass-time ratios,
their interquartile range and the rounds B won.
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


def run_pass(lib, ops) -> tuple[float, int, list[bytes]]:
    """One pass of the workload's CLI calls: (seconds inside `cli.main`,
    minor page faults of the pass, each call's output bytes)."""
    total, outputs = 0.0, []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for op in ops:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            code = lib.cli.main(op.argv)
            total += time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"{op.name}: exit code {code}: {sink.getvalue().strip()[-300:]}")
        outputs.append(op.output.read_bytes())
    return total, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, outputs


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--a", type=Path, required=True, help="baseline source tree")
    p.add_argument("--b", type=Path, required=True, help="source tree compared with A")
    p.add_argument("--workload", required=True, help="a workload of perfbench/workloads.py")
    p.add_argument("--rounds", type=int, default=20, help="timed A/B rounds (default 20)")
    p.add_argument("--seed", type=int, default=0, help="workload input seed (default 0)")
    args = p.parse_args()
    if args.rounds < 1:
        p.error("--rounds must be >= 1")

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(sorted(WORKLOADS))}")
    trees = {"a": load_tree(args.a), "b": load_tree(args.b)}

    with tempfile.TemporaryDirectory() as tmp:
        ops = WORKLOADS[args.workload].generate(trees["a"], args.seed, Path(tmp))
        for lib in trees.values():
            run_pass(lib, ops)  # warm-up
        ratios, outputs, faults = [], {}, {"a": [], "b": []}
        for r in range(args.rounds):
            times = {}
            for key in ("ab" if r % 2 == 0 else "ba"):
                times[key], flt, out = run_pass(trees[key], ops)
                faults[key].append(flt)
                outputs.setdefault(key, out)
            ratios.append(times["b"] / times["a"])

    same = outputs["a"] == outputs["b"]
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    median = statistics.median(ratios)
    print(f"a: {args.a.resolve()}  b: {args.b.resolve()}  workload: {args.workload}  "
          f"seed: {args.seed}  rounds: {args.rounds}  outputs: {'same' if same else 'DIFFER'}")
    print(f"minflt per pass  a {statistics.median(faults['a']):.0f}  "
          f"b {statistics.median(faults['b']):.0f}")
    print(f"ratio {median:.3f}  iqr {q1:.3f}-{q3:.3f}  "
          f"b_faster {sum(x < 1.0 for x in ratios)}/{len(ratios)}")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
