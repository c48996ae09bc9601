#!/usr/bin/env python3
"""Benchmark of iterl2norm, driven from outside through `iterl2norm.cli.main`.

    python3 perfbench/run.py --workload file_bin --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One process, one thread.  A run:

1. sets up `SETUP_REPEATS` times, spread evenly over the run so that the
   host's slow and fast spells affect set-up and passes alike: a fresh
   import of the package plus the workload's seeded inputs; `setup_s` is
   the median;
2. makes passes over the workload's CLI calls for `--seconds` seconds.  The
   first pass is checked in full against the batch kernels and warms up;
   every later pass must reproduce its outputs bit for bit, or the call
   counts as failed.  A self-test flips one output bit and checks that it
   is counted as a failure;
3. reports host times at a reference host speed (`host_scale`);
4. with `--trace 0`, reports the end-to-end metrics; with `--trace 1`,
   alternates untraced and traced passes and reports per-layer self times
   and counts (see spans.py), which must repeat exactly between traced
   passes.

The last line of standard output is the result as JSON; the line before it
holds the run's context (seed, commit, versions, per-pass samples), which is
also written to `.perfbench/results/`.  See perfbench/README.md.
"""

import os

# Before numpy loads: keep every numpy kernel on one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import struct
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spans import LAYERS, Tracer
from workloads import WORKLOADS, flip_one_bit, read_output

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_REPEATS = 7
MIN_PASSES = 4  # the warm-up pass plus at least three timed ones
MODULES = ("fpformat", "norm_core", "baselines", "latency", "vecio", "experiments", "cli")
# Seconds `reference_work` takes on the idle 2-core Xeon host this benchmark
# was written on; host times are reported at this speed (see host_scale).
REFERENCE_S = 0.008


def reference_work() -> None:
    """A fixed mix of interpreter work and small numpy calls, independent of
    iterl2norm, like the mix the workloads run."""
    a = np.linspace(-1.0, 1.0, 1024)
    acc = 0.0
    seen = {}
    for i in range(2500):
        b = (a * 1.0001 + i).astype(np.float32).astype(np.float64)
        acc += float(b[i % 1024])
        seen[i % 97] = acc


def reference_seconds() -> float:
    """How long `reference_work` takes now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def host_scale(reference: list[float]) -> float:
    """Factor that turns this run's host seconds into seconds at the host
    speed where `reference_work` takes REFERENCE_S.

    A shared host switches between fast and slow spells (up to 1.7x apart,
    lasting from under a second to minutes), alike for all CPU work, so
    the share of slow spells in a run moves its times by +-30%.
    `reference` holds timings of `reference_work` taken after every CLI
    call and set-up, so their mean sees the spells in the same proportion
    as the run; the factor is REFERENCE_S over that mean.  The run's
    context keeps the unscaled seconds.
    """
    return REFERENCE_S / statistics.fmean(reference)


def import_package() -> SimpleNamespace:
    """Import iterl2norm from scratch (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "iterl2norm" or n.startswith("iterl2norm.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"iterl2norm.{m}") for m in MODULES})


def set_up(wl, seed: int, workdir: Path) -> tuple[SimpleNamespace, list, float]:
    """Fresh import plus input generation: (package modules, ops, seconds)."""
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    lib = import_package()
    workdir.mkdir(parents=True)
    ops = wl.generate(lib, seed, workdir)
    return lib, ops, time.perf_counter() - t0


def call_cli(lib, argv: list[str]) -> tuple[float, str | None]:
    """One `cli.main` call: (seconds, what went wrong or None)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            code = lib.cli.main(argv)
            dt = time.perf_counter() - t0
    except (Exception, SystemExit) as exc:  # a crash is a failed call, not a crashed run
        return 0.0, f"raised {exc!r}"
    if code != 0:
        return dt, f"exit code {code}: {sink.getvalue().strip()[-300:]}"
    return dt, None


class Runner:
    def __init__(self, lib, workload, ops) -> None:
        self.lib, self.wl, self.ops = lib, workload, ops
        self.attempted = 0
        self.failures: list[str] = []   # failed calls
        self.problems: list[str] = []   # failed run-level checks
        self.verified: dict[str, str] = {}  # op name -> digest of its checked output
        self.first: dict = {}
        self.reference: list[float] = []  # reference_seconds() after each call

    def run_pass(self, tracer: Tracer | None = None) -> float:
        """Run every op once; return the seconds spent inside `cli.main`."""
        total = 0.0
        for op in self.ops:
            if tracer is not None:
                tracer.install()
            try:
                dt, problem = call_cli(self.lib, op.argv)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            self.reference.append(reference_seconds())
            self.attempted += 1
            total += dt
            if problem is None:
                try:
                    out = read_output(op)
                except (OSError, ValueError, KeyError, struct.error) as exc:
                    problem = f"unreadable output: {exc!r}"
            if problem is None:
                if op.name not in self.first:
                    self.first[op.name] = out
                    try:
                        problem = self.wl.verify(self.lib, op, out)
                    except (ValueError, IndexError) as exc:
                        problem = f"malformed output: {exc!r}"
                    if problem is None:
                        self.verified[op.name] = out.digest
                elif out.digest != self.verified.get(op.name):
                    problem = "output differs from the checked first pass"
            if problem is not None:
                self.failures.append(f"{op.name}: {problem}")
        return total

    def self_test(self) -> None:
        """Flip one bit of a checked output and require that it is caught
        both by the full check and by the bit-for-bit comparison."""
        op = next((o for o in self.ops if o.name in self.verified), None)
        if op is None:
            return
        raw = op.output.read_bytes()
        try:
            op.output.write_bytes(flip_one_bit(op, raw))
            flipped = read_output(op)
            caught = flipped.digest != self.verified[op.name] \
                and self.wl.verify(self.lib, op, flipped) is not None
        finally:
            op.output.write_bytes(raw)
        if not caught:
            self.problems.append(f"self-test: a flipped output bit in {op.name} went unnoticed")


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (SRC / "iterl2norm" / "__init__.py").is_file():
        print(f"no iterl2norm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    workdir = OUT / f"work-{wl.name}"

    lib, ops, dt = set_up(wl, args.seed, workdir)
    setup_samples = [dt]
    if not Path(lib.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"iterl2norm was imported from {lib.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    runner = Runner(lib, wl, ops)
    tracer = Tracer() if args.trace else None
    untraced: list[float] = []
    traced: list[float] = []
    traced_stats: list[dict] = []
    start = time.perf_counter()
    n_pass = 0
    while n_pass < MIN_PASSES or time.perf_counter() < start + args.seconds:
        if n_pass and time.perf_counter() >= start + len(setup_samples) * args.seconds / SETUP_REPEATS \
                and len(setup_samples) < SETUP_REPEATS:
            # Later set-ups rewrite the same inputs; the passes switch to
            # the freshly imported modules.
            runner.lib, _, dt = set_up(wl, args.seed, workdir)
            setup_samples.append(dt)
            runner.reference.append(reference_seconds())
        # With --trace 1, odd passes are traced; pass 0 is the checked warm-up.
        if tracer is not None and n_pass % 2 == 1:
            tracer.reset()
            traced.append(runner.run_pass(tracer))
            traced_stats.append(snapshot(tracer))
        else:
            dt = runner.run_pass()
            if n_pass:
                untraced.append(dt)
        if n_pass == 0:
            runner.self_test()
        n_pass += 1

    while len(setup_samples) < SETUP_REPEATS:
        runner.lib, _, dt = set_up(wl, args.seed, workdir)
        setup_samples.append(dt)
        runner.reference.append(reference_seconds())
    scale = host_scale(runner.reference)
    lib = runner.lib
    outs = runner.first
    quality = wl.quality(lib, ops, outs) if len(runner.verified) == len(ops) else None
    if quality is None:
        runner.problems.append("some first-pass outputs failed their check")
    digest = pass_digest(ops, runner.verified)
    check_recorded_digest(args, wl.name, digest, runner.problems)
    elements = sum(op.elements for op in ops)
    vectors = sum(op.vectors for op in ops)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_samples) * scale, "s"),
            "throughput_melem_s": (elements / statistics.fmean(untraced) / scale / 1e6,
                                   "Melem/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "success_rate": (1.0 - len(runner.failures) / runner.attempted, "frac"),
        }
        if quality is not None:
            for k in ("avg_abs_err", "row_max_abs_err"):
                metrics[k] = (quality[k], "1")
            metrics["modeled_cycles_per_vector"] = (quality["modeled_cycles_per_vector"],
                                                    "cycles")
        counts: dict = {}
        timings: dict = {}
    else:
        counts = traced_stats[0]["counts"]
        for i, st in enumerate(traced_stats[1:], start=2):
            if st["counts"] != counts:
                runner.problems.append(f"trace counts of traced pass {i} differ from pass 1")
        timings = {f"{layer}.self_s": [st["self_s"][layer] for st in traced_stats]
                   for layer in LAYERS}
        metrics = {k: (statistics.median(v) * scale, "s") for k, v in timings.items()}
        metrics.update(layer_counts(counts, vectors, quality))
        metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced)
                                          - 1.0, "frac")
        if counts["rows_normalized"] != vectors:
            runner.problems.append(f"traced pass normalized {counts['rows_normalized']} rows, "
                                   f"the workload has {vectors}")

    correct = not runner.failures and not runner.problems
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    context = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "passes": n_pass,
        "elements_per_pass": elements,
        "vectors_per_pass": vectors,
        "output_digest": digest,
        "quality": quality,
        "host_scale": scale,
        "reference_s_samples": runner.reference,
        "setup_s_samples": setup_samples,
        "pass_s_untraced": untraced,
        "pass_s_traced": traced,
        "counts": counts,
        "timings": timings,
        "failures": runner.failures[:20],
        "problems": runner.problems,
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    result_file = OUT / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({"context": context, "result": result}, indent=1) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


def snapshot(tracer: Tracer) -> dict:
    """Counts (which must repeat exactly) and self times of one traced pass."""
    counts = {f"{layer}.calls": st.calls for layer, st in tracer.stats.items()}
    counts.update(tracer.counts)
    counts["steps_histogram"] = dict(sorted(tracer.steps_hist.items()))
    counts["rows_normalized"] = (tracer.counts["norm_core.normalize_batch.rows"]
                                 + tracer.counts["baselines.fisr_batch.rows"]
                                 + tracer.stats["norm_core.layernorm_iterl2"].calls)
    return {"counts": counts, "self_s": {layer: st.self_s for layer, st in tracer.stats.items()}}


def layer_counts(counts: dict, vectors: int, quality: dict | None) -> dict:
    hist = counts["steps_histogram"]
    iterated = sum(hist.values())
    out = {
        "fpformat.round_array.calls_per_vector": counts["fpformat.round_array.calls"] / vectors,
        "fpformat.round_array.elements": counts["fpformat.round_array.elements"],
        "fpformat.tree_sum_values.calls": counts["fpformat.tree_sum_values.calls"],
        "norm_core.layernorm_iterl2.calls": counts["norm_core.layernorm_iterl2.calls"],
        "norm_core.normalize_batch.calls": counts["norm_core.normalize_batch.calls"],
        "norm_core.steps_per_vector": sum(k * v for k, v in hist.items()) / iterated,
        "norm_core.not_converged_rows": counts["norm_core.not_converged_rows"],
        "vecio.bytes_read": counts["vecio.bytes_read"],
        "vecio.bytes_written": counts["vecio.bytes_written"],
    }
    metrics = {k: (v, "B" if k.startswith("vecio.bytes") else "count") for k, v in out.items()}
    if quality is not None:
        for phase, c in quality["cycles"].items():
            metrics[f"latency.cycles.{phase}"] = (c, "cycles")
    return metrics


def pass_digest(ops, verified: dict[str, str]) -> str | None:
    if len(verified) != len(ops):
        return None
    return hashlib.sha256("".join(verified[op.name] for op in ops).encode()).hexdigest()


def check_recorded_digest(args, name: str, digest: str | None, problems: list[str]) -> None:
    """At the recorded seed, the outputs must match the recorded digest."""
    recorded = json.loads(DIGESTS.read_text())
    if args.seed == recorded["seed"] and name in recorded["digests"] \
            and digest != recorded["digests"][name]:
        problems.append(f"output digest {digest} differs from the one recorded for "
                        f"seed {recorded['seed']}")


if __name__ == "__main__":
    raise SystemExit(main())
