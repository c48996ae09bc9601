"""The benchmark in perfbench/ traces the package by function name: it wraps
`norm_core.normalize_batch`, `baselines.fisr_batch`,
`baselines.reference_batch`, `vecio.read_vectors`, every function the
`experiments` module defines and the `ErrorStats.from_errors` classmethod.
A rename or a call path that bypasses one of them would leave a layer of the
benchmark reading zero, and the benchmark checks its row count against the
rows it asked for; this test runs the CLI under the unmodified tracer and
requires every one of those layers to record calls, and every normalized row
to be counted once."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import iterl2norm.cli as cli
from iterl2norm.fpformat import FP32
from iterl2norm.vecio import write_vectors

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
LAYERS = ("experiments", "norm_core.normalize_batch", "baselines.fisr_batch",
          "baselines.reference_batch", "vecio.read_vectors")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_layers_record_calls(tmp_path, capsys):
    # three rows of two lengths: `normalize` solves them in one
    # `normalize_batches` call over two batches
    inp = tmp_path / "v.txt"
    write_vectors(inp, [np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, -1.0]),
                        np.array([4.0, 3.0, 2.0, 0.5])], FP32, binary=False)
    small = ["--format", "fp32", "--dims", "16", "--num-vectors", "4"]
    main = cli.main
    tracer = load_tracer()()
    counters = ("norm_core.normalize_batch.rows", "baselines.fisr_batch.rows")
    rows = []
    tracer.install()
    try:
        for argv in (["precision", *small, "--out", str(tmp_path / "p.csv")],
                     ["compare-fisr", *small, "--out", str(tmp_path / "f.csv")],
                     ["normalize", "--input", str(inp), "--out", str(tmp_path / "z")]):
            before = [tracer.counts[c] for c in counters]
            assert cli.main(argv) == 0
            rows.append([tracer.counts[c] - b for c, b in zip(counters, before)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert cli.main is main
    assert {layer: tracer.stats[layer].calls > 0 for layer in LAYERS} \
        == dict.fromkeys(LAYERS, True)
    # each row a command normalizes is counted once, by the entry point that
    # normalizes it: 4 vectors at one format, length and step count each
    assert rows == [[4, 0], [4, 4], [3, 0]]
