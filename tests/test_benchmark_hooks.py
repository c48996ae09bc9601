"""The benchmark in perfbench/ traces the package by function name: it wraps
`norm_core.normalize_batch`, `baselines.fisr_batch`,
`baselines.reference_batch`, `vecio.read_vectors`, every function the
`experiments` module defines and the `ErrorStats.from_errors` classmethod.
A rename or a call path that bypasses one of them would leave a layer of the
benchmark reading zero; this test runs the CLI under the unmodified tracer
and requires every one of those layers to record calls."""

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
    inp = tmp_path / "v.txt"
    write_vectors(inp, [np.array([1.0, 2.0, 3.0, 4.0])], FP32, binary=False)
    small = ["--format", "fp32", "--dims", "16", "--num-vectors", "4"]
    main = cli.main
    tracer = load_tracer()()
    tracer.install()
    try:
        assert cli.main(["precision", *small, "--out", str(tmp_path / "p.csv")]) == 0
        assert cli.main(["compare-fisr", *small, "--out", str(tmp_path / "f.csv")]) == 0
        assert cli.main(["normalize", "--input", str(inp), "--out", str(tmp_path / "z")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert cli.main is main
    assert {layer: tracer.stats[layer].calls > 0 for layer in LAYERS} \
        == dict.fromkeys(LAYERS, True)
