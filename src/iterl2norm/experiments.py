"""Benchmark experiments: precision sweeps, convergence curves, FISR
comparison tables, latency curves, and file normalization.  All experiment
output is CSV with a header comment block recording the run parameters and
seed.

Reproducibility: vectors come from numpy's Philox generator, keyed by
SeedSequence(seed, spawn_key=(kind, format, d)).  Identical (spec, seed)
pairs produce byte-identical CSV.  Inputs are drawn in binary64 and rounded
to the target format before both pipelines, so the method under test and
the reference oracle see bit-identical inputs.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import FisrSpec, fisr_batch, reference_batch
from .errors import DataFormatError, UsageError
from .fpformat import FORMATS, FormatSpec, round_array
from .latency import MacroGeometry, StageCosts, PHASES, estimate_cycles
from .norm_core import (
    DEFAULT_STEPS,
    FixedSteps,
    NormConfig,
    Threshold,
    normalize_batch,
)
from .vecio import read_vectors, write_vectors

__all__ = [
    "ExperimentSpec",
    "ErrorStats",
    "ExperimentResult",
    "NormalizeSummary",
    "PRECISION_DIMS",
    "OPT_DIMS",
    "LATENCY_DIMS",
    "CONVERGENCE_STEPS",
    "run_precision",
    "run_convergence",
    "run_compare_fisr",
    "run_latency",
    "run_normalize",
    "write_csv",
    "csv_text",
]

PRECISION_DIMS = (64, 128, 256, 512, 1024)
# Embedding lengths of the OPT model family.
OPT_DIMS = (768, 1024, 2048, 2560, 4096, 5120, 7168, 9216, 12288)
LATENCY_DIMS = tuple(range(64, 1025, 64))
CONVERGENCE_STEPS = tuple(range(1, 11))

KINDS = ("precision", "convergence", "compare-fisr", "latency", "normalize")
_KIND_IDS = {k: i for i, k in enumerate(KINDS)}
_FORMAT_IDS = {"fp32": 0, "fp16": 1, "bf16": 2}
RNG_NAME = "philox"


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    formats: tuple[str, ...] = ("fp32", "fp16", "bf16")
    dims: tuple[int, ...] = ()
    num_vectors: int = 1000
    seed: int = 0
    steps: tuple[int, ...] = (DEFAULT_STEPS,)
    lambda_override: float | None = None
    delta_max: float | None = None
    input_path: str | None = None
    output_path: str | None = None
    stage_costs: StageCosts = field(default_factory=StageCosts)
    fisr_newton_iters: int = 1
    fisr_magic: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise UsageError(f"unknown experiment kind {self.kind!r}")
        for f in self.formats:
            if f not in FORMATS:
                raise UsageError(f"unknown format {f!r}")
        if self.num_vectors < 1:
            raise UsageError("num_vectors must be >= 1")
        if any(d < 1 for d in self.dims):
            raise UsageError("dims must all be >= 1")
        if any(s < 0 for s in self.steps):
            raise UsageError("steps must be >= 0")
        if self.delta_max is not None and self.kind != "normalize":
            raise UsageError("--delta-max applies to `normalize` only; "
                             "batch experiments run a fixed step count")
        if len(self.steps) > 1 and self.kind != "convergence":
            raise UsageError("a steps sweep applies to `convergence` only")
        if not self.dims:
            object.__setattr__(self, "dims", _default_dims(self.kind))
        if self.kind == "convergence":
            if len(self.dims) > 1:
                raise UsageError("convergence sweeps steps at one fixed d")
            if self.steps == (DEFAULT_STEPS,):
                object.__setattr__(self, "steps", CONVERGENCE_STEPS)

    def norm_config(self, steps: int) -> NormConfig:
        return NormConfig(stopping=FixedSteps(steps), lambda_override=self.lambda_override)


def _default_dims(kind: str) -> tuple[int, ...]:
    if kind == "compare-fisr":
        return OPT_DIMS
    if kind == "latency":
        return LATENCY_DIMS
    if kind == "convergence":
        return (1024,)
    return PRECISION_DIMS


@dataclass(frozen=True)
class ErrorStats:
    """Aggregate absolute-error statistics with a decade histogram."""

    avg_abs_err: float
    max_abs_err: float
    histogram: tuple[int, ...]      # counts, lowest decade first
    bucket_edges: tuple[float, ...]  # ascending upper edges; last is the range top

    @classmethod
    def from_errors(cls, errs: np.ndarray, n_decades: int = 8,
                    top: float | None = None) -> "ErrorStats":
        flat = np.asarray(errs, dtype=np.float64).ravel()
        avg = float(flat.mean())
        mx = float(flat.max())
        top = mx if top is None else float(top)
        if top <= 0.0:
            top = 1.0  # all-zero errors: any positive range works
        edges = tuple(top * 10.0 ** (k - n_decades + 1) for k in range(n_decades))
        # bucket k holds edges[k-1] < e <= edges[k]; NaN and everything above
        # the second-highest edge land in the top bucket
        at_most = [np.count_nonzero(flat <= e) for e in edges[:-1]]
        counts = np.diff([0, *at_most, flat.size])
        return cls(avg, mx, tuple(int(c) for c in counts), edges)

    def top_decade_fraction(self) -> float:
        total = sum(self.histogram)
        return self.histogram[-1] / total if total else 0.0


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    columns: tuple[str, ...]
    rows: list[tuple]
    stats: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class NormalizeSummary:
    count: int
    output_path: str
    sidecar_path: str


def _rng(spec: ExperimentSpec, fmt_name: str, d: int) -> np.random.Generator:
    key = (_KIND_IDS[spec.kind], _FORMAT_IDS[fmt_name], d)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed, spawn_key=key)))


def _draw_inputs(spec: ExperimentSpec, fmt: FormatSpec, d: int) -> np.ndarray:
    rng = _rng(spec, fmt.name, d)
    return round_array(rng.uniform(-1.0, 1.0, size=(spec.num_vectors, d)), fmt)


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def run_precision(spec: ExperimentSpec) -> ExperimentResult:
    """Error of the iterative pipeline against the binary64 reference for
    each (format, d); gamma = 1, beta = 0."""
    result = ExperimentResult(spec, ("format", "d", "avg_abs_err", "max_abs_err"), [])
    steps = spec.steps[0]
    for name in spec.formats:
        fmt = FORMATS[name]
        for d in spec.dims:
            x = _draw_inputs(spec, fmt, d)
            out = normalize_batch(fmt, x, config=spec.norm_config(steps))
            ref = reference_batch(fmt, x)
            errs = np.abs(out.z - ref)
            st = ErrorStats.from_errors(errs)
            result.stats[(name, d)] = st
            result.rows.append((name, d, st.avg_abs_err, st.max_abs_err))
    return result


def run_convergence(spec: ExperimentSpec) -> ExperimentResult:
    """Average error versus iteration step count at fixed d (default 1024).
    The same input batch is reused across step counts."""
    result = ExperimentResult(spec, ("format", "steps", "avg_abs_err"), [])
    d = spec.dims[0]
    for name in spec.formats:
        fmt = FORMATS[name]
        x = _draw_inputs(spec, fmt, d)
        ref = reference_batch(fmt, x)
        for steps in spec.steps:
            out = normalize_batch(fmt, x, config=spec.norm_config(steps))
            errs = np.abs(out.z - ref)
            st = ErrorStats.from_errors(errs)
            result.stats[(name, steps)] = st
            result.rows.append((name, steps, st.avg_abs_err))
    return result


def run_compare_fisr(spec: ExperimentSpec) -> ExperimentResult:
    """Paired error table: the iterative method versus FISR on identical
    vectors.  FP32 and BFloat16 only (FISR needs an 8-bit exponent)."""
    bad = [f for f in spec.formats if FORMATS[f].exp_bits != 8]
    if bad:
        raise UsageError(f"FISR comparison supports fp32/bf16 only (8-bit exponent); got {bad}")
    result = ExperimentResult(
        spec, ("format", "d", "method", "avg_abs_err", "max_abs_err"), [])
    steps = spec.steps[0]
    for name in spec.formats:
        fmt = FORMATS[name]
        fspec = FisrSpec(format=fmt, magic=spec.fisr_magic.get(name),
                         newton_iters=spec.fisr_newton_iters)
        for d in spec.dims:
            x = _draw_inputs(spec, fmt, d)
            ref = reference_batch(fmt, x)
            out_iter = normalize_batch(fmt, x, config=spec.norm_config(steps))
            out_fisr = fisr_batch(fmt, x, spec=fspec)
            st_iter = ErrorStats.from_errors(np.abs(out_iter.z - ref))
            st_fisr = ErrorStats.from_errors(np.abs(out_fisr.z - ref))
            result.stats[(name, d, "iterl2norm")] = st_iter
            result.stats[(name, d, "fisr")] = st_fisr
            result.rows.append((name, d, "iterl2norm", st_iter.avg_abs_err, st_iter.max_abs_err))
            result.rows.append((name, d, "fisr", st_fisr.avg_abs_err, st_fisr.max_abs_err))
            # Document the update-rate sensitivity: the iterative error is
            # driven by where ||y||^2 lands inside its binade.
            live_m = out_iter.m[out_iter.m > 0]
            sig = float(np.mean(2.0 * np.frexp(live_m)[0])) if live_m.size else math.nan
            result.notes.append(
                f"lambda_sensitivity format={name} d={d} mean_significand={sig:.4f}")
    result.notes.append(
        "lambda_sensitivity: iterl2norm rows depend on the default update rate "
        "2^-(E(m)-bias+1); pass --lambda to sweep alternatives")
    return result


def run_latency(spec: ExperimentSpec) -> ExperimentResult:
    """Cycle counts from the macro model, one row per d."""
    geom = MacroGeometry()
    result = ExperimentResult(
        spec, ("d", "total_cycles") + tuple(f"cycles_{p}" for p in PHASES), [])
    steps = spec.steps[0]
    for d in spec.dims:
        rep = estimate_cycles(d, steps, geom, spec.stage_costs)
        result.rows.append((d, rep.total) + tuple(rep.per_phase[p] for p in PHASES))
    return result


def run_normalize(spec: ExperimentSpec, gamma_path: str | None = None,
                  beta_path: str | None = None) -> NormalizeSummary:
    """Normalize vectors from a file; write outputs plus a JSON-lines
    diagnostics sidecar (m, a-trajectory, steps, converged) per vector.

    Vectors, gamma and beta are rounded to the format; all vectors of one
    length go through `normalize_batch` together.  Every parameter length is
    checked before anything is computed."""
    if not spec.input_path or not spec.output_path:
        raise UsageError("normalize needs --input and --out paths")
    vectors, file_fmt = read_vectors(spec.input_path)
    if file_fmt is not None and spec.formats and FORMATS[spec.formats[0]] != file_fmt:
        raise UsageError(
            f"--format {spec.formats[0]} conflicts with the binary header "
            f"({file_fmt.name}); drop the flag or re-encode")
    fmt = file_fmt or (FORMATS[spec.formats[0]] if spec.formats else FORMATS["fp32"])
    gammas = _read_params(gamma_path, len(vectors)) if gamma_path else None
    betas = _read_params(beta_path, len(vectors)) if beta_path else None

    for params, label in ((gammas, "gamma"), (betas, "beta")):
        if params is None:
            continue
        for i, vec in enumerate(vectors):
            p = params[i % len(params)]
            if len(p) != len(vec):
                raise DataFormatError(f"vector {i}: {label} length {len(p)} != d {len(vec)}")

    if spec.delta_max is not None:
        config = NormConfig(stopping=Threshold(spec.delta_max),
                            lambda_override=spec.lambda_override)
    else:
        config = spec.norm_config(spec.steps[0])

    # One batch per vector length; outputs and sidecar keep the file order.
    rows_by_d: dict[int, list[int]] = {}
    for i, vec in enumerate(vectors):
        rows_by_d.setdefault(len(vec), []).append(i)
    outputs: list = [None] * len(vectors)
    meta: list = [None] * len(vectors)
    for d, rows in rows_by_d.items():
        x = round_array(np.array([vectors[i] for i in rows]), fmt)
        res = normalize_batch(fmt, x, _group_params(gammas, rows, fmt),
                              _group_params(betas, rows, fmt), config)
        for j, i in enumerate(rows):
            r = res.row(j)
            outputs[i] = r.z
            meta[i] = {"index": i, "d": d, "mean": r.mean, "m": r.m,
                       "a_trajectory": list(r.a_trajectory), "steps": r.steps_taken,
                       "converged": r.converged}

    write_vectors(spec.output_path, outputs, fmt, binary=file_fmt is not None)
    sidecar = str(spec.output_path) + ".meta.jsonl"
    with open(sidecar, "w") as fh:
        for entry in meta:
            fh.write(json.dumps(entry) + "\n")
    return NormalizeSummary(len(outputs), str(spec.output_path), sidecar)


def _group_params(params: list[np.ndarray] | None, rows: list[int],
                  fmt: FormatSpec) -> np.ndarray | None:
    """gamma or beta for the given rows, rounded to the format: the file's one
    vector, shape (d,), or the rows' own vectors, shape (len(rows), d)."""
    if params is None:
        return None
    if len(params) == 1:
        return round_array(params[0], fmt)
    return round_array(np.array([params[i] for i in rows]), fmt)


def _read_params(path: str, n_vectors: int) -> list[np.ndarray]:
    params, _ = read_vectors(path)
    if len(params) not in (1, n_vectors):
        raise DataFormatError(
            f"{path}: expected 1 or {n_vectors} parameter vectors, found {len(params)}")
    return params


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.9e}"
    return str(v)


def csv_text(result: ExperimentResult) -> str:
    """Render an experiment result as CSV with a reproducibility header."""
    spec = result.spec
    buf = io.StringIO()
    buf.write(f"# iterl2norm v{__version__} {spec.kind}\n")
    buf.write(f"# seed={spec.seed} rng={RNG_NAME} "
              f"(SeedSequence spawn_key=(kind,format,d))\n")
    lam = "default" if spec.lambda_override is None else f"{spec.lambda_override!r}"
    buf.write(f"# formats={','.join(spec.formats)} dims={','.join(map(str, spec.dims))} "
              f"num_vectors={spec.num_vectors} steps={','.join(map(str, spec.steps))} "
              f"lambda={lam}\n")
    for note in result.notes:
        buf.write(f"# {note}\n")
    buf.write(",".join(result.columns) + "\n")
    for row in result.rows:
        buf.write(",".join(_fmt_cell(v) for v in row) + "\n")
    return buf.getvalue()


def write_csv(result: ExperimentResult, path: str | Path | None) -> str:
    """Write CSV to `path` (or return it for stdout when path is None)."""
    text = csv_text(result)
    if path is not None:
        Path(path).write_text(text)
    return text
