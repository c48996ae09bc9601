"""Benchmark experiments (precision sweeps, convergence curves, FISR
comparison tables, latency curves) and file normalization.  All experiment
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
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import _DEFAULT_MAGIC, fisr_batch, reference_batch
from .errors import DataFormatError, RangeOverflowError, UsageError
from .fpformat import FORMATS, FormatSpec, round_array
from .latency import PHASES, StageCosts, estimate_cycles
from .norm_core import (
    DEFAULT_STEPS,
    NormConfig,
    normalize_batches,
    normalize_steps,
    shift_batch,
)
from .vecio import read_vectors, remove_output, write_file, write_sidecar, write_vectors

PRECISION_DIMS = (64, 128, 256, 512, 1024)
# Embedding lengths of the OPT model family.
OPT_DIMS = (768, 1024, 2048, 2560, 4096, 5120, 7168, 9216, 12288)
LATENCY_DIMS = tuple(range(64, 1025, 64))
CONVERGENCE_STEPS = tuple(range(1, 11))

_ALL_FORMATS = ("fp32", "fp16", "bf16")
# Per kind, the (formats, dims, steps) a spec gets for the fields it leaves
# empty.  FISR needs an 8-bit exponent; the cycle model has no format.  The
# order fixes the kind ids of the RNG keys.
_DEFAULTS = {
    "precision": (_ALL_FORMATS, PRECISION_DIMS, (DEFAULT_STEPS,)),
    "convergence": (_ALL_FORMATS, (1024,), CONVERGENCE_STEPS),
    "compare-fisr": (("fp32", "bf16"), OPT_DIMS, (DEFAULT_STEPS,)),
    "latency": ((), LATENCY_DIMS, (DEFAULT_STEPS,)),
}
KINDS = tuple(_DEFAULTS)
_KIND_IDS = {k: i for i, k in enumerate(KINDS)}
_FORMAT_IDS = {"fp32": 0, "fp16": 1, "bf16": 2}
RNG_NAME = "philox"


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment run; `formats`, `dims` and `steps` left empty take the
    kind's defaults."""

    kind: str
    formats: tuple[str, ...] = ()
    dims: tuple[int, ...] = ()
    num_vectors: int = 1000
    seed: int = 0
    steps: tuple[int, ...] = ()
    lambda_override: float | None = None
    stage_costs: StageCosts = field(default_factory=StageCosts)
    fisr_newton_iters: int = 1
    fisr_magic: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise UsageError(f"unknown experiment kind {self.kind!r}")
        for name, default in zip(("formats", "dims", "steps"), _DEFAULTS[self.kind]):
            if not getattr(self, name):
                object.__setattr__(self, name, default)
        for f in self.formats:
            if f not in FORMATS:
                raise UsageError(f"unknown format {f!r}")
        if self.num_vectors < 1:
            raise UsageError("num_vectors must be >= 1")
        if any(d < 1 for d in self.dims):
            raise UsageError("dims must all be >= 1")
        if any(s < 0 for s in self.steps):
            raise UsageError("steps must be >= 0")
        if len(self.steps) > 1 and self.kind != "convergence":
            raise UsageError("a steps sweep applies to `convergence` only")
        if self.kind == "convergence" and len(self.dims) > 1:
            raise UsageError("convergence sweeps steps at one fixed d")


@dataclass(frozen=True)
class ErrorStats:
    """Mean and maximum absolute error."""

    avg_abs_err: float
    max_abs_err: float

    @classmethod
    def from_errors(cls, errs: np.ndarray) -> "ErrorStats":
        flat = np.asarray(errs, dtype=np.float64).ravel()
        return cls(float(flat.mean()), float(flat.max()))


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    columns: tuple[str, ...]
    rows: list[tuple]
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class NormalizeSummary:
    count: int
    out_path: str
    sidecar_path: str


def _rng(spec: ExperimentSpec, fmt_name: str, d: int) -> np.random.Generator:
    key = (_KIND_IDS[spec.kind], _FORMAT_IDS[fmt_name], d)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed, spawn_key=key)))


def _draw_inputs(spec: ExperimentSpec, fmt: FormatSpec, d: int) -> np.ndarray:
    x = _rng(spec, fmt.name, d).uniform(-1.0, 1.0, size=(spec.num_vectors, d))
    return round_array(x, fmt, out=x)


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def _error_runs(spec: ExperimentSpec):
    """The error tables' one loop.  For each format and d it draws one batch,
    computes its binary64 reference and its vector stages once, then runs
    the iterative pipeline once, at the largest step count, finishing each
    step count from that trajectory (`normalize_steps`), and, for
    compare-fisr, FISR on those stages; gamma = 1, beta = 0.  Yields
    (format, d, steps, method, BatchNormResult, ErrorStats) one run at a
    time (steps is None for FISR): a run's outputs are dropped once the
    caller moves on."""
    for name in spec.formats:
        fmt = FORMATS[name]
        for d in spec.dims:
            x = _draw_inputs(spec, fmt, d)
            ref = reference_batch(fmt, x)
            shifted = shift_batch(fmt, x)
            err = x  # the draw is not read again: its buffer takes each run's errors
            runs = normalize_steps(fmt, shifted, spec.steps, spec.lambda_override)
            for steps, out in zip(spec.steps, runs):
                yield name, d, steps, "iterl2norm", out, _error_stats(out.z, ref, err)
            if spec.kind == "compare-fisr":
                out = fisr_batch(fmt, shifted, magic=spec.fisr_magic.get(name),
                                 newton_iters=spec.fisr_newton_iters)
                yield name, d, None, "fisr", out, _error_stats(out.z, ref, err)


def _error_stats(z: np.ndarray, ref: np.ndarray, err: np.ndarray) -> ErrorStats:
    """ErrorStats of |z - ref|, computed in `err`, an array of their shape
    that the caller reuses for every run of one batch: the largest batches
    are several MB."""
    np.subtract(z, ref, out=err)
    return ErrorStats.from_errors(np.abs(err, out=err))


def run_precision(spec: ExperimentSpec) -> ExperimentResult:
    """Error of the iterative pipeline against the binary64 reference for
    each (format, d)."""
    return ExperimentResult(spec, ("format", "d", "avg_abs_err", "max_abs_err"), [
        (name, d, st.avg_abs_err, st.max_abs_err) for name, d, _, _, _, st in _error_runs(spec)])


def run_convergence(spec: ExperimentSpec) -> ExperimentResult:
    """Average error versus iteration step count at one d; every step count
    runs on the same input batch."""
    return ExperimentResult(spec, ("format", "steps", "avg_abs_err"), [
        (name, steps, st.avg_abs_err) for name, _, steps, _, _, st in _error_runs(spec)])


def run_compare_fisr(spec: ExperimentSpec) -> ExperimentResult:
    """Paired error table: the iterative method versus FISR on identical
    vectors.  FP32 and BFloat16 only (FISR needs an 8-bit exponent)."""
    bad = [f for f in spec.formats if FORMATS[f].exp_bits != 8]
    if bad:
        raise UsageError(f"FISR comparison supports fp32/bf16 only (8-bit exponent); got {bad}")
    result = ExperimentResult(
        spec, ("format", "d", "method", "avg_abs_err", "max_abs_err"), [])
    for name, d, _, method, out, st in _error_runs(spec):
        result.rows.append((name, d, method, st.avg_abs_err, st.max_abs_err))
        if method == "iterl2norm":
            # Document the update-rate sensitivity: the iterative error is
            # driven by where ||y||^2 lands inside its binade.
            live_m = out.m[out.m > 0]
            sig = float(np.mean(2.0 * np.frexp(live_m)[0])) if live_m.size else math.nan
            result.notes.append(
                f"lambda_sensitivity format={name} d={d} mean_significand={sig:.4f}")
    result.notes.append(
        "lambda_sensitivity: iterl2norm rows depend on the default update rate "
        "2^-(E(m)-bias+1); pass --lambda to sweep alternatives")
    return result


def run_latency(spec: ExperimentSpec) -> ExperimentResult:
    """Cycle counts from the macro model, one row per d."""
    result = ExperimentResult(
        spec, ("d", "total_cycles") + tuple(f"cycles_{p}" for p in PHASES), [])
    steps = spec.steps[0]
    for d in spec.dims:
        rep = estimate_cycles(d, steps, spec.stage_costs)
        result.rows.append((d, rep.total) + tuple(rep.per_phase[p] for p in PHASES))
    return result


def run_normalize(in_path: str, out_path: str, config: NormConfig = NormConfig(),
                  fmt_name: str | None = None, gamma_path: str | None = None,
                  beta_path: str | None = None) -> NormalizeSummary:
    """Normalize the vectors of file `in_path` into `out_path`, plus a
    JSON-lines diagnostics sidecar (m, a-trajectory, steps, converged) per
    vector.

    A binary file names its own format (`fmt_name`, if given, must match
    it); a text file is read as `fmt_name`, default fp32.  Vectors, gamma
    and beta are rounded to the format, unless a binary file of the format
    holds them; the vectors of one length form one batch, and
    `normalize_batches` solves for `a` once over every batch of the file.
    Every parameter length is checked before anything is computed; a NaN or
    infinite gamma or beta value is a data error.  A non-finite input value
    (a data error), and a finite value that rounds to infinity or a squared
    norm that overflows the format (range errors), name the first such
    vector of the file, the data error first.  An output or sidecar file
    that cannot be written is a data error, and leaves no output behind:
    the `<out>` this run opened is removed if it is a regular file."""
    vectors, file_fmt = read_vectors(in_path)
    if file_fmt is not None and fmt_name and FORMATS[fmt_name] != file_fmt:
        raise UsageError(
            f"--format {fmt_name} conflicts with the binary header "
            f"({file_fmt.name}); drop the flag or re-encode")
    fmt = file_fmt or FORMATS[fmt_name or "fp32"]
    gammas = _read_params(gamma_path, len(vectors), fmt) if gamma_path else None
    betas = _read_params(beta_path, len(vectors), fmt) if beta_path else None

    lengths = [len(vec) for vec in vectors]
    for params, label in ((gammas, "gamma"), (betas, "beta")):
        if params is None:
            continue
        for i, d in enumerate(lengths):
            p = params[i % len(params)]
            if len(p) != d:
                raise DataFormatError(f"vector {i}: {label} length {len(p)} != d {d}")

    # One batch per vector length and one solve for the whole file; outputs
    # and sidecar keep the file order.  A file of one length (every binary
    # file) is its own batch, and its outputs are that batch's array.
    rows_by_d: dict[int, list[int]] = {}
    for i, d in enumerate(lengths):
        rows_by_d.setdefault(d, []).append(i)
    groups = list(rows_by_d.values())
    single = len(groups) == 1
    parts, non_finite, overflow = [], [], []
    for rows in groups:
        x = np.asarray(vectors) if single else np.array([vectors[i] for i in rows])
        try:
            shifted = shift_batch(fmt, x if file_fmt is not None else round_array(x, fmt))
        except RangeOverflowError as exc:
            # a NaN or infinite input value also makes its m non-finite, and
            # so does a finite value that rounds to infinity
            finite = np.isfinite(x).all(axis=1)
            if not finite.all():
                non_finite.append(rows[int(np.argmin(finite))])
            elif np.isfinite(round_array(x[exc.row], fmt)).all():
                overflow.append((rows[exc.row], "squared norm overflowed"))
            else:
                overflow.append((rows[exc.row], "value out of range for"))
            continue
        parts.append((shifted, _group_params(gammas, rows), _group_params(betas, rows)))
    if non_finite:
        raise DataFormatError(f"vector {min(non_finite)}: non-finite value")
    if overflow:
        row, what = min(overflow)
        raise RangeOverflowError(f"vector {row}: {what} {fmt.name}")
    batches = list(zip(groups, normalize_batches(fmt, parts, config), strict=True))
    # the results hold no shifted batch: free it, and a re-stacked x, before writing
    del parts, shifted, x
    if single:
        outputs = batches[0][1].z
    else:
        outputs = [None] * len(vectors)
        for rows, res in batches:
            for j, i in enumerate(rows):
                outputs[i] = res.z[j]

    write_vectors(out_path, outputs, fmt, binary=file_fmt is not None)
    sidecar = str(out_path) + ".meta.jsonl"
    try:
        write_sidecar(sidecar, batches)
    except DataFormatError:
        remove_output(out_path)  # a failed run leaves no output behind
        raise
    return NormalizeSummary(len(outputs), str(out_path), sidecar)


def _group_params(params: list[np.ndarray] | None, rows: list[int]) -> np.ndarray | None:
    """gamma or beta for the given rows: the file's one vector, shape (d,),
    or the rows' own vectors, shape (len(rows), d)."""
    if params is None:
        return None
    if len(params) == 1:
        return params[0]
    return np.array([params[i] for i in rows])


def _read_params(path: str, n_vectors: int, fmt: FormatSpec) -> list[np.ndarray]:
    """gamma or beta vectors from `path`, rounded to the format unless a
    binary file of the format holds them; a value that is NaN or infinite
    in the format is a data error naming the first such vector."""
    params, file_fmt = read_vectors(path)
    if len(params) not in (1, n_vectors):
        raise DataFormatError(
            f"{path}: expected 1 or {n_vectors} parameter vectors, found {len(params)}")
    ends = np.cumsum([len(p) for p in params])
    flat = np.concatenate(params)
    if file_fmt != fmt:
        flat = round_array(flat, fmt)
        params = np.split(flat, ends[:-1])
    finite = np.isfinite(flat)
    if not finite.all():
        i = int(np.searchsorted(ends, np.argmin(finite), side="right"))
        raise DataFormatError(f"{path}: vector {i}: non-finite value")
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
    dims, steps = ",".join(map(str, spec.dims)), ",".join(map(str, spec.steps))
    buf.write(f"# iterl2norm v{__version__} {spec.kind} numpy={np.__version__}\n")
    if spec.kind == "latency":
        # the cycle model draws nothing and reads only the lengths, the steps
        # and the stage costs; a default cost is left out of the header
        buf.write(f"# dims={dims} steps={steps}\n")
        costs = spec.stage_costs
        changed = {f.name: getattr(costs, f.name) for f in fields(costs)
                   if getattr(costs, f.name) != f.default}
        if changed:
            buf.write(f"# stage_costs={json.dumps(changed)}\n")
    else:
        buf.write(f"# seed={spec.seed} rng={RNG_NAME} "
                  f"(SeedSequence spawn_key=(kind,format,d))\n")
        lam = "default" if spec.lambda_override is None else f"{spec.lambda_override!r}"
        buf.write(f"# formats={','.join(spec.formats)} dims={dims} "
                  f"num_vectors={spec.num_vectors} steps={steps} lambda={lam}\n")
        if spec.kind == "compare-fisr":
            # each FISR setting that is not the default, as a --config that
            # reproduces the FISR rows
            iters = spec.fisr_newton_iters
            fisr = {} if iters == 1 else {"newton_iters": iters}
            fisr |= {f"{name}_magic": f"{spec.fisr_magic[name]:#x}"
                     for name, magic in _DEFAULT_MAGIC.items()
                     if spec.fisr_magic.get(name, magic) != magic}
            if fisr:
                buf.write(f"# fisr={json.dumps(fisr)}\n")
    for note in result.notes:
        buf.write(f"# {note}\n")
    buf.write(",".join(result.columns) + "\n")
    for row in result.rows:
        buf.write(",".join(_fmt_cell(v) for v in row) + "\n")
    return buf.getvalue()


def write_csv(result: ExperimentResult, path: str | Path | None) -> str:
    """Write CSV to `path` (or return it for stdout when path is None); a
    path that cannot be written is a DataFormatError."""
    text = csv_text(result)
    if path is not None:
        write_file(path, (text.encode(),))
    return text
