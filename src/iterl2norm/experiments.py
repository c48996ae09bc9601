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
from collections import namedtuple
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from . import __version__
from .baselines import _DEFAULT_MAGIC, checked_fisr_magic, fisr_batch, reference_batch
from .errors import DataFormatError, RangeOverflowError, UsageError, check_integers, check_lambda
from .fpformat import FORMATS, FormatSpec, round_array
from .latency import PHASES, StageCosts, estimate_cycles
from .norm_core import (
    DEFAULT_STEPS,
    Buffers,
    NormConfig,
    normalize_batches,
    normalize_steps,
    shift_batch,
    shift_batches,
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


class ExperimentSpec(namedtuple(
        "ExperimentSpec", "kind formats dims num_vectors seed steps lambda_override "
        "stage_costs fisr_newton_iters fisr_magic",
        defaults=((), (), 1000, 0, (), None, StageCosts(), 1, ()))):
    """One experiment run; `formats`, `dims` and `steps` left empty take the
    kind's defaults.  `fisr_magic`, the FISR constants that replace a
    format's default, is given as a mapping or as (format name, constant)
    pairs and stored as those pairs, sorted, so that a spec hashes."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in KINDS:
            raise UsageError(f"unknown experiment kind {self.kind!r}")
        # `_replace` skips `__new__`: it only stores the sequences as tuples
        # (a numpy array compares element by element, and has no truth
        # value when longer than one) and fills the defaults, before the checks
        filled = {}
        for name, default in zip(("formats", "dims", "steps"), _DEFAULTS[self.kind]):
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Iterable):
                raise UsageError(f"{name} must be a sequence, not {value!r}")
            filled[name] = tuple(value) or default
        try:
            magic = dict(self.fisr_magic or ())
            filled["fisr_magic"] = tuple(sorted(magic.items()))
        except (TypeError, ValueError) as exc:
            raise UsageError(f"fisr_magic must map format names to constants, not "
                             f"{self.fisr_magic!r}") from exc
        self = self._replace(**filled)
        for f in self.formats:
            if f not in FORMATS:
                raise UsageError(f"unknown format {f!r}")
        check_integers("num_vectors", self.num_vectors, at_least=1)
        check_integers("dims", *self.dims, at_least=1)
        check_integers("seed", self.seed, at_least=0)
        check_integers("steps", *self.steps, at_least=0)
        if len(self.steps) > 1 and self.kind != "convergence":
            raise UsageError("a steps sweep applies to `convergence` only")
        if self.kind == "convergence" and len(self.dims) > 1:
            raise UsageError("convergence sweeps steps at one fixed d")
        check_lambda(self.lambda_override)
        if self.kind == "compare-fisr":
            for f in self.formats:
                checked_fisr_magic(FORMATS[f], magic.get(f), self.fisr_newton_iters)
        return self

    def magic(self, fmt_name: str) -> int | None:
        """The FISR constant given for the format, or None (its default)."""
        return dict(self.fisr_magic).get(fmt_name)


class ErrorStats(NamedTuple):
    """Mean and maximum absolute error."""

    avg_abs_err: float
    max_abs_err: float

    @classmethod
    def from_errors(cls, errs: np.ndarray) -> "ErrorStats":
        flat = np.asarray(errs, dtype=np.float64).ravel()
        return cls(float(flat.mean()), float(flat.max()))


class ExperimentResult(NamedTuple):
    spec: ExperimentSpec
    columns: tuple[str, ...]
    rows: list[tuple]
    notes: tuple[str, ...] | list[str] = ()


class NormalizeSummary(NamedTuple):
    count: int
    out_path: str
    sidecar_path: str


def _rng(spec: ExperimentSpec, fmt_name: str, d: int) -> np.random.Generator:
    key = (_KIND_IDS[spec.kind], _FORMAT_IDS[fmt_name], d)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed, spawn_key=key)))


def _inputs(u: np.ndarray, fmt: FormatSpec) -> np.ndarray:
    """A batch's inputs from its Philox doubles `u`, in place: uniform on
    [-1, 1) in binary64, rounded to the format.  Bit for bit
    `uniform(-1.0, 1.0)`, which computes -1 + 2*u from the same doubles u,
    and 2*u is exact."""
    u *= 2.0
    u -= 1.0
    return round_array(u, fmt, out=u)


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
    time (steps is None for FISR).

    The draw of the next batch overlaps the arithmetic of this one: while
    the caller's thread computes batch k, one worker thread fills batch
    k+1's Philox doubles.  The worker runs numpy's `Generator.random` and
    nothing else, which releases the interpreter lock; the generator is
    built here, and the scaling and rounding of the doubles (`_inputs`)
    run here too, so no function of the package runs on the worker (a
    tracer that rebinds them keeps one span stack).  An exception of the
    worker's draw is raised here, and the worker is joined when the loop
    ends, fails, or is closed.

    Every batch of a call writes into one set of `Buffers`, sized for the
    largest batch (num_vectors x max(dims)); each batch uses views of their
    first n*d elements: its draw (which then takes each run's errors), the
    reference "ref", and the vector stages "x32" and "y" (see
    `shift_batch`).  The draws alternate between "x0" and "x1", so the
    worker never writes into the batch being computed.  Each yielded
    result owns its arrays."""
    # the thread pool loads `logging`: imported where an error table runs,
    # not with the CLI
    from concurrent.futures import ThreadPoolExecutor

    buffers = Buffers(spec.num_vectors * max(spec.dims))
    batches = [(name, d) for name in spec.formats for d in spec.dims]

    def draw(k: int):
        """Start filling batch k's draw buffer on the worker."""
        name, d = batches[k]
        u = buffers.take(f"x{k % 2}", (spec.num_vectors, d), np.float64)
        return worker.submit(_rng(spec, name, d).random, out=u)

    with ThreadPoolExecutor(max_workers=1) as worker:
        drawn = draw(0)
        for k, (name, d) in enumerate(batches):
            u = drawn.result()
            if k + 1 < len(batches):
                drawn = draw(k + 1)
            fmt = FORMATS[name]
            x = _inputs(u, fmt)
            ref = reference_batch(fmt, x, out=buffers.take("ref", x.shape, np.float64))
            shifted = shift_batch(fmt, x, buffers)
            err = x  # the draw is not read again: its buffer takes each run's errors
            runs = normalize_steps(fmt, shifted, spec.steps, spec.lambda_override)
            for steps, out in zip(spec.steps, runs):
                yield name, d, steps, "iterl2norm", out, _error_stats(out.z, ref, err)
            if spec.kind == "compare-fisr":
                out = fisr_batch(fmt, shifted, magic=spec.magic(name),
                                 newton_iters=spec.fisr_newton_iters)
                yield name, d, None, "fisr", out, _error_stats(out.z, ref, err)


def _error_stats(z: np.ndarray, ref: np.ndarray, err: np.ndarray) -> ErrorStats:
    """ErrorStats of |z - ref|, computed in `err`, a float64 array of their
    shape that the caller reuses for every run of one batch: the largest
    batches are several MB.  The float32 `z` is widened exactly into `err`
    by one copy, and the binary64 `ref` subtracted there: numpy's
    mixed-dtype subtract is slower than the two same-dtype passes."""
    np.copyto(err, z)
    err -= ref
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
    result = ExperimentResult(
        spec, ("format", "d", "method", "avg_abs_err", "max_abs_err"), [], [])
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
    holds them (a text file's rows by one rounding); the vectors of one
    length form one batch, `shift_batches` runs the vector stages of every
    batch in one pass, and `normalize_batches` solves for `a` once over
    every batch of the file.
    Every parameter length is checked before anything is computed; a NaN or
    infinite gamma or beta value is a data error.  A non-finite input value
    (a data error), and a finite value that rounds to infinity, a sum, a
    mean-shifted value or a squared norm that overflows the format (range
    errors, named by `shift_batches`), name the first such vector of the
    file, the data error first.  An output or sidecar
    file that cannot be written is a data error, and leaves no output
    behind: the `<out>` this run opened is removed if it is a regular file."""
    vectors, file_fmt = read_vectors(in_path)
    if file_fmt is not None and fmt_name and FORMATS[fmt_name] != file_fmt:
        raise UsageError(
            f"--format {fmt_name} conflicts with the binary header "
            f"({file_fmt.name}); drop the flag or re-encode")
    fmt = file_fmt or FORMATS[fmt_name or "fp32"]
    gammas = _read_params(gamma_path, len(vectors), fmt) if gamma_path else None
    betas = _read_params(beta_path, len(vectors), fmt) if beta_path else None

    lengths = _lengths(vectors)
    for params, label in ((gammas, "gamma"), (betas, "beta")):
        if params is None:
            continue
        # one parameter vector for all rows, or one per row
        bad = np.flatnonzero(_lengths(params) != lengths)
        if bad.size:
            i = int(bad[0])
            raise DataFormatError(f"vector {i}: {label} length "
                                  f"{len(params[i % len(params)])} != d {lengths[i]}")

    # One batch per vector length, whose vector stages run in one pass, and
    # one solve for the whole file; outputs and sidecar keep the file order.
    # A file of one length (every binary file) is its own batch, and its
    # outputs are that batch's array.
    groups = _rows_by_length(lengths)
    single = len(groups) == 1
    xs = [vectors] if file_fmt is not None else _rounded_batches(vectors, groups, fmt)
    try:
        shifted = shift_batches(fmt, xs)
    except RangeOverflowError as exc:
        # every row with a NaN or infinite value fails, so the file's first
        # such row is the data error to report; else the first failed row
        # (of each batch's first, and the stage that overflowed) is the
        # range error
        _check_finite(vectors)
        row, what = min((groups[g][r], message) for g, r, message in exc.failures)
        raise RangeOverflowError(f"vector {row}: {what}") from None
    parts = []
    for rows, sh in zip(groups, shifted):
        # a shared gamma or beta is its one (d,) vector; per-row ones are stacked
        gamma, beta = (None if p is None else p[0] if len(p) == 1 else
                       np.array([p[i] for i in rows]) for p in (gammas, betas))
        parts.append((sh, gamma, beta))
    batches = list(zip(groups, normalize_batches(fmt, parts, config), strict=True))
    # the results hold no shifted batch: free them, the rounded rows, and a
    # re-stacked gamma or beta, before writing
    del parts, shifted, xs, gamma, beta
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


def _lengths(vectors: np.ndarray | list[np.ndarray]) -> np.ndarray:
    """The length of each vector: of an (n, d) array, d for every row."""
    if isinstance(vectors, np.ndarray):
        return np.full(len(vectors), vectors.shape[1])
    return np.fromiter(map(len, vectors), dtype=np.int64, count=len(vectors))


def _rows_by_length(lengths: np.ndarray) -> list[list[int]]:
    """The file indices of the rows of each distinct length, in file order,
    one list per length in the order of the lengths' first rows."""
    order = np.argsort(lengths, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1)
    return sorted((g.tolist() for g in groups), key=lambda rows: rows[0])


def _rounded_batches(vectors: list[np.ndarray], groups: list[list[int]],
                     fmt: FormatSpec) -> list[np.ndarray]:
    """The text rows of each batch (the file indices of `groups`) as one
    (n, d) array, rounded to the format: views of one array of every row in
    batch order, rounded at once."""
    flat = np.concatenate([vectors[i] for rows in groups for i in rows])
    round_array(flat, fmt, out=flat)
    ends = np.cumsum([len(rows) * len(vectors[rows[0]]) for rows in groups])
    return [x.reshape(len(rows), -1) for rows, x in zip(groups, np.split(flat, ends[:-1]))]


def _check_finite(vectors: np.ndarray | list[np.ndarray], where: str = "") -> None:
    """A NaN or infinite value is a data error naming the first vector that
    holds one, after the prefix `where`."""
    finite = np.isfinite(np.concatenate(vectors))
    if not finite.all():
        i = int(np.searchsorted(np.cumsum(_lengths(vectors)), np.argmin(finite), side="right"))
        raise DataFormatError(f"{where}vector {i}: non-finite value")


def _read_params(path: str, n_vectors: int, fmt: FormatSpec) -> list[np.ndarray]:
    """gamma or beta vectors from `path`, rounded to the format unless a
    binary file of the format holds them; a value that is NaN or infinite
    in the format is a data error naming the first such vector."""
    params, file_fmt = read_vectors(path)
    if len(params) not in (1, n_vectors):
        raise DataFormatError(
            f"{path}: expected 1 or {n_vectors} parameter vectors, found {len(params)}")
    if file_fmt != fmt:
        params = np.split(round_array(np.concatenate(params), fmt),
                          np.cumsum(_lengths(params))[:-1])
    _check_finite(params, f"{path}: ")
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
        changed = {name: v for name, v in zip(costs._fields, costs)
                   if v != costs._field_defaults[name]}
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
            fisr |= {f"{name}_magic": f"{spec.magic(name):#x}"
                     for name, magic in _DEFAULT_MAGIC.items()
                     if spec.magic(name) not in (None, magic)}
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
