"""The benchmark's workloads: seeded inputs, the CLI calls of one pass, and
the checks on every output.

Each workload writes its inputs into a work directory and describes one
pass as a list of `Op`s, each one `iterl2norm.cli.main` call.  The package
is reached through `lib`, a namespace of its freshly imported modules
(`run.py` re-imports the package for every set-up), so this module imports
nothing from it.  README.md says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FORMAT_TAGS = {"fp32": 0, "fp16": 1, "bf16": 2}
ILN1 = struct.Struct("<4sIII")
STEPS = 5

# file_bin: rows per file, one file per (format, d).
BIN_ROWS = 128
BIN_DIMS = (64, 1024)
BIN_FORMATS = ("fp32", "fp16", "bf16")

# file_text_ragged: every d in RAGGED_DIMS appears RAGGED_REPEAT times per
# file, so the element count is the same for every seed.
RAGGED_DIMS = tuple(range(64, 1025, 64))
RAGGED_REPEAT = 24
RAGGED_DELTA = {"fp32": 1e-6, "bf16": 1e-3}
RAGGED_MAX_STEPS = 50  # norm_core.Threshold's cap

# paper_battery: the four families with the defaults of
# scripts/run_paper_experiments.py spelled out, so the workload does not
# move when a default does.
BATTERY_VECTORS = 64
PRECISION_DIMS = (64, 128, 256, 512, 1024)
OPT_DIMS = (768, 1024, 2048, 2560, 4096, 5120, 7168, 9216, 12288)
LATENCY_DIMS = tuple(range(64, 1025, 64))
CONVERGENCE_STEPS = tuple(range(1, 11))
# The documented input scheme of the experiment CSVs: Philox keyed by
# SeedSequence(seed, spawn_key=(kind, format, d)).
KIND_IDS = {"precision": 0, "convergence": 1, "compare-fisr": 2}


@dataclass
class Op:
    """One CLI call of a pass, with the work it does."""

    name: str
    argv: list[str]
    output: Path
    kind: str  # "bin", "text" or "csv"
    elements: int
    vectors: int
    fmt: str = ""
    inputs: list[np.ndarray] = field(default_factory=list, repr=False)
    gamma: np.ndarray | None = field(default=None, repr=False)
    beta: np.ndarray | None = field(default=None, repr=False)


@dataclass
class Output:
    """An op's output as read back from disk.

    `digest` covers the output values (the whole binary file, the decoded
    text values, or the CSV data rows) and, for `normalize`, each row's
    steps and converged flag from the sidecar.
    """

    digest: str
    rows: list[np.ndarray] | None = None
    steps: list[int] | None = None
    converged: list[bool] | None = None
    csv: list[list[str]] | None = None


def _to_format(x: np.ndarray, fmt: str) -> np.ndarray:
    """`x` rounded to the nearest values of the format, as float64."""
    if fmt == "fp32":
        return x.astype(np.float32).astype(np.float64)
    if fmt == "fp16":
        return x.astype(np.float16).astype(np.float64)
    u = x.astype(np.float32).view(np.uint32)
    u = (u + np.uint32(0x7FFF) + ((u >> np.uint32(16)) & np.uint32(1))) & np.uint32(0xFFFF0000)
    return u.view(np.float32).astype(np.float64)


def _binade_rows(rng: np.random.Generator, n: int, d: int, fmt: str) -> np.ndarray:
    """n rows of length d whose m = ||x - mean(x)||^2 spreads evenly over one
    binade: each U(-1, 1) row is scaled so that m lands at 2^(E + u) for a
    stratified u in [0, 1).  The convergence rate of the iteration depends
    on where m sits in its binade, so stratifying keeps the work and the
    error of a file nearly the same from seed to seed."""
    x = rng.uniform(-1.0, 1.0, (n, d))
    y = x - x.mean(axis=1, keepdims=True)
    m0 = np.einsum("ij,ij->i", y, y)
    u = (rng.permutation(n) + rng.random(n)) / n
    target = np.ldexp(2.0 ** u, int(np.log2(d / 3.0)))
    return _to_format(x * np.sqrt(target / m0)[:, None], fmt)


def _encode(values: np.ndarray, fmt: str) -> bytes:
    if fmt == "fp32":
        return values.astype("<f4").tobytes()
    if fmt == "fp16":
        return values.astype("<f2").tobytes()
    return (values.astype(np.float32).view(np.uint32) >> np.uint32(16)).astype("<u2").tobytes()


def _decode(payload: bytes, fmt: str) -> np.ndarray:
    if fmt == "fp32":
        return np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if fmt == "fp16":
        return np.frombuffer(payload, dtype="<f2").astype(np.float64)
    bits = np.frombuffer(payload, dtype="<u2").astype(np.uint32) << np.uint32(16)
    return bits.view(np.float32).astype(np.float64)


def write_iln1(path: Path, rows: np.ndarray, fmt: str) -> None:
    n, d = rows.shape
    path.write_bytes(ILN1.pack(b"ILN1", FORMAT_TAGS[fmt], d, n) + _encode(rows.ravel(), fmt))


def write_text(path: Path, rows: list[np.ndarray]) -> None:
    path.write_text("".join(",".join(repr(float(v)) for v in r) + "\n" for r in rows))


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def read_output(op: Op) -> Output:
    """Read an op's output files back."""
    raw = op.output.read_bytes()
    if op.kind == "csv":
        lines = [ln for ln in raw.decode().splitlines() if ln and not ln.startswith("#")]
        return Output(_sha("\n".join(lines).encode()), csv=[ln.split(",") for ln in lines])
    if op.kind == "bin":
        magic, tag, d, n = ILN1.unpack_from(raw)
        if magic != b"ILN1" or tag != FORMAT_TAGS[op.fmt]:
            raise ValueError(f"{op.output.name}: bad header {magic!r} tag {tag}")
        flat = _decode(raw[ILN1.size:], op.fmt)
        if flat.size != n * d:
            raise ValueError(f"{op.output.name}: {flat.size} elements, header says {n}x{d}")
        rows = list(flat.reshape(n, d))
        main = raw
    else:
        rows = [np.array([float(t) for t in ln.split(",")]) for ln in raw.decode().splitlines()]
        main = b"".join(len(r).to_bytes(8, "little") + r.tobytes() for r in rows)
    meta = [json.loads(ln) for ln in Path(str(op.output) + ".meta.jsonl").read_text().splitlines()]
    steps = [int(m["steps"]) for m in meta]
    converged = [bool(m["converged"]) for m in meta]
    return Output(_sha(main, json.dumps([steps, converged]).encode()),
                  rows=rows, steps=steps, converged=converged)


def flip_one_bit(op: Op, raw: bytes) -> bytes:
    """`raw` with one bit flipped in an output value: the last byte of a
    binary file, the last digit of a CSV (a data row), or the first digit
    after the last decimal point of a text vector file (a later digit of a
    17-digit `repr` may not change the value)."""
    b = bytearray(raw)
    if op.kind == "bin":
        i = len(b) - 1
    elif op.kind == "csv":
        i = max(raw.rfind(bytes([c])) for c in b"0123456789")
    else:
        i = raw.rindex(b".") + 1
    b[i] ^= 1  # an ASCII digit stays a digit
    return bytes(b)


def _cycles(lib, dims_steps: list[tuple[int, int]]) -> tuple[float, dict[str, float]]:
    """Mean modeled cycles per vector, in total and per macro phase."""
    totals = 0
    phases = {p: 0 for p in lib.latency.PHASES}
    for d, steps in dims_steps:
        rep = lib.latency.estimate_cycles(d, steps)
        totals += rep.total
        for p, c in rep.per_phase.items():
            phases[p] += c
    n = len(dims_steps)
    return totals / n, {p: c / n for p, c in phases.items()}


class ErrorTally:
    """Absolute errors against the binary64 reference, reduced per row.

    `row_max_abs_err` is the mean over rows of each row's largest error; the
    largest error overall (`max_abs_err`) is a single extreme value and
    moves by 20-50% from seed to seed."""

    def __init__(self) -> None:
        self.total, self.count, self.row_max = 0.0, 0, []

    def add(self, z: np.ndarray, ref: np.ndarray) -> None:
        e = np.atleast_2d(np.abs(z - ref))
        self.total += float(e.sum())
        self.count += e.size
        self.row_max.extend(e.max(axis=1))

    def merge(self, other: "ErrorTally") -> None:
        self.total += other.total
        self.count += other.count
        self.row_max += other.row_max

    def stats(self) -> dict:
        return {"avg_abs_err": self.total / self.count,
                "row_max_abs_err": float(np.mean(self.row_max)),
                "max_abs_err": float(max(self.row_max))}


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a, np.float64), np.ascontiguousarray(b, np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class Workload:
    name = ""

    def generate(self, lib, seed: int, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def verify(self, lib, op: Op, out: Output) -> str | None:
        """Check one op's output in full; return what is wrong, or None."""
        raise NotImplementedError

    def quality(self, lib, ops: list[Op], outs: dict[str, Output]) -> dict:
        """Error statistics (see `ErrorTally`) and modeled cycles per
        vector, in total and per phase, of the checked first pass."""
        raise NotImplementedError


class FileBin(Workload):
    name = "file_bin"

    def generate(self, lib, seed, workdir):
        ops = []
        for fi, fmt in enumerate(BIN_FORMATS):
            for d in BIN_DIMS:
                rng = _rng(seed, 0, fi, d)
                x = _binade_rows(rng, BIN_ROWS, d, fmt)
                gamma = _to_format(rng.uniform(0.5, 1.5, d), fmt)
                beta = _to_format(rng.uniform(-0.5, 0.5, d), fmt)
                stem = workdir / f"{fmt}_{d}"
                paths = {k: Path(f"{stem}.{k}.iln") for k in ("x", "gamma", "beta", "out")}
                write_iln1(paths["x"], x, fmt)
                write_iln1(paths["gamma"], gamma[None, :], fmt)
                write_iln1(paths["beta"], beta[None, :], fmt)
                argv = ["normalize", "--input", str(paths["x"]), "--gamma", str(paths["gamma"]),
                        "--beta", str(paths["beta"]), "--steps", str(STEPS),
                        "--out", str(paths["out"])]
                ops.append(Op(f"{fmt}_d{d}", argv, paths["out"], "bin", x.size, BIN_ROWS,
                              fmt, list(x), gamma, beta))
        return ops

    def verify(self, lib, op, out):
        nc = lib.norm_core
        z = nc.normalize_batch(lib.fpformat.FORMATS[op.fmt], np.array(op.inputs), op.gamma,
                               op.beta, config=nc.NormConfig(stopping=nc.FixedSteps(STEPS))).z
        if not _bits_equal(np.array(out.rows), z):
            return "output differs from normalize_batch on the same rows"
        if out.steps != [STEPS] * op.vectors or not all(out.converged):
            return f"sidecar steps/converged are not {STEPS}/true on every row"
        return None

    def quality(self, lib, ops, outs):
        errs, dims_steps = ErrorTally(), []
        for op in ops:
            fmt = lib.fpformat.FORMATS[op.fmt]
            x = np.array(op.inputs)
            errs.add(np.array(outs[op.name].rows),
                     lib.baselines.reference_batch(fmt, x, op.gamma, op.beta))
            dims_steps += [(x.shape[1], s) for s in outs[op.name].steps]
        cyc, phases = _cycles(lib, dims_steps)
        return {**errs.stats(), "modeled_cycles_per_vector": cyc, "cycles": phases}


class FileTextRagged(Workload):
    name = "file_text_ragged"

    def generate(self, lib, seed, workdir):
        ops = []
        for fi, fmt in enumerate(RAGGED_DELTA):
            rng = _rng(seed, 1, fi)
            rows = [r for d in RAGGED_DIMS for r in _binade_rows(rng, RAGGED_REPEAT, d, fmt)]
            rows = [rows[i] for i in rng.permutation(len(rows))]
            src, dst = workdir / f"{fmt}.txt", workdir / f"{fmt}.out.txt"
            write_text(src, rows)
            argv = ["normalize", "--input", str(src), "--format", fmt,
                    "--delta-max", repr(RAGGED_DELTA[fmt]), "--out", str(dst)]
            ops.append(Op(fmt, argv, dst, "text", sum(map(len, rows)), len(rows), fmt, rows))
        return ops

    def verify(self, lib, op, out):
        nc = lib.norm_core
        fmt = lib.fpformat.FORMATS[op.fmt]
        delta = RAGGED_DELTA[op.fmt]
        if len(out.rows) != len(op.inputs) or any(
                len(r) != len(x) for r, x in zip(out.rows, op.inputs)):
            return "output rows do not match the input row lengths"
        # A row stopped after k steps must equal the batch path run for
        # exactly k steps, and k must be where the threshold rule stops.
        groups: dict[tuple[int, int], list[int]] = {}
        for i, (x, k) in enumerate(zip(op.inputs, out.steps)):
            groups.setdefault((len(x), k), []).append(i)
        for (d, k), idx in groups.items():
            if not 1 <= k <= RAGGED_MAX_STEPS:
                return f"row {idx[0]}: {k} steps"
            cfg = nc.NormConfig(stopping=nc.FixedSteps(k))
            res = nc.normalize_batch(fmt, np.array([op.inputs[i] for i in idx]), config=cfg)
            if not _bits_equal(np.array([out.rows[i] for i in idx]), res.z):
                return f"rows with d={d}, {k} steps differ from normalize_batch"
            da = np.abs(np.diff(res.a_trajectory, axis=1))
            for j, i in enumerate(idx):
                stop = da[j, -1] <= delta
                if (da[j, :-1] <= delta).any() or stop != out.converged[i] \
                        or (not stop and k != RAGGED_MAX_STEPS):
                    return f"row {i}: stopped after {k} steps against the threshold rule"
        return None

    def quality(self, lib, ops, outs):
        errs, dims_steps = ErrorTally(), []
        for op in ops:
            fmt = lib.fpformat.FORMATS[op.fmt]
            out = outs[op.name]
            for x, z in zip(op.inputs, out.rows):
                errs.add(z, lib.baselines.reference_batch(fmt, x[None, :])[0])
            dims_steps += [(len(x), s) for x, s in zip(op.inputs, out.steps)]
        cyc, phases = _cycles(lib, dims_steps)
        return {**errs.stats(), "modeled_cycles_per_vector": cyc, "cycles": phases}


class PaperBattery(Workload):
    name = "paper_battery"
    FAMILIES = {
        "precision": (("fp32", "fp16", "bf16"), PRECISION_DIMS, (STEPS,)),
        "convergence": (("fp32", "fp16", "bf16"), (1024,), CONVERGENCE_STEPS),
        "compare-fisr": (("fp32", "bf16"), OPT_DIMS, (STEPS,)),
        "latency": ((), LATENCY_DIMS, (STEPS,)),
    }

    def __init__(self) -> None:
        self.errors: dict[str, ErrorTally] = {}  # per family, filled by verify

    def generate(self, lib, seed, workdir):
        self.seed = seed
        ops = []
        for family, (formats, dims, steps) in self.FAMILIES.items():
            argv = [family, "--seed", str(seed), "--dims", ",".join(map(str, dims)),
                    "--steps", ",".join(map(str, steps))]
            argv += [a for f in formats for a in ("--format", f)]
            n = 0 if family == "latency" else BATTERY_VECTORS
            if n:
                argv += ["--num-vectors", str(n)]
            # Vectors normalized: one pass per step count; compare-fisr
            # normalizes each input twice (iterl2norm and FISR).
            passes = len(formats) * len(steps) * (2 if family == "compare-fisr" else 1)
            out = workdir / f"{family}.csv"
            ops.append(Op(family, argv + ["--out", str(out)], out, "csv",
                          passes * n * sum(dims), passes * n * len(dims)))
        return ops

    def _draw(self, lib, family, fmt, d):
        x = _rng(self.seed, KIND_IDS[family], FORMAT_TAGS[fmt], d).uniform(
            -1.0, 1.0, size=(BATTERY_VECTORS, d))
        return lib.fpformat.round_array(x, lib.fpformat.FORMATS[fmt])

    def verify(self, lib, op, out):
        nc, bl = lib.norm_core, lib.baselines
        formats, dims, steps = self.FAMILIES[op.name]
        rows = out.csv[1:]  # below the column names
        expected: list[list[str]] = []
        errors = self.errors[op.name] = ErrorTally()
        if op.name == "latency":
            for d in dims:
                rep = lib.latency.estimate_cycles(d, STEPS)
                expected.append([str(d), str(rep.total)]
                                + [str(rep.per_phase[p]) for p in lib.latency.PHASES])
            totals = {int(r[0]): int(r[1]) for r in rows}
            if totals.get(64) != 116 or totals.get(1024) != 227:
                return "latency endpoints are not the paper's 116 and 227 cycles"
        for fmt in formats:
            f = lib.fpformat.FORMATS[fmt]
            for d in dims:
                x = self._draw(lib, op.name, fmt, d)
                ref = bl.reference_batch(f, x)
                for k in steps:
                    cfg = nc.NormConfig(stopping=nc.FixedSteps(k))
                    z = nc.normalize_batch(f, x, config=cfg).z
                    e = np.abs(z - ref)
                    if k == STEPS:
                        errors.add(z, ref)
                    if op.name == "precision":
                        expected.append([fmt, str(d), f"{e.mean():.9e}", f"{e.max():.9e}"])
                    elif op.name == "convergence":
                        expected.append([fmt, str(k), f"{e.mean():.9e}"])
                    else:
                        ef = np.abs(bl.fisr_batch(f, x).z - ref)
                        expected.append([fmt, str(d), "iterl2norm", f"{e.mean():.9e}",
                                         f"{e.max():.9e}"])
                        expected.append([fmt, str(d), "fisr", f"{ef.mean():.9e}",
                                         f"{ef.max():.9e}"])
        if len(rows) != len(expected):
            return f"{op.name}.csv has {len(rows)} rows, the kernels give {len(expected)}"
        for i, (got, want) in enumerate(zip(rows, expected)):
            if got != want:
                return f"{op.name}.csv row {i} is {got}, the kernels give {want}"
        return None

    def quality(self, lib, ops, outs):
        cols = outs["latency"].csv[0]
        lat = outs["latency"].csv[1:]
        phases = {p: sum(int(r[cols.index(f"cycles_{p}")]) for r in lat) / len(lat)
                  for p in lib.latency.PHASES}
        # Every iterl2norm output at the default step count, recomputed by
        # `verify`, which also checked that the CSVs report these errors.
        errs = ErrorTally()
        for t in self.errors.values():
            errs.merge(t)
        return {**errs.stats(),
                "modeled_cycles_per_vector": sum(int(r[1]) for r in lat) / len(lat),
                "cycles": phases}


WORKLOADS = {w.name: w for w in (FileBin(), PaperBattery(), FileTextRagged())}
