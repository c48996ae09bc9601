"""Vector file I/O for the normalize subcommand, and the decimal rendering
of format values in its text files and its diagnostics sidecar.

Two containers:

* text: one vector per line, comma-separated decimal literals;
* binary: a 16-byte header (magic ``ILN1``, uint32 format tag, uint32 d,
  uint32 count, all little-endian) followed by count*d elements.  fp32
  elements are 4-byte IEEE singles; fp16 are 2-byte IEEE halves; bf16 are
  2-byte raw bit patterns.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .errors import DataFormatError
from .fpformat import FORMATS, FormatSpec, bits_to_values, values_to_bits

if TYPE_CHECKING:
    from .norm_core import BatchNormResult

__all__ = [
    "MAGIC",
    "FORMAT_TAGS",
    "read_vectors",
    "write_vectors",
    "write_sidecar",
]

MAGIC = b"ILN1"
FORMAT_TAGS = {"fp32": 0, "fp16": 1, "bf16": 2}
_TAG_TO_NAME = {v: k for k, v in FORMAT_TAGS.items()}
_HEADER = struct.Struct("<4sIII")


def _word(fmt: FormatSpec) -> np.dtype:
    """The little-endian unsigned integer dtype of one element's bits."""
    return np.dtype(f"<u{fmt.total_bits // 8}")


def read_vectors(path: str | Path) -> tuple[list[np.ndarray], FormatSpec | None]:
    """Read vectors from a text or binary container.

    Returns (vectors, fmt) where fmt is None for text input (the caller
    chooses the format) and the header's format for binary input; the rows
    of a binary file are views of one decoded array.  A file that cannot be
    opened or read is a DataFormatError.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc.strerror or exc}") from exc
    if raw[:len(MAGIC)] == MAGIC:
        return _read_binary(path, raw)
    return _read_text(path, raw), None


def _read_text(path: str | Path, raw: bytes) -> list[np.ndarray]:
    vectors = []
    # decoded and split into lines as `open(path)` does
    for lineno, line in enumerate(io.TextIOWrapper(io.BytesIO(raw)), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            vec = np.array([float(tok) for tok in line.split(",")], dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        if vec.size == 0:
            raise DataFormatError(f"{path}:{lineno}: empty vector")
        vectors.append(vec)
    if not vectors:
        raise DataFormatError(f"{path}: no vectors found")
    return vectors


def _read_binary(path: str | Path, raw: bytes) -> tuple[list[np.ndarray], FormatSpec]:
    if len(raw) < _HEADER.size:
        raise DataFormatError(f"{path}: truncated header")
    _, tag, d, count = _HEADER.unpack_from(raw)
    if tag not in _TAG_TO_NAME:
        raise DataFormatError(f"{path}: unknown format tag {tag}")
    if d < 1 or count < 1:
        raise DataFormatError(f"{path}: header declares d={d}, count={count}")
    fmt = FORMATS[_TAG_TO_NAME[tag]]
    payload = raw[_HEADER.size:]
    word = _word(fmt)
    if len(payload) != d * count * word.itemsize:
        raise DataFormatError(f"{path}: payload holds {len(payload)} bytes, header "
                              f"declares {d * count} elements of {word.itemsize} bytes")
    values = bits_to_values(np.frombuffer(payload, dtype=word), fmt)
    return list(values.reshape(count, d)), fmt


def write_vectors(path: str | Path, vectors: list[np.ndarray],
                  fmt: FormatSpec, binary: bool) -> None:
    if binary:
        lengths = {len(v) for v in vectors}
        if len(lengths) != 1:
            raise DataFormatError("binary container requires equal-length vectors")
        d = lengths.pop()
        flat = np.concatenate([np.asarray(v, dtype=np.float64) for v in vectors])
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, FORMAT_TAGS[fmt.name], d, len(vectors)))
            fh.write(values_to_bits(flat, fmt).astype(_word(fmt)).tobytes())
    else:
        with open(path, "w") as fh:
            for line in _text_rows(vectors, fmt):
                fh.write(line)
                fh.write("\n")


def _text_rows(vectors: list[np.ndarray], fmt: FormatSpec) -> Iterator[str]:
    """Each vector, in turn, as the comma-separated `repr`s of its float64
    values."""
    for tokens in _reprs([np.asarray(v, dtype=np.float64) for v in vectors], fmt):
        yield ",".join(tokens)


_JSON_BOOL = {True: "true", False: "false"}


def write_sidecar(path: str | Path, fmt: FormatSpec,
                  batches: list[tuple[list[int], BatchNormResult]]) -> None:
    """Write the diagnostics of a normalized file as JSON lines, one per
    vector in file order: index, d, mean, m, the `a` trajectory up to the
    vector's step count, steps and converged.

    `batches` holds one (rows, result) per batch: the file indices of its
    rows and its BatchNormResult.  Each line is the one
    `json.JSONEncoder(allow_nan=False)` writes for those keys, with a NaN or
    infinite value (which JSON has no token for) written as null."""
    values = []
    for _, res in batches:
        # the trajectory entries written, in row order
        written = np.arange(res.a_trajectory.shape[1]) <= res.steps[:, None]
        values.append((res.mean, res.m, res.a_trajectory[written]))
    tokens = _reprs([v for batch in values for v in batch], fmt)
    lines: list = [None] * sum(len(rows) for rows, _ in batches)
    for (rows, res), batch in zip(batches, values):
        mean, m, traj = (_nulls(next(tokens), v) for v in batch)
        d = res.z.shape[1]
        steps, converged = res.steps.tolist(), res.converged.tolist()
        end = 0
        for j, i in enumerate(rows):
            start, end = end, end + steps[j] + 1
            lines[i] = (f'{{"index": {i}, "d": {d}, "mean": {mean[j]}, "m": {m[j]}, '
                        f'"a_trajectory": [{", ".join(traj[start:end])}], '
                        f'"steps": {steps[j]}, "converged": {_JSON_BOOL[converged[j]]}}}\n')
    with open(path, "w") as fh:
        fh.writelines(lines)


def _nulls(tokens: list[str], values: np.ndarray) -> list[str]:
    """`tokens` with the JSON null in place of each NaN or infinite value."""
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        tokens[k] = "null"
    return tokens


def _reprs(arrays: list[np.ndarray], fmt: FormatSpec) -> Iterator[list[str]]:
    """The `repr`s of the float64 values of each 1-D array, in turn.

    A 16-bit format holds few distinct values (a few thousand in a bf16
    file), so for fp16 and bf16 each distinct bit pattern of all the arrays
    is converted once, through one table; a value the format cannot hold
    exactly is converted on its own, as given."""
    if fmt.total_bits != 16:
        for v in arrays:
            yield list(map(repr, v.tolist()))
        return
    with np.errstate(over="ignore", invalid="ignore"):
        bits = [values_to_bits(v, fmt) for v in arrays]
    seen = np.zeros(1 << 16, dtype=bool)
    for b in bits:
        seen[b] = True
    used = np.flatnonzero(seen)
    # the table: each pattern's position among the used patterns' reprs
    table = np.zeros(1 << 16, dtype=np.intp)
    table[used] = np.arange(used.size)
    reprs = np.array([repr(v) for v in bits_to_values(used, fmt).tolist()], dtype=object)
    for v, b in zip(arrays, bits):
        tokens = reprs[table[b]]
        inexact = np.flatnonzero(bits_to_values(b, fmt).view(np.int64) != v.view(np.int64))
        tokens[inexact] = [repr(x) for x in v[inexact].tolist()]
        yield tokens.tolist()
