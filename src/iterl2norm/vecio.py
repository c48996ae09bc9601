"""Vector file I/O for the normalize subcommand, and the decimal rendering
of values in its text files and its diagnostics sidecar.

Two containers:

* text: one vector per line, comma-separated decimal literals;
* binary: a 16-byte header (magic ``ILN1``, uint32 format tag, uint32 d,
  uint32 count, all little-endian) followed by count*d elements.  fp32
  elements are 4-byte IEEE singles; fp16 are 2-byte IEEE halves; bf16 are
  2-byte raw bit patterns.

Decimals go through orjson, which prints and parses binary64 in C: every
value written is the `repr` of its float64, and every text file reads as
`float()` of each token would read it.
"""

from __future__ import annotations

import io
import re
import struct
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np
import orjson

from .errors import DataFormatError
from .fpformat import FORMATS, FormatSpec, bits_to_values, values_to_bits

if TYPE_CHECKING:
    from .norm_core import BatchNormResult

MAGIC = b"ILN1"
FORMAT_TAGS = {"fp32": 0, "fp16": 1, "bf16": 2}
_TAG_TO_NAME = {v: k for k, v in FORMAT_TAGS.items()}
_HEADER = struct.Struct("<4sIII")


def _word(fmt: FormatSpec) -> np.dtype:
    """The little-endian unsigned integer dtype of one element's bits."""
    return np.dtype(f"<u{fmt.total_bits // 8}")


def read_vectors(path: str | Path) -> tuple[np.ndarray | list[np.ndarray], FormatSpec | None]:
    """Read vectors from a text or binary container.

    Returns (vectors, fmt).  For text input, vectors is a list of rows and
    fmt is None (the caller chooses the format); for binary input, vectors
    is the decoded float64 array of shape (count, d) and fmt is the
    header's format.  A file that cannot be opened or read is a
    DataFormatError.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc.strerror or exc}") from exc
    if raw[:len(MAGIC)] == MAGIC:
        return _read_binary(path, raw)
    return _read_text(path, raw), None


def _read_text(path: str | Path, raw: bytes) -> list[np.ndarray]:
    """The rows of a text file, as `float()` of each token reads them.

    A line of JSON numbers is parsed by orjson, and any other line by
    `_float_row`.  A file with a non-ASCII byte or a line break that is not
    a newline (a lone carriage return, which ends a line in
    universal-newlines mode) goes whole to `_read_float_rows`, which decodes
    and splits it as `open(path, encoding="utf-8")` does."""
    if not raw.isascii() or (b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n")):
        vectors = _read_float_rows(path, raw)
    else:
        vectors = []
        for lineno, line in enumerate(io.BytesIO(raw), start=1):
            if not line.strip():
                continue
            vec = _json_row(line)
            if vec is None:
                vec = _float_row(path, lineno, line.decode("ascii"))
            if vec is not None:
                vectors.append(vec)
    if not vectors:
        raise DataFormatError(f"{path}: no vectors found")
    return vectors


# the bytes of JSON numbers, commas and the whitespace JSON and str.strip share
_JSON_ROW_BYTES = b"0123456789eE+-.,\n\r\t "
# a -0 in integer syntax, which orjson reads as +0 (`1e-0` matches too; it
# only sends its line to the float() reader)
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?![0-9.eE])")


def _json_row(line: bytes) -> np.ndarray | None:
    """One line of a text file parsed by orjson, or None when the line may
    hold a token that orjson reads otherwise than `float()` (an
    integer-syntax -0, looked for on lines that read a zero).

    A line of JSON numbers reads the same either way; a line with another
    byte, or other syntax (a JSONDecodeError), gives None."""
    if line.translate(None, _JSON_ROW_BYTES):
        return None
    try:
        vec = np.array(orjson.loads(b"[" + line + b"]"), dtype=np.float64)
    except orjson.JSONDecodeError:
        return None
    if not vec.all() and _INTEGER_MINUS_ZERO.search(line):
        return None
    return vec


def _float_row(path: str | Path, lineno: int, line: str) -> np.ndarray | None:
    """Line `lineno` of a text file with each token read by `float()`, or
    None for a blank line; a token it rejects is a DataFormatError naming
    the line."""
    line = line.strip()
    if not line:
        return None
    try:
        return np.array([float(tok) for tok in line.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: {exc}") from exc


def _read_float_rows(path: str | Path, raw: bytes) -> list[np.ndarray]:
    """The rows of a text file, each token read by `float()`."""
    # decoded and split into lines as `open(path, encoding="utf-8")` does
    lines = enumerate(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"), start=1)
    try:
        rows = [_float_row(path, lineno, line) for lineno, line in lines]
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    return [row for row in rows if row is not None]


def _read_binary(path: str | Path, raw: bytes) -> tuple[np.ndarray, FormatSpec]:
    if len(raw) < _HEADER.size:
        raise DataFormatError(f"{path}: truncated header")
    _, tag, d, count = _HEADER.unpack_from(raw)
    if tag not in _TAG_TO_NAME:
        raise DataFormatError(f"{path}: unknown format tag {tag}")
    if d < 1 or count < 1:
        raise DataFormatError(f"{path}: header declares d={d}, count={count}")
    fmt = FORMATS[_TAG_TO_NAME[tag]]
    word = _word(fmt)
    payload = len(raw) - _HEADER.size
    if payload != d * count * word.itemsize:
        raise DataFormatError(f"{path}: payload holds {payload} bytes, header "
                              f"declares {d * count} elements of {word.itemsize} bytes")
    bits = np.frombuffer(raw, dtype=word, offset=_HEADER.size)
    return bits_to_values(bits, fmt).reshape(count, d), fmt


def write_vectors(path: str | Path, vectors: np.ndarray | list[np.ndarray],
                  fmt: FormatSpec, binary: bool) -> None:
    """Write vectors, an (n, d) array or a list of rows, to a binary
    container of `fmt`, or to a text file with the `repr` of each float64
    value and a newline after each row."""
    if not binary:
        write_file(path, (_reprs(v) + b"\n" for v in vectors))
        return
    if not isinstance(vectors, np.ndarray):
        if len({len(v) for v in vectors}) != 1:
            raise DataFormatError("binary container requires equal-length vectors")
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    n, d = vectors.shape
    write_file(path, (_HEADER.pack(MAGIC, FORMAT_TAGS[fmt.name], d, n),
                      values_to_bits(vectors, fmt).astype(_word(fmt), copy=False)))


def write_file(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write the byte strings (or C-contiguous arrays) `chunks` to the file
    `path`.  A file that cannot be written (a missing directory, a
    directory) is a DataFormatError naming it."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise DataFormatError(f"cannot write {path}: {exc.strerror or exc}") from exc


_JSON_BOOL = {True: b"true", False: b"false"}


def write_sidecar(path: str | Path, batches: list[tuple[list[int], BatchNormResult]]) -> None:
    """Write the diagnostics of a normalized file as JSON lines, one per
    vector in file order: index, d, mean, m, the `a` trajectory up to the
    vector's step count, steps and converged.

    `batches` holds one (rows, result) per batch: the file indices of its
    rows and its BatchNormResult.  Each line is the one
    `json.JSONEncoder(allow_nan=False)` writes for those keys, with a NaN or
    infinite value (which JSON has no token for) written as null."""
    lines: list = [None] * sum(len(rows) for rows, _ in batches)
    for rows, res in batches:
        # the trajectory entries written, in row order
        written = np.arange(res.a_trajectory.shape[1]) <= res.steps[:, None]
        mean, m, traj = (_nulls(_reprs(v).split(b","), v)
                         for v in (res.mean, res.m, res.a_trajectory[written]))
        d = res.z.shape[1]
        steps, converged = res.steps.tolist(), res.converged.tolist()
        end = 0
        for j, i in enumerate(rows):
            start, end = end, end + steps[j] + 1
            lines[i] = (b'{"index": %d, "d": %d, "mean": %b, "m": %b, "a_trajectory": [%b], '
                        b'"steps": %d, "converged": %b}\n'
                        % (i, d, mean[j], m[j], b", ".join(traj[start:end]), steps[j],
                           _JSON_BOOL[converged[j]]))
    write_file(path, lines)


def _nulls(tokens: list[bytes], values: np.ndarray) -> list[bytes]:
    """`tokens` with the JSON null in place of each NaN or infinite value."""
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        tokens[k] = b"null"
    return tokens


def _reprs(v: np.ndarray) -> bytes:
    """The `repr`s of the float64 values of the 1-D array v, joined by
    commas, as ASCII.

    orjson prints the shortest round-trip digits, which are `repr`'s
    wherever both write fixed notation: at +-0 and for 1e-4 <= |v| < 1e16.
    Elsewhere the spellings differ (orjson writes `0.00001` and `1e16` where
    `repr` writes `1e-05` and `1e+16`, and null for NaN and +-inf), so
    those values are written by `repr` itself."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    text = orjson.dumps(v, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    magnitude = np.abs(v)
    fixed = (magnitude >= 1e-4) & (magnitude < 1e16)
    if fixed.all():
        return text
    tokens = text.split(b",")
    others = np.flatnonzero(~fixed & (v != 0))
    for k, value in zip(others.tolist(), v[others].tolist()):
        tokens[k] = repr(value).encode()
    return b",".join(tokens)
