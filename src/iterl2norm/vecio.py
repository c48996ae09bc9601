"""Vector file I/O for the normalize subcommand, and the decimal rendering
of values in its text files and its diagnostics sidecar.

Two containers:

* text: one vector per line, comma-separated decimal literals;
* binary: a 16-byte header (magic ``ILN1``, uint32 format tag, uint32 d,
  uint32 count, all little-endian) followed by count*d elements.  fp32
  elements are 4-byte IEEE singles; fp16 are 2-byte IEEE halves; bf16 are
  2-byte raw bit patterns.

Every value written is the `repr` of its float64, and every text file
reads as `float()` of each token would read it.  Decimals are parsed by
orjson, which parses binary64 in C.  They are written three ways:

* A text row of fp16 or bf16 values is joined from a token table of that
  format: the `repr` token of each of its 65,536 bit patterns that the
  file's write has met.  Each text file's write builds its table empty
  and fills it on demand, never in advance: before a block of rows (about
  16K values) is written, the patterns it holds that the table lacks are
  rendered by one `_reprs` call.  A row qualifies when each of its values
  encodes to a pattern that decodes to the same bits in the value's own
  precision (float32 or float64).  A table costs a 65,536-slot object
  array (512 KiB) and a 64 KiB mask, plus about 50 bytes per token held
  (a file of one format holds a few thousand patterns), and is freed
  with the write: one kept for the process would live on in each stale
  copy of a module that is imported afresh, until the cycle collector
  finds it.
* Any other text row (fp32 rows, and rows that are not all format
  values) is one `orjson.dumps` of its slice of a block that was widened
  to float64 and checked at once for values outside orjson's fixed
  notation; a row that holds such a value is rendered by `_reprs`.
* The sidecar's values (the means, the squared norms and the trajectory
  entries of every batch of a file) are rendered by one `_reprs` call
  per file.

`_reprs` prints with orjson, one token per value, and writes the values
orjson would spell otherwise by `repr`.  A text line of JSON numbers is
parsed by orjson into a list, and its row built by `np.fromiter`.  orjson
is imported where a text line is parsed or a decimal is written: its
import loads `zoneinfo` and `uuid`, which a process that never reads or
writes a decimal need not pay.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import stat
import struct
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .errors import DataFormatError
from .fpformat import (
    FORMATS,
    FormatSpec,
    _carried,
    bits_to_binary32,
    bits_to_values,
    values_to_bits,
)

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

    Returns (vectors, fmt).  For text input, vectors is a list of float64
    rows and fmt is None (the caller chooses the format); for binary input,
    vectors is the decoded float32 array of shape (count, d), the
    datapath's binary32 carry, which holds every value of the three formats
    exactly, and fmt is the header's format.  The array is writable; an
    fp32 one is a view of the bytes read.  A file that cannot be opened or
    read is a DataFormatError.
    """
    try:
        raw = _read_file(path)
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc.strerror or exc}") from exc
    if raw[:len(MAGIC)] == MAGIC:
        return _read_binary(path, raw)
    return _read_text(path, raw), None


def _read_file(path: str | Path) -> bytes | bytearray:
    """The bytes of the file `path`: for a binary container one writable
    buffer (its decoded fp32 array is a view of it), sized as the file is
    when opened, plus what a file that grows, or a special file that has no
    size, holds beyond that; for a text file plain bytes.  The file is read
    unbuffered, into the returned object without a copy."""
    with open(path, "rb", buffering=0) as fh:
        if not fh.seekable():  # a pipe
            raw = fh.readall()
            return bytearray(raw) if raw[:len(MAGIC)] == MAGIC else raw
        binary = fh.read(len(MAGIC)) == MAGIC
        fh.seek(0)
        if not binary:
            return fh.readall()
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        del raw[fh.readinto(raw):]
        raw += fh.readall()
    return raw


def _read_text(path: str | Path, raw: bytes) -> list[np.ndarray]:
    """The rows of a text file, as `float()` of each token reads them.

    One loop reads the file line by line, splitting it where universal
    newlines do: at a newline, a carriage return and newline, and a lone
    carriage return.  A line of JSON numbers is parsed by orjson, and any
    other line by `_float_row`, which decodes it as UTF-8 on its own
    (non-ASCII digits are numbers)."""
    vectors = []
    for lineno, line in enumerate(_lines(raw), start=1):
        vec = _json_row(line)
        if vec is None:
            vec = _float_row(path, lineno, line)
        if len(vec):  # a blank line holds no values
            vectors.append(vec)
    if not vectors:
        raise DataFormatError(f"{path}: no vectors found")
    return vectors


def _lines(raw: bytes) -> Iterator[bytes]:
    """The lines of `raw`, each with its line break, taken one at a time.
    A newline-ended chunk is split again only where it holds a lone
    carriage return: any but the one of a closing carriage return and
    newline."""
    for chunk in io.BytesIO(raw):
        cr = chunk.find(b"\r")
        if cr < 0 or chunk.startswith(b"\n", cr + 1):
            yield chunk
        else:
            yield from chunk.splitlines(keepends=True)


# the bytes of JSON numbers, commas and the whitespace JSON and str.strip share
_JSON_ROW_BYTES = b"0123456789eE+-.,\n\r\t "
# a -0 in integer syntax, which orjson reads as +0 (`1e-0` matches too; it
# only sends its line to the float() reader)
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?![0-9.eE])")


def _json_row(line: bytes) -> np.ndarray | None:
    """One line of a text file parsed by orjson, or None when the line may
    hold a token that orjson reads otherwise than `float()` (an
    integer-syntax -0, looked for on lines that read a zero).

    A line of JSON numbers reads the same either way (a blank line reads
    as no values); a line with another byte, or other syntax (a
    JSONDecodeError), gives None."""
    if line.translate(None, _JSON_ROW_BYTES):
        return None
    import orjson

    try:
        values = orjson.loads(b"[" + line + b"]")
    except orjson.JSONDecodeError:
        return None
    vec = np.fromiter(values, np.float64, len(values))
    if not vec.all() and _INTEGER_MINUS_ZERO.search(line):
        return None
    return vec


def _float_row(path: str | Path, lineno: int, line: bytes) -> np.ndarray:
    """Line `lineno` of a text file, decoded as UTF-8, with each token read
    by `float()` (no values for a blank line); a line that is not UTF-8, or
    a token `float()` rejects, is a DataFormatError naming the line."""
    try:
        text = line.decode("utf-8").strip()
        return np.array([float(tok) for tok in text.split(",")] if text else [],
                        dtype=np.float64)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}:{lineno}: not UTF-8 text: {exc}") from exc
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: {exc}") from exc


def _read_binary(path: str | Path, raw: bytearray) -> tuple[np.ndarray, FormatSpec]:
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
    return bits_to_binary32(bits, fmt).reshape(count, d), fmt


def write_vectors(path: str | Path, vectors: np.ndarray | list[np.ndarray],
                  fmt: FormatSpec, binary: bool) -> None:
    """Write vectors, an (n, d) array or a list of rows, to a binary
    container of `fmt`, or to a text file with the `repr` of each value,
    widened to float64, and a newline after each row (see `_text_lines`).
    A binary container is encoded from float32 values (the binary32 carry,
    as `normalize` outputs are) as they are, and from any others read as
    float64."""
    if not binary:
        write_file(path, _text_lines(vectors, fmt))
        return
    if not isinstance(vectors, np.ndarray):
        if len({len(v) for v in vectors}) != 1:
            raise DataFormatError("binary container requires equal-length vectors")
    vectors = np.ascontiguousarray(vectors)
    n, d = vectors.shape
    write_file(path, (_HEADER.pack(MAGIC, FORMAT_TAGS[fmt.name], d, n),
                      values_to_bits(vectors, fmt).astype(_word(fmt), copy=False)))


def write_file(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write the byte strings (or C-contiguous arrays) `chunks` to the file
    `path`.  A file that cannot be written (a missing directory, a
    directory, a full disk) is a DataFormatError naming it.  A write that
    fails once the file is open leaves no short file: `remove_output`
    removes it."""
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException as exc:
        remove_output(path)
        if isinstance(exc, OSError):
            raise _unwritable(path, exc) from exc
        raise


def _unwritable(path: str | Path, exc: OSError) -> DataFormatError:
    return DataFormatError(f"cannot write {path}: {exc.strerror or exc}")


def remove_output(path: str | Path) -> None:
    """Remove the output file `path` of a failed run if it is a regular
    file; a device, FIFO, directory or symlink is left alone, and so is a
    file that cannot be removed."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)


_JSON_BOOL = {True: b"true", False: b"false"}


def write_sidecar(path: str | Path, batches: list[tuple[list[int], BatchNormResult]]) -> None:
    """Write the diagnostics of a normalized file as JSON lines, one per
    vector in file order: index, d, mean, m, the `a` trajectory up to the
    vector's step count, steps and converged.

    `batches` holds one (rows, result) per batch: the file indices of its
    rows and its BatchNormResult.  Each line is the one
    `json.JSONEncoder(allow_nan=False)` writes for those keys, with a NaN or
    infinite value (which JSON has no token for) written as null."""
    results = [res for _, res in batches]
    if not results:
        write_file(path, [])
        return
    # every value of every batch, rendered at once: the means, the squared
    # norms, then the trajectory entries written, in row order
    values = np.concatenate([res.mean for res in results] + [res.m for res in results] + [
        res.a_trajectory[np.arange(res.a_trajectory.shape[1]) <= res.steps[:, None]]
        for res in results])
    n = sum(len(rows) for rows, _ in batches)
    tokens = _nulls(_reprs(values), values)
    mean, m, traj = tokens[:n], tokens[n:2 * n], tokens[2 * n:]
    steps = np.concatenate([res.steps for res in results]).tolist()
    converged = np.concatenate([res.converged for res in results]).tolist()
    lines: list = [None] * n
    done = end = 0  # the rows, and the trajectory entries, of the batches before
    for rows, res in batches:
        line = (b'{"index": %%d, "d": %d, "mean": %%b, "m": %%b, "a_trajectory": [%%b], '
                b'"steps": %%d, "converged": %%b}\n' % res.z.shape[1])
        batch = slice(done, done + len(rows))
        done = batch.stop
        for i, mean_i, m_i, steps_i, converged_i in zip(rows, mean[batch], m[batch],
                                                        steps[batch], converged[batch]):
            start, end = end, end + steps_i + 1
            lines[i] = line % (i, mean_i, m_i, b", ".join(traj[start:end]), steps_i,
                               _JSON_BOOL[converged_i])
    write_file(path, lines)


def _nulls(tokens: list[bytes], values: np.ndarray) -> list[bytes]:
    """`tokens` with the JSON null in place of each NaN or infinite value."""
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        tokens[k] = b"null"
    return tokens


def _reprs(v: np.ndarray) -> list[bytes]:
    """The `repr` of each value of the 1-D array v (of one value or more),
    widened to float64, as ASCII: one token per value.

    orjson prints the shortest round-trip digits, which are `repr`'s
    wherever both write fixed notation: at +-0 and for 1e-4 <= |v| < 1e16.
    Elsewhere the spellings differ (orjson writes `0.00001` and `1e16` where
    `repr` writes `1e-05` and `1e+16`, and null for NaN and +-inf), so
    those values are written by `repr` itself."""
    import orjson

    v = np.ascontiguousarray(v, dtype=np.float64)
    tokens = orjson.dumps(v, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    magnitude = np.abs(v)
    fixed = (magnitude >= 1e-4) & (magnitude < 1e16)
    if not fixed.all():
        others = np.flatnonzero(~fixed & (v != 0))
        for k, value in zip(others.tolist(), v[others].tolist()):
            tokens[k] = repr(value).encode()
    return tokens


# ---------------------------------------------------------------------------
# The token path: a table for fp16 and bf16 values, orjson for the others
# ---------------------------------------------------------------------------

# Values per block of text rows: a block is checked and classified by a few
# numpy passes, and its lines then written one row at a time.
_TEXT_BLOCK = 1 << 14


class _TokenTable:
    """The `repr` token of each bit pattern of a 16-bit format (fp16 or
    bf16) that one write has met: an object array with one slot per
    pattern, None until a fill renders it."""

    def __init__(self, fmt: FormatSpec) -> None:
        self.fmt = fmt
        self.tokens = np.full(1 << 16, None, dtype=object)
        self.filled = np.zeros(1 << 16, dtype=bool)

    def patterns(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(patterns, ok) for the float32 or float64 array `flat`: each
        value's bit pattern in the format, and whether that pattern decodes
        to the value's own bits, in `flat`'s precision.  Only where `ok`
        holds is the pattern's token the value's `repr`."""
        with np.errstate(over="ignore", invalid="ignore"):  # a value the format lacks
            if self.fmt.name == "bf16":
                bits = flat.astype(np.float32, copy=False).view(np.uint32) >> np.uint32(16)
            else:
                bits = flat.astype(np.float16).view(np.uint16)
            decoded = (bits_to_binary32 if flat.dtype == np.float32
                       else bits_to_values)(bits, self.fmt)
        word = f"u{flat.itemsize}"
        return bits, decoded.view(word) == flat.view(word)

    def fill(self, patterns: np.ndarray) -> None:
        """Render the tokens of the `patterns` the table lacks, by one
        `_reprs` call."""
        lacked = np.zeros_like(self.filled)
        lacked[patterns[~self.filled[patterns]]] = True
        new = np.flatnonzero(lacked)  # not np.unique, which imports numpy.ma
        if new.size:
            self.tokens[new] = np.array(_reprs(bits_to_values(new, self.fmt)),
                                        dtype=object)
            self.filled[new] = True


def _text_lines(vectors: Iterable, fmt: FormatSpec) -> Iterator[bytes]:
    """The text lines of `vectors`, one row at a time: each value's `repr`,
    widened to float64, joined by commas, with a newline.

    The rows are taken in blocks of about _TEXT_BLOCK values (a longer row
    alone), each block's values checked and classified at once.  Under
    fp16 or bf16, a row of format values is joined from the format's token
    table; any other row is one `orjson.dumps` of its slice of the block in
    float64, or `_reprs` of that slice where it holds a value outside
    orjson's fixed notation."""
    import orjson

    table = _TokenTable(fmt) if fmt.total_bits == 16 else None
    dumps, option = orjson.dumps, orjson.OPT_SERIALIZE_NUMPY
    for block in _blocks(vectors):
        flat = _carried(np.concatenate(block))
        ends = np.cumsum([len(row) for row in block]).tolist()
        tabled = [False] * len(ends)
        if table is not None:
            patterns, ok = table.patterns(flat)
            tabled = _rows_where(ok, ends)
            table.fill(patterns[ok])
            tokens = table.tokens[patterns]  # a row's are its values' where `tabled`
        if not all(tabled):
            with np.errstate(invalid="ignore"):  # a signaling NaN widens to a quiet one
                wide = flat.astype(np.float64, copy=False)
            magnitude = np.abs(wide)
            in_range = (magnitude >= 1e-4) & (magnitude < 1e16)
            fixed = _rows_where(in_range | (wide == 0), ends)
        start = 0
        for k, end in enumerate(ends):
            if tabled[k]:
                yield b",".join(tokens[start:end].tolist())
            elif fixed[k]:
                yield memoryview(dumps(wide[start:end], option=option))[1:-1]
            else:
                yield b",".join(_reprs(wide[start:end]))
            yield b"\n"
            start = end


def _blocks(vectors: Iterable) -> Iterator[list]:
    """The rows of `vectors` in runs of at least _TEXT_BLOCK values, but the
    last run."""
    block, size = [], 0
    for row in vectors:
        block.append(row)
        size += len(row)
        if size >= _TEXT_BLOCK:
            yield block
            block, size = [], 0
    if block:
        yield block


def _rows_where(ok: np.ndarray, ends: list[int]) -> list[bool]:
    """Per row (ending at each of `ends`), whether `ok` holds on all of its
    values."""
    rows = [True] * len(ends)
    if ok.all():
        return rows
    for k in np.searchsorted(ends, np.flatnonzero(~ok), side="right").tolist():
        rows[k] = False
    return rows
