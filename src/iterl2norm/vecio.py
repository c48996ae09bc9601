"""Vector file I/O for the normalize subcommand.

Two containers:

* text: one vector per line, comma-separated decimal literals;
* binary: a 16-byte header (magic ``ILN1``, uint32 format tag, uint32 d,
  uint32 count, all little-endian) followed by count*d elements.  fp32
  elements are 4-byte IEEE singles; fp16 are 2-byte IEEE halves; bf16 are
  2-byte raw bit patterns.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .fpformat import FORMATS, FormatSpec, bits_to_values, values_to_bits

__all__ = [
    "MAGIC",
    "FORMAT_TAGS",
    "read_vectors",
    "write_vectors",
    "is_binary_file",
]

MAGIC = b"ILN1"
FORMAT_TAGS = {"fp32": 0, "fp16": 1, "bf16": 2}
_TAG_TO_NAME = {v: k for k, v in FORMAT_TAGS.items()}
_HEADER = struct.Struct("<4sIII")


def is_binary_file(path: str | Path) -> bool:
    with open(path, "rb") as fh:
        return fh.read(4) == MAGIC


def read_vectors(path: str | Path) -> tuple[list[np.ndarray], FormatSpec | None]:
    """Read vectors from a text or binary container.

    Returns (vectors, fmt) where fmt is None for text input (the caller
    chooses the format) and the header's format for binary input.  A file
    that cannot be opened or read is a DataFormatError.
    """
    try:
        if is_binary_file(path):
            return _read_binary(path)
        return _read_text(path), None
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc.strerror or exc}") from exc


def _read_text(path: str | Path) -> list[np.ndarray]:
    vectors = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
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


def _read_binary(path: str | Path) -> tuple[list[np.ndarray], FormatSpec]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise DataFormatError(f"{path}: truncated header")
    magic, tag, d, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if tag not in _TAG_TO_NAME:
        raise DataFormatError(f"{path}: unknown format tag {tag}")
    if d < 1 or count < 1:
        raise DataFormatError(f"{path}: header declares d={d}, count={count}")
    fmt = FORMATS[_TAG_TO_NAME[tag]]
    payload = raw[_HEADER.size:]
    if fmt.name == "fp32":
        data = np.frombuffer(payload, dtype="<f4")
        values = data.astype(np.float64)
    elif fmt.name == "fp16":
        data = np.frombuffer(payload, dtype="<f2")
        values = data.astype(np.float64)
    else:
        data = np.frombuffer(payload, dtype="<u2")
        values = bits_to_values(data, fmt)
    if values.size != d * count:
        raise DataFormatError(f"{path}: payload holds {values.size} elements, "
                              f"header declares {d * count}")
    return [values[i * d:(i + 1) * d].copy() for i in range(count)], fmt


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
            if fmt.name == "fp32":
                fh.write(flat.astype("<f4").tobytes())
            elif fmt.name == "fp16":
                fh.write(flat.astype("<f2").tobytes())
            else:
                fh.write(values_to_bits(flat, fmt).astype("<u2").tobytes())
    else:
        with open(path, "w") as fh:
            for v in vectors:
                fh.write(",".join(map(repr, np.asarray(v, dtype=np.float64).tolist())))
                fh.write("\n")
