"""Bit-exact emulation of FP32, FP16 and BFloat16 arithmetic.

Every emulated operation rounds its exact result once to the target format
with round-to-nearest, ties-to-even, as a one-rounding-per-op hardware FPU
does.

The layer-norm datapath carries format values in float32 numpy arrays: each
+, - or * is one native binary32 ufunc, and :func:`round_array` then rounds
the binary32 result to the format.  Rounding first to an intermediate
precision p' and then to the target precision p gives the correctly rounded
result of one such operation whenever p' >= 2p + 2 (Figueroa, "When is
double rounding innocuous?", SIGNUM 1995).  Binary32 has p' = 24: enough
for FP16 (2*11 + 2 = 24) and BFloat16 (2*8 + 2 = 18); for FP32 the binary32
ufunc is itself the one correctly rounded operation.  Overflow in binary32
gives the same infinity the format's rounding gives.

FP16 rounds a binary32 array with Veltkamp's split (Dekker, "A
floating-point technique for extending the available precision", 1971):
with t = x * (2^13 + 1), the binary32 value t - (t - x) is x rounded to its
11 leading bits, ties to even, which is x rounded to binary16 wherever
binary16 is normal, 2^-14 <= |x| < 65520.  Outside that range (zeros,
subnormals, values that overflow, +-inf and NaN) the split is wrong (it keeps
11 bits below 2^-14, gives 65536 at and above 65520, and NaN for +-inf), so
one min/max check finds whether any element lies there, and only those
elements are converted through numpy's binary16 and patched in by index.  A
sweep of all 2^32 binary32 patterns matched
`x.astype(float16).astype(float32)` bit for bit, NaN patterns included.

Values outside the datapath (inputs, the binary64 iteration that
`norm_core.iterate_values` runs without a format, tests) are float64 arrays,
and :func:`round_array` rounds a float64 array from binary64 (p' = 53 also
covers all three formats).  The condition holds for the result of one
operation on format values, not for an arbitrary binary64 value: FP16
therefore rounds binary64 straight to binary16, while BFloat16 rounds through
binary32, which can double-round such a value (1 + 2^-8 + 2^-40 gives 1, not
1 + 2^-7).  Where bit patterns matter (file I/O, FISR seeds),
:func:`values_to_bits` and :func:`bits_to_values` encode and decode whole
arrays; FP16 encodes a normal value by rebiasing its binary32 pattern and
only the others through numpy's binary16.

Floating-point warnings: rounding a float32 array enters `np.errstate` only
for FP16, and only once the min/max check has found an element outside the
normal range, where the split can overflow or meet inf - inf.  The bfloat16
trick is integer arithmetic and cannot warn.  Rounding a float64 array
narrows it under `np.errstate`: a finite binary64 value can overflow the
format.  `round_array(x, fmt, out=o)` writes the rounding into `o`, which
may be `x` itself; the adder-tree walk, the reference's output and the
experiments' input draws round in place that way instead of allocating a
new array per rounding.  Constants the macro keeps pre-stored (1/d, sqrt(d),
2^-1/2) are rounded once per value and format (:func:`stored_constant`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FormatSpec:
    """Static description of one binary floating-point format."""

    name: str
    exp_bits: int
    mant_bits: int

    @property
    def bias(self) -> int:
        return (1 << (self.exp_bits - 1)) - 1

    @property
    def total_bits(self) -> int:
        return 1 + self.exp_bits + self.mant_bits

    @property
    def exp_mask(self) -> int:
        return (1 << self.exp_bits) - 1

    @property
    def quantum_exp(self) -> int:
        """Unbiased exponent of the smallest subnormal step."""
        return 1 - self.bias - self.mant_bits

    @property
    def max_finite(self) -> float:
        return math.ldexp(2.0 - math.ldexp(1.0, -self.mant_bits), self.bias)

    @property
    def inv_sqrt2(self) -> float:
        """The pre-stored constant round(2^-1/2) in this format."""
        return stored_constant(math.sqrt(0.5), self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FormatSpec({self.name})"


FP32 = FormatSpec("fp32", exp_bits=8, mant_bits=23)
FP16 = FormatSpec("fp16", exp_bits=5, mant_bits=10)
BF16 = FormatSpec("bf16", exp_bits=8, mant_bits=7)

FORMATS = {f.name: f for f in (FP32, FP16, BF16)}


# ---------------------------------------------------------------------------
# Rounding
# ---------------------------------------------------------------------------

def round_array(x: np.ndarray | float, fmt: FormatSpec,
                out: np.ndarray | None = None) -> np.ndarray:
    """Round values to the nearest representable values of `fmt`.

    Ties to even, subnormals preserved, overflow saturates to infinity.  The
    result keeps the input's precision: a float32 array (the datapath's
    binary32 carry) is rounded from binary32 and returned as float32; any
    other input is rounded from binary64 and returned as float64.  Every
    output is exactly representable in `fmt`.

    `out`, when given, is an array of the result's dtype and shape that
    receives the result and is returned; it may be `x` itself, which then
    is rounded in place.  Without `out` the result is a new array, except
    that a float32 array rounded to fp32 is returned as it is.
    """
    if fmt.name not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    arr = _carried(x)
    if arr.ndim:
        return _round(arr, fmt, out)
    if out is None:
        return _round(arr.reshape(1), fmt, None).reshape(())
    _round(arr.reshape(1), fmt, out.reshape(1))
    return out


def _round(arr: np.ndarray, fmt: FormatSpec, out: np.ndarray | None) -> np.ndarray:
    """:func:`round_array` on a float32 or float64 array of at least one
    dimension, into `out` (None, `arr`, or another array of its dtype and
    shape); returns the result.

    A float32 array warns of nothing: the bfloat16 trick is integer
    arithmetic, and FP16 enters `np.errstate` only when some element lies
    outside binary16's normal range (see `_round_fp16`).  A float64 array
    narrows under `np.errstate`: a finite binary64 value can overflow the
    format, and a signaling NaN raises the invalid-operation flag.  FP16
    narrows float64 straight to binary16: a binary32 step first would
    double-round arbitrary binary64 values."""
    if arr.dtype == np.float32:
        if fmt.name == "fp16":
            return _round_fp16(arr, out)
        if fmt.name == "bf16":
            return _round_bf16(arr, out)
        if out is None or out is arr:
            return arr
        np.copyto(out, arr)
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        narrow = arr.astype(np.float16 if fmt.name == "fp16" else np.float32)
    if fmt.name == "bf16":
        _round_bf16(narrow, narrow)
    if out is None:
        return narrow.astype(arr.dtype)
    np.copyto(out, narrow)
    return out


_SPLIT = np.float32(2**13 + 1)  # keeps 24 - 13 = 11 significand bits
_FP16_NORMAL = (np.float32(2.0**-14), np.float32(65520.0))  # [min normal, overflow)


def _outside_fp16_normal(mag: np.ndarray) -> np.ndarray | None:
    """The flat (C-order) indices of the elements of `mag` (absolute values)
    that lie outside binary16's normal range [2^-14, 65520) (zeros,
    subnormals, overflow, +-inf and NaN), or None when there is none: one
    min/max check decides, and only then is each element compared."""
    low, high = _FP16_NORMAL
    if not mag.size or (mag.min() >= low and mag.max() < high):  # NaN fails both
        return None
    return np.flatnonzero(~((mag >= low) & (mag < high)))


def _round_fp16(f32: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Round binary32 values to binary16 with ties to even into `out` (see
    `_round`); the result is float32.  Veltkamp's split rounds every
    element; the elements outside binary16's normal range are then patched
    by index with numpy's binary16 conversion.  Only then can the split
    warn: it overflows near the binary32 maximum and gives inf - inf for
    +-inf."""
    t = np.abs(f32)
    odd = _outside_fp16_normal(t)
    if odd is None:
        return _veltkamp(f32, t, out)
    with np.errstate(over="ignore", invalid="ignore"):
        exact = f32.flat[odd].astype(np.float16)  # read before `out` may overwrite f32
        out = _veltkamp(f32, t, out)
    out.flat[odd] = exact
    return out


def _veltkamp(f32: np.ndarray, t: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """f32 rounded to 11 significand bits, ties to even, by Veltkamp's split
    t = x * (2^13 + 1), x' = t - (t - x); `t` is scratch of f32's shape and
    `out` is as in `_round`."""
    np.multiply(f32, _SPLIT, out=t)
    out = np.subtract(t, f32, out=out)
    return np.subtract(t, out, out=out)


_U16, _LSB, _HALF, _HIGH = (np.uint32(v) for v in (16, 1, 0x7FFF, 0xFFFF0000))


def _round_bf16(f32: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Round binary32 values to bfloat16 with ties to even (the bit trick on
    the binary32 encoding) into `out` (see `_round`); the result is float32.
    A NaN element becomes the canonical quiet NaN, pattern 0x7FC0."""
    nan = np.flatnonzero(np.isnan(f32)) if f32.size and math.isnan(f32.max()) else None
    u = f32.view(np.uint32)
    r = u >> _U16
    r &= _LSB
    r += _HALF
    bits = np.add(r, u, out=r if out is None else out.view(np.uint32))
    bits &= _HIGH
    if out is None:
        out = bits.view(np.float32)
    if nan is not None:
        out.flat[nan] = np.nan
    return out


def _carried(x: np.ndarray | float) -> np.ndarray:
    """`x` as an array in the precision the datapath carries it in: a float32
    array stays binary32, anything else becomes float64."""
    arr = np.asarray(x)
    return arr if arr.dtype == np.float32 else arr.astype(np.float64, copy=False)


def round_value(x: float, fmt: FormatSpec) -> float:
    """Scalar convenience wrapper around :func:`round_array`."""
    return float(round_array(x, fmt))


@functools.lru_cache(maxsize=4096)
def stored_constant(x: float, fmt: FormatSpec) -> float:
    """`round_value(x, fmt)` of a constant the macro keeps pre-stored (1/d,
    sqrt(d), 2^-1/2), rounded once per value and format.  It rounds through
    `_round`, not `round_array`, so a cached or a fresh constant makes the
    same `round_array` calls."""
    if fmt.name not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    return float(_round(np.array([x], dtype=np.float64), fmt, None)[0])


def values_to_bits(values: np.ndarray, fmt: FormatSpec) -> np.ndarray:
    """Encode already-representable float64 values into raw bit patterns."""
    arr = np.asarray(values, dtype=np.float64)
    if fmt.name == "fp32":
        return arr.astype(np.float32).view(np.uint32)
    if fmt.name == "fp16":
        return _fp16_bits(arr.ravel()).reshape(arr.shape)
    if fmt.name == "bf16":
        return (arr.astype(np.float32).view(np.uint32) >> np.uint32(16)).astype(np.uint16)
    raise ValueError(f"unknown format {fmt!r}")


_REBIAS = np.uint32((127 - 15) << 10)  # binary32 minus binary16 exponent bias, at bit 10


def _fp16_bits(arr: np.ndarray) -> np.ndarray:
    """The binary16 patterns of the binary16 values `arr` (float64, 1-D).  A
    normal value is its binary32 pattern shifted right by the 13 fraction
    bits binary16 lacks, with the exponent rebiased and the sign moved to
    bit 15; zeros, subnormals, +-inf and NaN are encoded by numpy's
    binary16 conversion, which keeps NaN payloads."""
    with np.errstate(invalid="ignore"):  # a signaling NaN narrows to a quiet one
        f32 = arr.astype(np.float32)  # exact for every other binary16 value
    u = f32.view(np.uint32)
    h = u >> np.uint32(13)
    h -= _REBIAS
    h |= (u >> _U16) & np.uint32(0x8000)
    bits = h.astype(np.uint16)  # drops the binary32 sign, now at bit 18
    odd = _outside_fp16_normal(np.abs(f32, out=f32))
    if odd is not None:
        bits[odd] = arr[odd].astype(np.float16).view(np.uint16)
    return bits


def bits_to_values(bits: np.ndarray, fmt: FormatSpec) -> np.ndarray:
    """Decode raw bit patterns into exact float64 values."""
    b = np.asarray(bits)
    # signaling-NaN patterns raise FE_INVALID when widened; the decode is
    # still the correct NaN value
    with np.errstate(invalid="ignore"):
        if fmt.name == "fp32":
            return b.astype(np.uint32, copy=False).view(np.float32).astype(np.float64)
        if fmt.name == "fp16":
            return b.astype(np.uint16, copy=False).view(np.float16).astype(np.float64)
        if fmt.name == "bf16":
            return (b.astype(np.uint32) << np.uint32(16)).view(np.float32).astype(np.float64)
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Adder-tree reduction
# ---------------------------------------------------------------------------

# The macro's reduction unit: two levels of 8-input adder trees.
CHUNK_SIZE = 64


def tree_sum_values(values: np.ndarray, fmt: FormatSpec) -> np.ndarray:
    """Sum each row of `values`, shape (n, d) with d >= 1, in the macro's
    fixed reduction order.

    Consecutive chunks of CHUNK_SIZE elements are each reduced by a balanced
    pairwise-adjacent binary tree; the per-chunk partial sums are then
    accumulated sequentially in chunk order, mirroring the partial-sum
    buffer.  The last chunk is zero-padded.  Each 2-input add rounds once.

    The result has shape (n,) and the precision of `values` (see
    :func:`_carried`).  Each tree level and each accumulation step is
    rounded in place, the steps into one row of partial sums.
    """
    arr = _carried(values)
    n, d = arr.shape
    nchunk = -(-d // CHUNK_SIZE)
    pad = nchunk * CHUNK_SIZE - d
    if pad:
        arr = np.concatenate([arr, np.zeros((n, pad), dtype=arr.dtype)], axis=1)
    level = arr.reshape(n, nchunk, CHUNK_SIZE)
    while level.shape[-1] > 1:  # CHUNK_SIZE is a power of two: no odd level
        level = level[..., 0::2] + level[..., 1::2]
        round_array(level, fmt, out=level)
    partials = level[..., 0].T.copy()  # one contiguous row per chunk
    total = partials[0]
    for part in partials[1:]:
        np.add(total, part, out=total)
        round_array(total, fmt, out=total)
    return total
