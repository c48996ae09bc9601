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
one min/max check finds whether any element lies there and only those
elements are converted through numpy's binary16.  A sweep of all 2^32
binary32 patterns matched `x.astype(float16).astype(float32)` bit for bit,
NaN patterns included.

Values outside the datapath (inputs, the binary64 iteration that
`norm_core.iterate_values` runs without a format, tests) are float64 arrays,
and :func:`round_array` rounds a float64 array from binary64 (p' = 53 also
covers all three formats).  The condition holds for the result of one
operation on format values, not for an arbitrary binary64 value: FP16
therefore rounds binary64 straight to binary16, while BFloat16 rounds through
binary32, which can double-round such a value (1 + 2^-8 + 2^-40 gives 1, not
1 + 2^-7).  Where bit patterns matter (file I/O, FISR seeds),
:func:`values_to_bits` and :func:`bits_to_values` encode and decode whole
arrays.
"""

from __future__ import annotations

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
        return round_value(math.sqrt(0.5), self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FormatSpec({self.name})"


FP32 = FormatSpec("fp32", exp_bits=8, mant_bits=23)
FP16 = FormatSpec("fp16", exp_bits=5, mant_bits=10)
BF16 = FormatSpec("bf16", exp_bits=8, mant_bits=7)

FORMATS = {f.name: f for f in (FP32, FP16, BF16)}


# ---------------------------------------------------------------------------
# Rounding
# ---------------------------------------------------------------------------

def round_array(x: np.ndarray | float, fmt: FormatSpec) -> np.ndarray:
    """Round values to the nearest representable values of `fmt`.

    Ties to even, subnormals preserved, overflow saturates to infinity.  The
    result keeps the input's precision: a float32 array (the datapath's
    binary32 carry) is rounded from binary32 and returned as float32; any
    other input is rounded from binary64 and returned as float64.  Every
    output is exactly representable in `fmt`.
    """
    if fmt.name not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    arr = _carried(x)
    return _round(arr, fmt) if arr.ndim else _round(arr.reshape(1), fmt).reshape(())


def _round(arr: np.ndarray, fmt: FormatSpec) -> np.ndarray:
    """:func:`round_array` on a float32 or float64 array of at least one
    dimension; the result has the dtype of `arr`.

    FP16 rounds a float32 array by Veltkamp's split (see the module
    docstring), which is exact for 2^-14 <= |x| < 65520; elements outside
    that range are converted through numpy's binary16 instead.  A float64
    array converts straight to binary16: a binary32 step first would
    double-round arbitrary binary64 values."""
    with np.errstate(over="ignore", invalid="ignore"):
        if fmt.name == "fp16":
            if arr.dtype == np.float32:
                return _round_fp16(arr)
            return arr.astype(np.float16).astype(arr.dtype)
        f32 = arr.astype(np.float32, copy=False)
    out = f32 if fmt.name == "fp32" else _round_bf16(f32)
    return out.astype(arr.dtype, copy=False)


_SPLIT = np.float32(2**13 + 1)  # keeps 24 - 13 = 11 significand bits
_FP16_NORMAL = (np.float32(2.0**-14), np.float32(65520.0))  # [min normal, overflow)


def _round_fp16(f32: np.ndarray) -> np.ndarray:
    """Round binary32 values to binary16 with ties to even; returns float32.
    Run with overflow and invalid-operation warnings off: the split of a
    value near the binary32 maximum overflows, and that of +-inf is NaN."""
    t = f32 * _SPLIT
    out = t - f32
    np.subtract(t, out, out=out)
    mag = np.abs(f32, out=t)
    low, high = _FP16_NORMAL
    if mag.size and not (mag.min() >= low and mag.max() < high):  # NaN fails both
        odd = ~((mag >= low) & (mag < high))
        out[odd] = f32[odd].astype(np.float16).astype(np.float32)
    return out


def _round_bf16(f32: np.ndarray) -> np.ndarray:
    """Round binary32 values to bfloat16 with ties to even (the bit trick on
    the binary32 encoding); returns float32."""
    u = f32.view(np.uint32)
    r = u >> 16
    r &= 1
    r += 0x7FFF
    r += u
    r &= 0xFFFF0000
    out = r.view(np.float32)
    if f32.size and np.isnan(f32.max()):
        out[np.isnan(f32)] = np.nan  # encodes to the canonical quiet-NaN pattern 0x7FC0
    return out


def _carried(x: np.ndarray | float) -> np.ndarray:
    """`x` as an array in the precision the datapath carries it in: a float32
    array stays binary32, anything else becomes float64."""
    arr = np.asarray(x)
    return arr if arr.dtype == np.float32 else arr.astype(np.float64, copy=False)


def round_value(x: float, fmt: FormatSpec) -> float:
    """Scalar convenience wrapper around :func:`round_array`."""
    return float(round_array(x, fmt))


def values_to_bits(values: np.ndarray, fmt: FormatSpec) -> np.ndarray:
    """Encode already-representable float64 values into raw bit patterns."""
    arr = np.asarray(values, dtype=np.float64)
    if fmt.name == "fp32":
        return arr.astype(np.float32).view(np.uint32)
    if fmt.name == "fp16":
        return arr.astype(np.float16).view(np.uint16)
    if fmt.name == "bf16":
        return (arr.astype(np.float32).view(np.uint32) >> np.uint32(16)).astype(np.uint16)
    raise ValueError(f"unknown format {fmt!r}")


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
    """Sum along the last axis in the macro's fixed reduction order.

    Consecutive chunks of CHUNK_SIZE elements are each reduced by a balanced
    pairwise-adjacent binary tree; the per-chunk partial sums are then
    accumulated sequentially in chunk order, mirroring the partial-sum
    buffer.  The last chunk is zero-padded.  Each 2-input add rounds once.

    `values` has shape (..., d); the result drops the last axis and keeps the
    precision of `values` (see :func:`_carried`).
    """
    arr = _carried(values)
    if arr.ndim == 1:
        arr = arr[None, :]
        squeeze = True
    else:
        squeeze = False
    d = arr.shape[-1]
    if d == 0:
        total = np.zeros(arr.shape[:-1], dtype=arr.dtype)
    else:
        nchunk = -(-d // CHUNK_SIZE)
        pad = nchunk * CHUNK_SIZE - d
        if pad:
            arr = np.concatenate([arr, np.zeros(arr.shape[:-1] + (pad,), dtype=arr.dtype)],
                                 axis=-1)
        level = arr.reshape(arr.shape[:-1] + (nchunk, CHUNK_SIZE))
        while level.shape[-1] > 1:  # CHUNK_SIZE is a power of two: no odd level
            level = round_array(level[..., 0::2] + level[..., 1::2], fmt)
        partials = np.moveaxis(level[..., 0], -1, 0).copy()  # one contiguous row per chunk
        total = partials[0]
        for part in partials[1:]:
            total = round_array(total + part, fmt)
    return total[0] if squeeze else total

