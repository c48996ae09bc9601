"""Bit-exact emulation of FP32, FP16 and BFloat16 scalars.

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

Values outside the datapath (inputs, the binary64 `exact_arithmetic`
iteration, tests) are float64 arrays, and :func:`round_array` rounds a
float64 array from binary64 (p' = 53 also covers all three formats).  The
condition holds for the result of one operation on format values, not for an
arbitrary binary64 value: FP16 therefore rounds binary64 straight to
binary16, while BFloat16 rounds through binary32, which can double-round such
a value (1 + 2^-8 + 2^-40 gives 1, not 1 + 2^-7).  :class:`FpScalar` is the
scalar unit used where individual bit patterns matter (bit inspection, FISR
seeds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "FormatSpec",
    "FpScalar",
    "FP32",
    "FP16",
    "BF16",
    "FORMATS",
    "decompose",
    "compose",
    "split_bits",
    "round_binary",
    "round_value",
    "round_array",
    "values_to_bits",
    "bits_to_values",
    "emu_add",
    "emu_sub",
    "emu_mul",
    "tree_sum",
    "tree_sum_values",
]


@dataclass(frozen=True)
class FormatSpec:
    """Static description of one binary floating-point format."""

    name: str
    exp_bits: int
    mant_bits: int
    bias: int
    total_bits: int

    def __post_init__(self) -> None:
        if self.total_bits != 1 + self.exp_bits + self.mant_bits:
            raise ValueError(f"{self.name}: total_bits must be 1 + exp_bits + mant_bits")
        if self.bias != (1 << (self.exp_bits - 1)) - 1:
            raise ValueError(f"{self.name}: bias must be 2^(exp_bits-1) - 1")

    @property
    def exp_mask(self) -> int:
        return (1 << self.exp_bits) - 1

    @property
    def mant_mask(self) -> int:
        return (1 << self.mant_bits) - 1

    @property
    def min_normal_exp(self) -> int:
        """Smallest unbiased exponent of a normal number (1 - bias)."""
        return 1 - self.bias

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


FP32 = FormatSpec("fp32", exp_bits=8, mant_bits=23, bias=127, total_bits=32)
FP16 = FormatSpec("fp16", exp_bits=5, mant_bits=10, bias=15, total_bits=16)
BF16 = FormatSpec("bf16", exp_bits=8, mant_bits=7, bias=127, total_bits=16)

FORMATS = {f.name: f for f in (FP32, FP16, BF16)}


@dataclass(frozen=True)
class FpScalar:
    """A format-tagged scalar carried as a raw bit pattern."""

    bits: int
    fmt: FormatSpec

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.fmt.total_bits):
            raise ValueError(f"bit pattern {self.bits:#x} out of range for {self.fmt.name}")

    @classmethod
    def from_value(cls, x: float, fmt: FormatSpec) -> "FpScalar":
        return round_binary(x, fmt)

    @property
    def sign(self) -> int:
        return (self.bits >> (self.fmt.total_bits - 1)) & 1

    @property
    def biased_exponent(self) -> int:
        return (self.bits >> self.fmt.mant_bits) & self.fmt.exp_mask

    @property
    def significand_field(self) -> int:
        return self.bits & self.fmt.mant_mask

    @property
    def value(self) -> float:
        """Exact binary64 decode of the bit pattern."""
        fmt = self.fmt
        e = self.biased_exponent
        f = self.significand_field
        if e == fmt.exp_mask:
            mag = math.inf if f == 0 else math.nan
        elif e == 0:
            mag = math.ldexp(f, fmt.quantum_exp)
        else:
            mag = math.ldexp((1 << fmt.mant_bits) + f, e - fmt.bias - fmt.mant_bits)
        return -mag if self.sign and not math.isnan(mag) else mag

    @property
    def is_nan(self) -> bool:
        return self.biased_exponent == self.fmt.exp_mask and self.significand_field != 0

    @property
    def is_inf(self) -> bool:
        return self.biased_exponent == self.fmt.exp_mask and self.significand_field == 0

    @property
    def is_finite(self) -> bool:
        return self.biased_exponent != self.fmt.exp_mask

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"FpScalar({self.bits:#0{2 + self.fmt.total_bits // 4}x}, {self.fmt.name})"


def split_bits(bits: int, fmt: FormatSpec) -> tuple[int, int, int]:
    """Split any bit pattern (including NaN/Inf) into its raw fields."""
    sign = (bits >> (fmt.total_bits - 1)) & 1
    e = (bits >> fmt.mant_bits) & fmt.exp_mask
    f = bits & fmt.mant_mask
    return sign, e, f


def decompose(x: FpScalar) -> tuple[int, int, int]:
    """Return (sign, biased_exponent, significand_field) of a finite scalar.

    NaN and infinity have no sensible exponent/significand reading for the
    initialization formulas, so they are rejected.
    """
    if not x.is_finite:
        raise ValueError(f"cannot decompose non-finite value {x!r}")
    return split_bits(x.bits, x.fmt)


def compose(sign: int, biased_exponent: int, significand_field: int, fmt: FormatSpec) -> FpScalar:
    """Pack raw fields back into a scalar (total: accepts any field values in range)."""
    if sign not in (0, 1):
        raise ValueError("sign must be 0 or 1")
    if not 0 <= biased_exponent <= fmt.exp_mask:
        raise ValueError("biased exponent out of range")
    if not 0 <= significand_field <= fmt.mant_mask:
        raise ValueError("significand field out of range")
    bits = (sign << (fmt.total_bits - 1)) | (biased_exponent << fmt.mant_bits) | significand_field
    return FpScalar(bits, fmt)


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
    dimension; the result has the dtype of `arr`."""
    with np.errstate(over="ignore"):
        if fmt.name == "fp16":
            # binary64 converts straight to binary16: a binary32 step first
            # would double-round arbitrary binary64 values
            return arr.astype(np.float16).astype(arr.dtype)
        f32 = arr.astype(np.float32, copy=False)
    out = f32 if fmt.name == "fp32" else _round_bf16(f32)
    return out.astype(arr.dtype, copy=False)


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


def round_binary(x: float, fmt: FormatSpec) -> FpScalar:
    """Round a binary64 value to the nearest `fmt` scalar (ties to even)."""
    return FpScalar(int(values_to_bits(round_array(x, fmt), fmt)), fmt)


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
            return b.astype(np.uint32).view(np.float32).astype(np.float64)
        if fmt.name == "fp16":
            return b.astype(np.uint16).view(np.float16).astype(np.float64)
        if fmt.name == "bf16":
            return (b.astype(np.uint32) << np.uint32(16)).view(np.float32).astype(np.float64)
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Emulated primitive operations
# ---------------------------------------------------------------------------

def _check_same_format(a: FpScalar, b: FpScalar) -> FormatSpec:
    if a.fmt is not b.fmt and a.fmt != b.fmt:
        raise ValueError(f"format mismatch: {a.fmt.name} vs {b.fmt.name}")
    return a.fmt


def emu_add(a: FpScalar, b: FpScalar) -> FpScalar:
    """a + b with one rounding to the shared format."""
    fmt = _check_same_format(a, b)
    return round_binary(a.value + b.value, fmt)


def emu_sub(a: FpScalar, b: FpScalar) -> FpScalar:
    """a - b with one rounding to the shared format."""
    fmt = _check_same_format(a, b)
    return round_binary(a.value - b.value, fmt)


def emu_mul(a: FpScalar, b: FpScalar) -> FpScalar:
    """a * b with one rounding to the shared format."""
    fmt = _check_same_format(a, b)
    return round_binary(a.value * b.value, fmt)


# ---------------------------------------------------------------------------
# Adder-tree reduction
# ---------------------------------------------------------------------------

def tree_sum_values(values: np.ndarray, fmt: FormatSpec, arity: int = 8) -> np.ndarray:
    """Sum along the last axis in the macro's fixed reduction order.

    Consecutive chunks of ``arity**2`` elements (64 for the default 8-input
    L1/L2 adder trees) are each reduced by a balanced pairwise-adjacent
    binary tree; the per-chunk partial sums are then accumulated
    sequentially in chunk order, mirroring the partial-sum buffer.  The last
    chunk is zero-padded.  Each 2-input add rounds once.

    `values` has shape (..., d); the result drops the last axis and keeps the
    precision of `values` (see :func:`_carried`).
    """
    if arity < 2:
        raise ValueError("arity must be >= 2")
    arr = _carried(values)
    if arr.ndim == 1:
        arr = arr[None, :]
        squeeze = True
    else:
        squeeze = False
    n, d = arr.shape[0], arr.shape[-1]
    chunk = arity * arity
    if d == 0:
        total = np.zeros(arr.shape[:-1], dtype=arr.dtype)
    else:
        nchunk = -(-d // chunk)
        pad = nchunk * chunk - d
        if pad:
            arr = np.concatenate([arr, np.zeros(arr.shape[:-1] + (pad,), dtype=arr.dtype)],
                                 axis=-1)
        level = arr.reshape(arr.shape[:-1] + (nchunk, chunk))
        while level.shape[-1] > 1:
            w = level.shape[-1]
            pairs = round_array(level[..., 0 : w - (w % 2) : 2] + level[..., 1::2], fmt)
            if w % 2:
                pairs = np.concatenate([pairs, level[..., -1:]], axis=-1)
            level = pairs
        partials = np.moveaxis(level[..., 0], -1, 0).copy()  # one contiguous row per chunk
        total = partials[0]
        for part in partials[1:]:
            total = round_array(total + part, fmt)
    return total[0] if squeeze else total


def tree_sum(xs: Sequence[FpScalar], arity: int = 8, fmt: FormatSpec | None = None) -> FpScalar:
    """Adder-tree reduction of scalars; an empty sequence yields format zero."""
    if xs:
        fmt = _check_same_format(xs[0], xs[-1])
        for s in xs:
            _check_same_format(xs[0], s)
    elif fmt is None:
        raise ValueError("empty input needs an explicit fmt")
    else:
        return FpScalar(0, fmt)
    vals = np.array([s.value for s in xs], dtype=np.float64)
    return round_binary(float(tree_sum_values(vals, fmt, arity=arity)), fmt)
