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

FP16 rounds with Veltkamp's split (Dekker, "A floating-point technique for
extending the available precision", 1971): with t = x * (2^13 + 1) in
binary32, or t = x * (2^42 + 1) in binary64, t - (t - x) is x rounded to
its 11 leading bits, ties to even, which is x rounded to binary16 wherever
binary16 is normal, 2^-14 <= |x| < 65520, and +-0 for +-0.  Outside that
range (subnormals, values that overflow, +-inf and NaN) the split is wrong
(it keeps 11 bits below 2^-14, gives 65536 at and above 65520, and NaN for
+-inf), so one min/max check finds whether any element lies there, and
only those elements are converted through numpy's binary16 and patched in
by index.  A sweep of all 2^32 binary32 patterns matched
`x.astype(float16).astype(float32)` bit for bit, NaN patterns included; in
binary64, every binary16 tie, the values next to each tie and 4.9M random
values matched `x.astype(float16).astype(float64)`.

Binary32 holds every FP32, FP16 and BFloat16 value exactly, so the carry
runs from file to file: :func:`bits_to_binary32` decodes a binary file's
patterns into float32 (fp32 patterns without a copy), and
:func:`values_to_bits` encodes the datapath's float32 outputs as they are
(fp32 is a view, bf16 the high half of each pattern, FP16 a rebiased
binary32 pattern, with only the values outside binary16's normal range
encoded through numpy's binary16).  Values outside the datapath (text
inputs, the binary64 iteration that `norm_core.iterate_values` runs
without a format, the reference, tests) are float64 arrays, and
:func:`round_array` rounds a float64 array from binary64 (p' = 53 also
covers all three formats); :func:`bits_to_values` decodes into float64.
The condition holds for the result of one operation on format values, not
for an arbitrary binary64 value: FP16 therefore splits binary64 in
binary64, while BFloat16 rounds through binary32, which can double-round
such a value (1 + 2^-8 + 2^-40 gives 1, not 1 + 2^-7).

Floating-point warnings: FP16 enters `np.errstate` only once the min/max
check has found an element outside the normal range, where the split can
overflow or meet inf - inf.  The bfloat16 trick is integer arithmetic and
cannot warn.  Narrowing a float64 array to binary32 for fp32 or bf16 is
the one other step that can: a finite binary64 value can overflow the
format, and a signaling NaN raises the invalid-operation flag.

Memory: `round_array(x, fmt, out=o)` writes the rounding into `o`, which
may be `x` itself; the adder-tree levels, the datapath's stages, the
reference's output and the experiments' input draws round in place that
way.  A rounding is five to eight numpy passes, so into a C-contiguous `o`
of more than one block (_BLOCK elements) it walks `x` and `o` block by
block, and every pass reads its block from the L2 cache, not the whole
array from L3.  Each block allocates its own temporaries, which the
allocator hands back for the next block.  Constants the macro keeps
pre-stored (1/d, sqrt(d), 2^-1/2) are rounded once per value and format
(:func:`stored_constant`).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np


class FormatSpec(NamedTuple):
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

    `out`, when given, is an array of the result's dtype and shape (any
    other is a ValueError) that receives the result and is returned; it may
    be `x` itself, which then is rounded in place.  Without `out` the
    result is a new array, except that a float32 array rounded to fp32 is
    returned as it is.
    """
    if fmt.name not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    arr = _carried(x)
    if out is not None and out is not arr and (not isinstance(out, np.ndarray)
                                               or out.dtype != arr.dtype
                                               or out.shape != arr.shape):
        raise ValueError(f"out must be a {arr.dtype} array of shape {arr.shape}, not "
                         f"{getattr(out, 'dtype', type(out).__name__)} {np.shape(out)}")
    if fmt.name == "fp32" and arr.dtype == np.float32:
        if out is None or out is arr:
            return arr
        np.copyto(out, arr)
        return out
    if not arr.ndim:  # a ufunc on a 0-d array returns a scalar, not an array
        one = _round_block(arr.reshape(1), fmt, None if out is None else out.reshape(1))
        return one.reshape(()) if out is None else out
    if out is None or arr.size <= _BLOCK or not (arr.flags.c_contiguous
                                                 and out.flags.c_contiguous):
        return _round_block(arr, fmt, out)
    if out is not arr and np.may_share_memory(arr, out):
        arr = arr.copy()  # a block must not overwrite what a later block reads
    src, dst = arr.reshape(-1), out.reshape(-1)
    for lo in range(0, src.size, _BLOCK):
        _round_block(src[lo:lo + _BLOCK], fmt, dst[lo:lo + _BLOCK])
    return out


# Elements per block when a rounding writes into a given C-contiguous `out`:
# each block's five to eight passes, and its temporaries, stay in the core's
# L2 cache instead of streaming the whole array from L3 once per pass.
_BLOCK = 1 << 16


def _round_block(src: np.ndarray, fmt: FormatSpec, dst: np.ndarray | None) -> np.ndarray:
    """Round `src`, of at least one dimension, to `fmt` (fp16 or bf16, or
    float64 to fp32) into `dst` (None: a new array), which may overlap
    `src`; returns the result.  FP16 splits float64 in binary64; for fp32
    and bf16 a float64 `src` is narrowed to binary32, rounded there and
    widened into `dst`."""
    if fmt.name == "fp16":
        return _round_fp16(src, dst)
    if src.dtype == np.float32:
        return _round_bf16(src, dst)
    # a finite binary64 value can overflow the format, and a signaling NaN
    # raises the invalid-operation flag
    with np.errstate(over="ignore", invalid="ignore"):
        f32 = src.astype(np.float32)
    if fmt.name == "bf16":
        _round_bf16(f32, f32)
    if dst is None:
        return f32.astype(np.float64)
    np.copyto(dst, f32)
    return dst


# Veltkamp's split t = x * (2^s + 1) keeps p - s = 11 significand bits of a
# binary32 (p = 24) or binary64 (p = 53) x.
_SPLIT32, _SPLIT64 = np.float32(2**13 + 1), np.float64(2**42 + 1)
_FP16_NORMAL = (np.float32(2.0**-14), np.float32(65520.0))  # [min normal, overflow)


def _outside_fp16_normal(mag: np.ndarray, zeros: bool = False) -> np.ndarray | None:
    """The flat (C-order) indices of the elements of `mag` (absolute values)
    that lie outside binary16's normal range [2^-14, 65520) (zeros,
    subnormals, overflow, +-inf and NaN), or None when there is none, or,
    with `zeros`, none but zeros: one min/max check decides, and only then
    is each element compared.  Under a minimum of 0, the elements below
    2^-14 are all zeros when they are as many as the zeros."""
    low, high = _FP16_NORMAL
    if not mag.size:
        return None
    least = mag.min()
    if (least >= low or (zeros and least == 0)) and mag.max() < high:  # NaN fails both
        if least >= low or np.count_nonzero(mag < low) == np.count_nonzero(mag == 0):
            return None
    return np.flatnonzero(~((mag >= low) & (mag < high)))


def _round_fp16(x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Round binary32 or binary64 values to binary16 with ties to even into
    `out` (None: a new array); the result has x's dtype.  Veltkamp's split
    rounds every element, and maps +-0 to itself: unless an element other
    than a zero lies outside binary16's normal range, that is all.  Else
    the elements outside it, zeros included, are patched by index with
    numpy's binary16 conversion.  Only then can the split warn: it
    overflows near the carry's maximum and gives inf - inf for +-inf."""
    t = np.abs(x)
    odd = _outside_fp16_normal(t, zeros=True)
    if odd is None:
        return _veltkamp(x, t, out)
    with np.errstate(over="ignore", invalid="ignore"):
        exact = x.flat[odd].astype(np.float16)  # read before `out` may overwrite x
        out = _veltkamp(x, t, out)
    out.flat[odd] = exact
    return out


def _veltkamp(x: np.ndarray, t: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """x rounded to 11 significand bits, ties to even, by Veltkamp's split
    t = x * (2^s + 1), x' = t - (t - x); `t` is scratch of x's shape and
    dtype and `out` is as in `_round_fp16`."""
    np.multiply(x, _SPLIT32 if x.dtype == np.float32 else _SPLIT64, out=t)
    out = np.subtract(t, x, out=out)
    return np.subtract(t, out, out=out)


_U16, _LSB, _HALF, _HIGH = (np.uint32(v) for v in (16, 1, 0x7FFF, 0xFFFF0000))


def _bf16_bits(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The binary32 patterns `u` (uint32) rounded to bfloat16 with ties to
    even, as binary32 patterns, into `out` (a uint32 array of u's shape,
    which may be `u`; None: a new array): add 0x7FFF plus the lowest kept
    bit, then clear the low 16 bits.  Integer arithmetic, so it cannot
    warn; it rounds a NaN pattern wrongly, and the callers see to NaNs."""
    r = u >> _U16
    r &= _LSB
    r += _HALF
    bits = np.add(u, r, out=r if out is None else out)
    bits &= _HIGH
    return bits


def _round_bf16(f32: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Round binary32 values to bfloat16 with ties to even (`_bf16_bits`)
    into `out` (None: a new array); the result is float32.  A NaN element
    becomes the canonical quiet NaN, pattern 0x7FC0."""
    nan = np.flatnonzero(np.isnan(f32)) if f32.size and math.isnan(f32.max()) else None
    bits = _bf16_bits(f32.view(np.uint32), None if out is None else out.view(np.uint32))
    out = bits.view(np.float32) if out is None else out
    if nan is not None:
        out.flat[nan] = np.nan
    return out


def _carried(x: np.ndarray | float) -> np.ndarray:
    """`x` as an array in the precision the datapath carries it in: a float32
    array stays binary32, anything else becomes float64."""
    arr = np.asarray(x)
    return arr if arr.dtype == np.float32 else arr.astype(np.float64, copy=False)


@functools.lru_cache(maxsize=4096)
def stored_constant(x: float, fmt: FormatSpec) -> float:
    """`x` rounded to `fmt`, as a float, for a constant the macro keeps
    pre-stored (1/d, sqrt(d), 2^-1/2), rounded once per value and format.
    It rounds through `_round_block`, not `round_array`, so a cached or a
    fresh constant makes the same `round_array` calls."""
    if fmt.name not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    return float(_round_block(np.array([x], dtype=np.float64), fmt, None)[0])


def representable(v, fmt: FormatSpec) -> bool:
    """Whether `fmt` holds every value of `v` (NaN and the infinities
    included).  The check rounds _BLOCK elements at a time, one
    `round_array` call each, so it adds no temporary of the array's size."""
    flat = np.asarray(v).reshape(-1)
    for lo in range(0, flat.size, _BLOCK):
        part = flat[lo:lo + _BLOCK]
        same = round_array(part, fmt) == part
        if not same.all() and not (same | np.isnan(part)).all():  # NaN != NaN
            return False
    return True


def values_to_bits(values: np.ndarray, fmt: FormatSpec) -> np.ndarray:
    """Encode already-representable values into raw bit patterns.

    A float32 array (the datapath's binary32 carry) is encoded as it is: an
    fp32 pattern is its binary32 pattern, a bf16 pattern the high 16 bits
    of it; any other input is read as float64.  A signaling NaN keeps its
    pattern in a float32 array and in FP16 (see `_fp16_bits`), but is
    quieted when fp32 or bf16 narrows it from float64."""
    arr = _carried(values)
    if fmt.name == "fp32":
        return arr.astype(np.float32, copy=False).view(np.uint32)
    if fmt.name == "fp16":
        return _fp16_bits(arr.ravel()).reshape(arr.shape)
    if fmt.name == "bf16":
        return (arr.astype(np.float32, copy=False).view(np.uint32) >> _U16).astype(np.uint16)
    raise ValueError(f"unknown format {fmt!r}")


_REBIAS = np.uint32((127 - 15) << 10)  # binary32 minus binary16 exponent bias, at bit 10


def _fp16_bits(arr: np.ndarray) -> np.ndarray:
    """The binary16 patterns of the binary16 values `arr` (float32 or
    float64, 1-D).  A normal value is its binary32 pattern shifted right by
    the 13 fraction bits binary16 lacks, with the exponent rebiased and the
    sign moved to bit 15; zeros, subnormals, +-inf and NaN are encoded by
    numpy's binary16 conversion of `arr`, which keeps NaN payloads."""
    f32 = arr
    if arr.dtype != np.float32:
        with np.errstate(invalid="ignore"):  # a signaling NaN narrows to a quiet one
            f32 = arr.astype(np.float32)  # exact for every other binary16 value
    u = f32.view(np.uint32)
    sign = u >> _U16
    sign &= np.uint32(0x8000)
    h = u >> np.uint32(13)
    h -= _REBIAS
    h |= sign
    bits = h.astype(np.uint16)  # drops the binary32 sign, now at bit 18
    odd = _outside_fp16_normal(np.abs(f32, out=sign.view(np.float32)))
    if odd is not None:
        bits[odd] = arr[odd].astype(np.float16).view(np.uint16)
    return bits


def bits_to_binary32(bits: np.ndarray, fmt: FormatSpec) -> np.ndarray:
    """Decode raw bit patterns into float32 values, which hold every fp32,
    fp16 and bf16 value exactly, signaling NaN patterns included.  fp32
    patterns are viewed as float32, without a copy, when `bits` is already
    a uint32 array."""
    b = np.asarray(bits)
    if fmt.name == "fp32":
        return b.astype(np.uint32, copy=False).view(np.float32)
    if fmt.name == "fp16":
        return b.astype(np.uint16, copy=False).view(np.float16).astype(np.float32)
    if fmt.name == "bf16":
        u = b.astype(np.uint32)
        u <<= _U16
        return u.view(np.float32)
    raise ValueError(f"unknown format {fmt!r}")


def bits_to_values(bits: np.ndarray, fmt: FormatSpec) -> np.ndarray:
    """Decode raw bit patterns into exact float64 values."""
    # signaling-NaN patterns raise FE_INVALID when widened; the decode is
    # still the correct NaN value
    with np.errstate(invalid="ignore"):
        if fmt.name != "fp16":
            return bits_to_binary32(bits, fmt).astype(np.float64)
        # straight from binary16, whose signaling NaNs then stay signaling
        return np.asarray(bits).astype(np.uint16, copy=False).view(np.float16).astype(np.float64)


# ---------------------------------------------------------------------------
# Adder-tree reduction
# ---------------------------------------------------------------------------

# The macro's reduction unit: two levels of 8-input adder trees.
CHUNK_SIZE = 64


def tree_sum_values(values: np.ndarray | list[np.ndarray], fmt: FormatSpec) -> np.ndarray:
    """Sum each row of `values`, shape (n, d) with d >= 1, or of each of
    several such parts (a list of arrays, each of its own d), in the
    macro's fixed reduction order.

    Consecutive chunks of CHUNK_SIZE elements are each reduced by a balanced
    pairwise-adjacent binary tree; the per-chunk partial sums are then
    accumulated sequentially in chunk order, mirroring the partial-sum
    buffer.  The last chunk is zero-padded.  Each 2-input add rounds once.

    The result has one sum per row, the rows of the parts in order, and the
    precision of `values` (see :func:`_carried`; float64 if any part is not
    float32).  The first level adds adjacent pairs, and no pair straddles
    two chunks, so each part adds it straight from its rows, into its own
    rows of one chunk array shared by every part, without padding them: the
    pairs of each row, then, for an odd d, the last element plus a pad
    zero, then the zero sums of the pad.  The other levels run once over
    that array, each rounded in place.  The chain (`_accumulate`) then runs
    once over a (most chunks, rows) matrix of the partial sums, in which a
    row of fewer chunks is padded with -0: x + (-0) is x for every x, so a
    pad changes no sum, and -0 is finite, so it keeps every shortcut of the
    chain.  For one part that matrix is the transposed partials, unpadded.
    """
    parts = [_carried(v) for v in values] if isinstance(values, list) else [_carried(values)]
    dtype = np.result_type(*parts)
    shapes = [(p.shape[0], -(-p.shape[1] // CHUNK_SIZE)) for p in parts]  # (rows, chunks)
    level = np.empty((sum(n * c for n, c in shapes), CHUNK_SIZE // 2), dtype=dtype)
    start = 0
    for arr, (n, nchunk) in zip(parts, shapes):
        d, half = arr.shape[1], arr.shape[1] // 2
        part = level[start:start + n * nchunk].reshape(n, nchunk * CHUNK_SIZE // 2)
        start += n * nchunk
        np.add(arr[:, 0:2 * half:2], arr[:, 1:2 * half:2], out=part[:, :half])
        if d % 2:
            np.add(arr[:, -1], 0.0, out=part[:, half])  # -0 + 0 is +0
        part[:, d - half:] = 0.0
    round_array(level, fmt, out=level)
    while level.shape[-1] > 1:  # CHUNK_SIZE is a power of two: no odd level
        level = level[:, 0::2] + level[:, 1::2]
        round_array(level, fmt, out=level)
    sums = level[:, 0]
    # one contiguous row per chunk, one column per row of every part
    chain = np.full((max(c for _, c in shapes), sum(n for n, _ in shapes)), -0.0, dtype=dtype)
    start = row = 0
    for n, nchunk in shapes:
        chain[:nchunk, row:row + n] = sums[start:start + n * nchunk].reshape(n, nchunk).T
        start, row = start + n * nchunk, row + n
    return _accumulate(chain, fmt)


def _accumulate(partials: np.ndarray, fmt: FormatSpec) -> np.ndarray:
    """The rounded sequential sum of the rows of `partials`, shape
    (nchunk, n), with one rounding per add: the partial-sum chain.

    Its steps depend on each other, so each costs numpy calls on only n
    elements, and the binary32 carry takes shortcuts that give the same
    bits as rounding each step with :func:`round_array`: fp32 needs no
    rounding at all, so `np.add.accumulate` (sequential by definition) runs
    the whole chain; bf16 rounds each step in place with `_bf16_bits`,
    once every partial is finite.  A finite sum then saturates to +-inf,
    and inf plus a finite value stays inf, so no step meets the NaN that
    the trick alone would round wrongly.  Other inputs round each step with
    `round_array`, into the first row."""
    if partials.dtype == np.float32 and fmt.name == "fp32":
        return np.add.accumulate(partials, axis=0)[-1]
    total = partials[0]
    if partials.dtype == np.float32 and fmt.name == "bf16" and np.isfinite(partials).all():
        u = total.view(np.uint32)
        for part in partials[1:]:
            np.add(total, part, out=total)
            _bf16_bits(u, u)
        return total
    for part in partials[1:]:
        np.add(total, part, out=total)
        round_array(total, fmt, out=total)
    return total
