import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterl2norm import fpformat
from iterl2norm.fpformat import (
    BF16,
    FP16,
    FP32,
    bits_to_values,
    representable,
    round_array,
    tree_sum_values,
    values_to_bits,
)

from oracles import (
    exp_mask,
    max_finite,
    oracle_op,
    oracle_op_fast,
    oracle_round,
    oracle_value,
    quantum_exp,
    round_value,
    split_fields,
)

ALL_FORMATS = [FP32, FP16, BF16]


def finite_bits(fmt, rng, n):
    """n random finite bit patterns of fmt."""
    bits = rng.integers(0, 1 << fmt.total_bits, size=2 * n, dtype=np.uint64)
    exp = (bits >> fmt.mant_bits) & exp_mask(fmt)
    bits = bits[exp != exp_mask(fmt)][:n]
    return bits.astype(np.int64)


def rounded_bits(x, fmt):
    """Bit patterns of `x` rounded to fmt."""
    return values_to_bits(round_array(x, fmt), fmt)


def emulate(ufunc, a_bits, b_bits, fmt, carry=np.float64):
    """One FPU op on bit patterns: the exact decoded operands in the `carry`
    precision, one native `ufunc`, one rounding to fmt by round_array."""
    va = bits_to_values(a_bits, fmt).astype(carry)
    vb = bits_to_values(b_bits, fmt).astype(carry)
    with np.errstate(over="ignore", invalid="ignore"):
        return values_to_bits(round_array(ufunc(va, vb), fmt), fmt)


def emu_add(a_bits, b_bits, fmt, carry=np.float64):
    return emulate(np.add, a_bits, b_bits, fmt, carry)


def emu_sub(a_bits, b_bits, fmt, carry=np.float64):
    return emulate(np.subtract, a_bits, b_bits, fmt, carry)


def emu_mul(a_bits, b_bits, fmt, carry=np.float64):
    return emulate(np.multiply, a_bits, b_bits, fmt, carry)


def is_nan_bits(bits, fmt):
    _, e, f = split_fields(int(bits), fmt)
    return e == exp_mask(fmt) and f != 0


class TestFormatSpec:
    def test_known_layouts(self):
        assert (FP32.exp_bits, FP32.mant_bits, FP32.bias, FP32.total_bits) == (8, 23, 127, 32)
        assert (FP16.exp_bits, FP16.mant_bits, FP16.bias, FP16.total_bits) == (5, 10, 15, 16)
        assert (BF16.exp_bits, BF16.mant_bits, BF16.bias, BF16.total_bits) == (8, 7, 127, 16)

    def test_max_finite(self):
        assert max_finite(FP16) == 65504.0
        assert max_finite(FP32) == float(np.finfo(np.float32).max)


class TestDecomposeCompose:
    """The bit codec's field layout: sign, biased exponent and significand
    field of encoded values, and the value each pattern decodes to."""

    def test_fp32_five(self):
        assert split_fields(int(rounded_bits(5.0, FP32)), FP32) == (0, 129, 0x200000)

    def test_fp32_one(self):
        assert split_fields(int(rounded_bits(1.0, FP32)), FP32) == (0, 127, 0)

    def test_bf16_one(self):
        # BF16 shares the 8-bit exponent and bias 127
        assert split_fields(int(rounded_bits(1.0, BF16)), BF16) == (0, 127, 0)

    @pytest.mark.parametrize("fmt", [FP16, BF16])
    def test_roundtrip_exhaustive_16bit(self, fmt):
        # every one of the 2^16 patterns decodes to the value its fields
        # spell: the rational oracle's value when finite, else +-inf or NaN
        vals = bits_to_values(np.arange(1 << 16), fmt)
        mismatches = 0
        for bits, v in enumerate(vals.tolist()):
            sign, e, f = split_fields(bits, fmt)
            if e != exp_mask(fmt):
                ok = v == oracle_value(bits, fmt) and math.copysign(1.0, v) == (-1.0) ** sign
            elif f == 0:
                ok = v == (-math.inf if sign else math.inf)
            else:
                ok = math.isnan(v)
            mismatches += not ok
        assert mismatches == 0


class TestRounding:
    def test_exact_one_fp16(self):
        assert rounded_bits(1.0, FP16) == 0x3C00

    def test_one_third_bf16(self):
        assert round_value(1.0 / 3.0, BF16) == 0.333984375
        assert rounded_bits(1.0 / 3.0, BF16) == 0x3EAB

    def test_fp16_overflow_to_inf(self):
        # 65520 is the exact overflow threshold (65504 + half an ulp, tie up)
        assert round_value(65520.0, FP16) == math.inf
        assert round_value(65519.999, FP16) == 65504.0
        assert round_value(-65520.0, FP16) == -math.inf

    def test_subnormals_preserved(self):
        tiny = math.ldexp(1.0, -24)  # smallest positive fp16 subnormal
        assert round_value(tiny, FP16) == tiny
        assert round_value(tiny / 2, FP16) == 0.0  # tie to even -> 0
        assert round_value(tiny * 0.75, FP16) == tiny

    def test_nan_canonical(self):
        for fmt in ALL_FORMATS:
            assert is_nan_bits(rounded_bits(math.nan, fmt), fmt)
            assert is_nan_bits(rounded_bits(np.float32(math.nan), fmt), fmt)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_matches_fraction_oracle_on_randoms(self, fmt):
        rng = np.random.default_rng(42)
        exps = rng.uniform(-30, 18, size=2000)
        vals = np.sign(rng.standard_normal(2000)) * np.exp2(exps) * rng.uniform(1, 2, 2000)
        for v, mine in zip(vals.tolist(), rounded_bits(vals, fmt).tolist()):
            assert mine == oracle_round(Fraction(v), fmt)

    @given(x=st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=300)
    def test_idempotent(self, x):
        for fmt in ALL_FORMATS:
            once = round_array(x, fmt)
            assert rounded_bits(once, fmt) == values_to_bits(once, fmt)
            # the binary32 carry holds every format value and rounds it to itself
            assert rounded_bits(once.astype(np.float32), fmt) == values_to_bits(once, fmt)

    @pytest.mark.parametrize("fmt", [FP16, BF16])
    def test_encode_decode_roundtrip_exhaustive(self, fmt):
        bits = np.arange(1 << 16, dtype=np.uint64)
        vals = bits_to_values(bits, fmt)
        back = values_to_bits(vals, fmt)
        finite = ((bits >> fmt.mant_bits) & exp_mask(fmt)) != exp_mask(fmt)
        assert np.array_equal(back[finite].astype(np.uint64), bits[finite])
        for b in [0, 1, 0x3C00, 0x7BFF, 0x8001, 0x83FF]:
            assert vals[b] == oracle_value(b, fmt)

    def test_fp16_encode_decode_round_trip_every_pattern(self):
        # all 65,536 patterns, NaN payloads and signs included: normal
        # values take the rebiased binary32 encoding, the rest numpy's
        bits = np.arange(1 << 16, dtype=np.uint16)
        back = values_to_bits(bits_to_values(bits, FP16), FP16)
        assert back.dtype == np.uint16
        np.testing.assert_array_equal(back, bits)
        square = bits.reshape(256, 256).T  # neither C- nor 1-D
        np.testing.assert_array_equal(values_to_bits(bits_to_values(square, FP16), FP16), square)
        assert values_to_bits(np.float64(-0.0), FP16) == 0x8000

    def test_round_array_matches_scalar(self):
        # the array path and the 0-d path (round_value) round alike
        rng = np.random.default_rng(7)
        x = rng.standard_normal(500) * np.exp2(rng.uniform(-20, 10, 500))
        for fmt in ALL_FORMATS:
            arr = round_array(x, fmt)
            for xi, ai in zip(x.tolist(), arr.tolist()):
                assert round_value(xi, fmt) == ai


def _binary32(*bits):
    return np.array(bits, dtype=np.uint32).view(np.float32)


class TestFp16Split:
    """round_array(x, FP16) on float32 x, which splits each value (Veltkamp)
    and converts only the values outside fp16's normal range, equals numpy's
    binary16 round trip bit for bit, NaN patterns included."""

    # every binary32 pattern whose low 13 bits (the ones binary16 drops)
    # lie at or next to 0, the tie and the top
    NEAR_TIES = ((np.arange(1 << 19, dtype=np.uint32) << 13)[:, None]
                 | np.array([0x0000, 0x0001, 0x0FFF, 0x1000, 0x1001, 0x1FFF], dtype=np.uint32)
                 ).ravel().view(np.float32)
    MIN_NORMAL = np.float32(2.0**-14)
    EDGES = np.concatenate([
        np.array([0.0, MIN_NORMAL, np.nextafter(MIN_NORMAL, np.float32(0)),
                  np.nextafter(MIN_NORMAL, np.float32(1)), 2.0**-14 - 2.0**-24, 65504.0,
                  np.nextafter(np.float32(65520), np.float32(0)), 65520.0,
                  np.finfo(np.float32).max, np.inf], dtype=np.float32),
        _binary32(0x7FC00000, 0x7FC00001, 0x7FFFFFFF, 0x7F800001, 0x7FA00000, 0x7FBFFFFF),
    ])
    EDGES = np.concatenate([EDGES, -EDGES])

    @staticmethod
    def check(x):
        with np.errstate(over="ignore", invalid="ignore"):
            want = x.astype(np.float16).astype(np.float32)
        got = round_array(x, FP16)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_normal_range_by_the_split_alone(self):
        mag = np.abs(self.NEAR_TIES)
        normal = self.NEAR_TIES[(mag >= self.MIN_NORMAL) & (mag < 65520)]
        # 30 binades of 1024 significands, both signs, less 65520 and above
        assert normal.size == 2 * 30 * 1024 * 6 - 2 * 3
        self.check(normal)

    def test_every_pattern_near_a_tie(self):
        self.check(self.NEAR_TIES)

    def test_edges_alone_and_among_normal_values(self):
        self.check(self.EDGES)
        mixed = np.full((len(self.EDGES), 3), 1.5, dtype=np.float32)
        mixed[:, 1] = self.EDGES
        self.check(mixed)
        for edge in self.EDGES:  # each edge the only patched element of its array
            self.check(np.array([0.75, edge, -3.0], dtype=np.float32))


class TestFp16Zeros:
    """Veltkamp's split maps +-0 to itself, sign included, so an array whose
    only elements outside fp16's normal range are zeros takes no patch; among
    other such elements the zeros are patched with them.  Either way, in
    both carries and whether `round_array` walks blocks or not, the result
    is numpy's binary16 round trip bit for bit."""

    OTHERS = [2.0**-24, -3 * 2.0**-24, 2.0**-15, 65520.0, -65520.0, np.inf, -np.inf, np.nan]

    @staticmethod
    def check(x):
        word = f"u{x.itemsize}"
        with np.errstate(over="ignore", invalid="ignore"):
            want = x.astype(np.float16).astype(x.dtype).view(word)
        into = np.empty_like(x)
        in_place = x.copy()
        for got in (round_array(x, FP16), round_array(x, FP16, out=into),
                    round_array(in_place, FP16, out=in_place)):
            np.testing.assert_array_equal(got.view(word), want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [1, 5, 3 * fpformat._BLOCK + 7], ids=["one", "five", "blocks"])
    def test_zeros_alone(self, dtype, size):
        for x in (np.zeros(size, dtype), np.full(size, -0.0, dtype),
                  np.resize(np.array([0.0, -0.0], dtype), size)):
            self.check(x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [6, 3 * fpformat._BLOCK + 7], ids=["short", "blocks"])
    @pytest.mark.parametrize("other", [None] + OTHERS)
    def test_zeros_among_normal_values(self, dtype, size, other):
        rng = np.random.default_rng(size)
        x = (rng.uniform(0.5, 2.0, size) * rng.choice([-1.0, 1.0], size)).astype(dtype)
        x[::3] = 0.0
        x[1::5] = -0.0
        if other is not None:
            x[-2] = other  # in the last block
        self.check(x)
        odd = fpformat._outside_fp16_normal(np.abs(x), zeros=True)
        assert (odd is None) == (other is None)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zeros_are_outside_for_the_encoder(self, dtype):
        # `_fp16_bits` cannot rebias a zero, so zeros still count there
        x = np.array([1.0, 0.0, -0.0], dtype)
        assert fpformat._outside_fp16_normal(np.abs(x)).tolist() == [1, 2]
        assert values_to_bits(x, FP16).tolist() == [0x3C00, 0x0000, 0x8000]


class TestRoundInto:
    """round_array(x, fmt, out=o) writes what round_array(x, fmt) returns into
    o, bit for bit, whether o is x or another array, in either precision
    and memory order."""

    F32 = np.concatenate([
        np.array([0.0, 2.0**-149, 2.0**-126 * 0.75, 2.0**-14, 2.0**-24, 1.0 / 3.0, 1.5,
                  65504.0, 65519.0, 65520.0, 3.0e38, np.inf], dtype=np.float32),
        np.nextafter(np.float32(2.0**-14), np.float32([0.0, 1.0])),
        np.nextafter(np.float32([65504.0, 65520.0]), np.float32(0.0)),
        np.nextafter(np.float32([65504.0, 65520.0]), np.float32(np.inf)),
        # quiet and signaling NaNs with payloads
        _binary32(0x7FC00000, 0x7FC00001, 0x7FFFFFFF, 0x7F800001, 0x7FA00000, 0x7FBFFFFF),
    ])
    F32 = np.concatenate([F32, -F32])
    F64 = np.concatenate([
        F32[~np.isnan(F32)].astype(np.float64),
        np.array([1.0 + 2.0**-8 + 2.0**-40, 2.0**-1074, 1.0e300, 65519.999999,
                  math.pi, 2.0**-14 - 2.0**-40]),
        # quiet and signaling NaNs with payloads, both signs
        np.array([0x7FF8000000000000, 0x7FF8000000000123, 0x7FF0000000000001,
                  0x7FF4000000000000, 0xFFF8000000000001, 0xFFF0000000000010],
                 dtype=np.uint64).view(np.float64),
    ])

    @staticmethod
    def same(a, b):
        word = np.uint32 if a.dtype == np.float32 else np.uint64
        return a.dtype == b.dtype and a.shape == b.shape \
            and np.array_equal(a.view(word), b.view(word))

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_into_equals_fresh(self, fmt, dtype, order):
        vals = (self.F32 if dtype == np.float32 else self.F64).astype(dtype)
        rng = np.random.default_rng(9)
        mixed = np.concatenate([vals, rng.uniform(-4, 4, 3 * len(vals)).astype(dtype)])
        for x in (vals[:1], vals, np.resize(mixed, (len(mixed) // 8, 8))):
            x = np.array(x, order=order)
            want = round_array(x, fmt)  # raises if a warning leaks (pyproject filterwarnings)
            assert np.array_equal(np.isnan(want), np.isnan(x))  # a NaN stays a NaN
            before = x.copy(order=order)
            other = np.full(x.shape, 7.0, dtype=dtype, order=order)
            assert round_array(x, fmt, out=other) is other
            assert self.same(other, want) and self.same(x, before)
            assert round_array(x, fmt, out=x) is x
            assert self.same(x, want)
            # a scalar into a 0-d array
            zero_d = np.zeros((), dtype=dtype)
            assert round_array(before.flat[0], fmt, out=zero_d) is zero_d
            assert self.same(zero_d.reshape(1), round_array(before.flat[:1], fmt))

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_every_element_is_patched_in_place(self, fmt):
        # each special value the only one of its array, rounded in place
        for v in self.F32:
            x = np.array([0.75, v, -3.0], dtype=np.float32)
            want = round_array(x, fmt)
            assert self.same(round_array(x, fmt, out=x), want)


class TestRoundIntoChecksOut:
    """An `out` of another dtype or shape than the result is a ValueError,
    not a silently wrong result."""

    X = np.array([1.0, 1.00390625 + 2.0**-20, -3.3], dtype=np.float32)

    @pytest.mark.parametrize("fmt,out", [
        (BF16, np.zeros(3, dtype=np.int32)),  # would hold raw bit patterns
        (FP16, np.zeros(3, dtype=np.float16)),  # would hold 3.1 for -3.3
        (BF16, np.zeros(3, dtype=np.float64)),  # float32 input: float32 result
        (FP16, np.zeros(4, dtype=np.float32)),
        (FP32, np.zeros((3, 1), dtype=np.float32)),
        (FP16, [0.0, 0.0, 0.0]),
    ], ids=["int32", "float16", "float64", "longer", "2-d", "list"])
    def test_wrong_out_is_rejected(self, fmt, out):
        before = np.array(out, copy=True)
        with pytest.raises(ValueError, match="out must be a float32 array of shape"):
            round_array(self.X, fmt, out=out)
        assert np.array_equal(np.asarray(out), before)

    def test_float64_input_takes_a_float64_out(self):
        x = self.X.astype(np.float64)
        with pytest.raises(ValueError, match="float64"):
            round_array(x, BF16, out=np.zeros(3, dtype=np.float32))
        out = np.zeros(3)
        assert round_array(x, BF16, out=out) is out
        assert out.tolist() == round_array(x, BF16).tolist() == [1.0, 1.0078125, -3.296875]


def _binary64(*bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


class TestBlockedRounding:
    """A rounding into a C-contiguous `out` of more than one block runs block
    by block, each block with its own temporaries; it equals the rounding of
    the whole array into new arrays bit for bit, in place or not, with every
    special value in a later block patched at its own index, and no
    floating-point warning from a later block's float64 specials or
    signaling NaNs."""

    B = fpformat._BLOCK
    SIZES = [B - 1, B, B + 1, 3 * B + 5]
    # both signs of: +-0, subnormals (binary32's and binary16's), binary16's
    # least normal and largest values, its overflow threshold 65520 and
    # neighbours, bf16's largest value and the ties to its overflow, and inf
    SPECIAL = np.array([0.0, 2.0**-149, 2.0**-133, 2.0**-24, 2.0**-25, 2.0**-14,
                        2.0**-14 - 2.0**-24, 65504.0, 65519.0, 65520.0, 65536.0,
                        3.3895313892515355e38, 3.3961775292304767e38,
                        3.3961776e38, 3.4e38, np.inf])
    SPECIAL = np.concatenate([SPECIAL, -SPECIAL])
    NAN32 = np.array([0x7FC00000, 0x7FC00001, 0xFFFFFFFF, 0x7F800001, 0x7FA00000, 0xFFBFFFFF],
                     dtype=np.uint32).view(np.float32)  # quiet and signaling, both signs
    NAN64 = _binary64(0x7FF8000000000000, 0x7FF8000000000123, 0xFFF0000000000001,
                      0x7FF4000000000000, 0xFFF8000000000001, 0x7FF0000000000010)

    @classmethod
    def batch(cls, dtype, size, seed):
        """Random normal-range values with the special values and NaNs
        placed at random indices past the first block (or anywhere, for a
        single block)."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, size) * np.exp2(rng.integers(-12, 12, size))
        x = x.astype(dtype)
        special = np.concatenate([cls.SPECIAL.astype(dtype),
                                  cls.NAN32 if dtype == np.float32 else cls.NAN64])
        first = cls.B if size > cls.B + len(special) else 0
        x[rng.choice(np.arange(first, size), len(special), replace=False)] = special
        return x

    @staticmethod
    def assert_same(got, want):
        word = np.uint32 if want.dtype == np.float32 else np.uint64
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(word), want.view(word))

    def check(self, x, fmt):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no floating-point warning escapes
            want = round_array(x, fmt)  # the whole array at once
            before = x.copy(order="A")
            other = np.full_like(x, 7.0)
            assert round_array(x, fmt, out=other) is other
            self.assert_same(other, want)
            self.assert_same(x, before)
            assert round_array(x, fmt, out=x) is x
            self.assert_same(x, want)
        return want

    @pytest.mark.parametrize("fmt", [FP16, BF16, FP32], ids=lambda f: f.name)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", SIZES, ids=["block-1", "block", "block+1", "blocks"])
    def test_blocks_equal_the_whole_array(self, fmt, dtype, size):
        x = self.batch(dtype, size, seed=size)
        want = self.check(x.copy(), fmt)
        if fmt == FP16:  # and numpy's binary16 conversion
            with np.errstate(over="ignore", invalid="ignore"):
                fp16 = x.astype(np.float16).astype(dtype)
            self.assert_same(want, fp16)
        assert np.array_equal(np.isnan(want), np.isnan(x))

    @pytest.mark.parametrize("fmt", [FP16, BF16], ids=lambda f: f.name)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_other_layouts(self, fmt, dtype):
        x = self.batch(dtype, 4 * self.B, seed=5).reshape(64, -1)
        want = round_array(x, fmt)
        self.check(np.asfortranarray(x), fmt)  # F-order: one block of its shape
        wide = np.zeros((64, 2 * x.shape[1]), dtype=dtype)
        wide[:, ::2] = x
        self.assert_same(self.check(wide[:, ::2], fmt), want)  # strided
        # a C-contiguous `out` that overlaps `x` without being it
        flat = np.concatenate([x.ravel(), np.zeros(8, dtype=dtype)])
        src, dst = flat[:-8], flat[8:]
        assert round_array(src, fmt, out=dst) is dst
        self.assert_same(dst, want.ravel())

    def test_fp16_from_binary64_at_every_tie(self):
        # every binary16 midpoint (normal and subnormal, both signs) and the
        # binary64 values next to it, then random binary64 values in and
        # around binary16's range: the binary64 split equals numpy's
        # binary64 -> binary16 conversion
        h = np.arange(0x7C00, dtype=np.uint16).view(np.float16).astype(np.float64)
        mid = (h[:-1] + h[1:]) / 2
        mid = np.append(mid, 65520.0)
        x = np.concatenate([mid, np.nextafter(mid, 0.0), np.nextafter(mid, np.inf), h])
        x = np.concatenate([x, -x])
        rng = np.random.default_rng(16)
        x = np.concatenate([x, rng.standard_normal(400_000) * np.exp2(rng.integers(-28, 18, 400_000))])
        with np.errstate(over="ignore"):
            want = x.astype(np.float16).astype(np.float64)
        for got in (round_array(x, FP16), round_array(x, FP16, out=np.empty_like(x))):
            self.assert_same(got, want)


class TestRepresentable:
    """`representable(v, fmt)` rounds one block at a time, one `round_array`
    call per block, and answers for every block: the last partial one
    included, with NaN (whatever its payload) and +-inf held by every
    format."""

    B = fpformat._BLOCK
    SIZES = [B - 1, B + 1, 3 * B + 5]
    CASES = [(FP16, np.float32), (FP16, np.float64), (BF16, np.float32),
             (BF16, np.float64), (FP32, np.float64)]
    CASE_IDS = ["fp16-f32", "fp16-f64", "bf16-f32", "bf16-f64", "fp32-f64"]

    def values(self, fmt, dtype, size):
        rng = np.random.default_rng(size)
        return round_array(rng.uniform(-4, 4, size).astype(dtype), fmt)

    @pytest.mark.parametrize("fmt,dtype", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("size", SIZES, ids=["block-1", "block+1", "blocks"])
    def test_one_bad_value_in_the_last_block(self, fmt, dtype, size):
        x = self.values(fmt, dtype, size)
        assert representable(x, fmt)
        # half way between 1 and the next value of the format
        x[-1] = dtype(1.0 + 2.0 ** -(fmt.mant_bits + 1))
        assert not representable(x, fmt)
        assert not representable(x.reshape(-1, 1), fmt)

    @pytest.mark.parametrize("fmt,dtype", CASES, ids=CASE_IDS)
    def test_nan_payloads_and_infinities_in_a_later_block(self, fmt, dtype):
        x = self.values(fmt, dtype, 3 * self.B + 5)
        nans = (TestBlockedRounding.NAN32 if dtype == np.float32
                else TestBlockedRounding.NAN64)
        x[2 * self.B:2 * self.B + len(nans)] = nans
        x[-2:] = [np.inf, -np.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert representable(x, fmt)

    def test_float32_under_fp32(self):
        x = np.random.default_rng(1).standard_normal(self.B + 1).astype(np.float32)
        x[-3:] = [np.nan, np.inf, np.float32(2.0 ** -149)]
        assert representable(x, FP32)
        assert not representable(x.astype(np.float64) + 2.0 ** -40, FP32)

    def test_one_round_array_call_per_block(self, monkeypatch):
        calls = []

        def counted(x, fmt, out=None):
            calls.append(np.size(x))
            return round_array(x, fmt, out)

        monkeypatch.setattr(fpformat, "round_array", counted)
        assert representable(np.zeros(3 * self.B + 5), FP16)
        assert calls == [self.B] * 3 + [5]
        assert representable(2.5, BF16) and calls[-1] == 1


class TestEmulatedOps:
    """Each op is the exact result of format values rounded once by
    round_array; the rational oracle is the ground truth."""

    def test_fp16_absorbs_small_addend(self):
        assert round_value(1.0 + 2.0 ** -24, FP16) == 1.0

    def test_mul_identity(self):
        rng = np.random.default_rng(3)
        for fmt in ALL_FORMATS:
            x = round_array(rng.standard_normal(50) * np.exp2(rng.integers(-8, 8, 50)), fmt)
            one = rounded_bits(np.ones(50), fmt)
            assert np.array_equal(emu_mul(values_to_bits(x, fmt), one, fmt),
                                  values_to_bits(x, fmt))

    def test_bf16_exact_product(self):
        x = round_value(1.5, BF16)
        assert round_value(x * x, BF16) == 2.25

    def test_inf_and_nan_follow_ieee(self):
        inf, one, nan = (int(rounded_bits(v, FP16)) for v in (math.inf, 1.0, math.nan))
        assert emu_add(inf, one, FP16) == inf
        assert bits_to_values(emu_sub(one, inf, FP16), FP16) == -math.inf
        assert is_nan_bits(emu_mul(nan, one, FP16), FP16)
        assert is_nan_bits(emu_sub(inf, inf, FP16), FP16)

    @given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1))
    @settings(max_examples=400)
    def test_add_commutes_bitexact_fp16(self, ba, bb):
        r1, r2 = emu_add(ba, bb, FP16), emu_add(bb, ba, FP16)
        if is_nan_bits(r1, FP16) or is_nan_bits(r2, FP16):
            assert is_nan_bits(r1, FP16) and is_nan_bits(r2, FP16)
        else:
            assert r1 == r2

    # Fixed per-(format, op) seeds: str hashes change with PYTHONHASHSEED.
    OP_SEEDS = {("fp32", "add"): 6101, ("fp32", "sub"): 6102, ("fp32", "mul"): 6103,
                ("fp16", "add"): 6201, ("fp16", "sub"): 6202, ("fp16", "mul"): 6203,
                ("bf16", "add"): 6301, ("bf16", "sub"): 6302, ("bf16", "mul"): 6303}

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("op,fn", [("add", emu_add), ("sub", emu_sub), ("mul", emu_mul)])
    def test_ops_match_rational_oracle(self, fmt, op, fn):
        rng = np.random.default_rng(self.OP_SEEDS[fmt.name, op])
        ab = finite_bits(fmt, rng, 4000).reshape(-1, 2)
        # binary64 operands, and the datapath's binary32 carry
        got64 = fn(ab[:, 0], ab[:, 1], fmt).tolist()
        got32 = fn(ab[:, 0], ab[:, 1], fmt, carry=np.float32).tolist()
        for (a_bits, b_bits), g64, g32 in zip(ab.tolist(), got64, got32):
            want = oracle_op(a_bits, b_bits, op, fmt)
            assert g64 == want and g32 == want, (
                f"{fmt.name} {op}: {a_bits:#x} {b_bits:#x} -> {g64:#x} (binary64), "
                f"{g32:#x} (binary32), oracle {want:#x}")


def scalar_tree_sum(bits, fmt, chunk=64):
    """The adder tree one 2-input add at a time, each add rounded by the
    integer oracle: chunks of 64 zero-padded elements (two levels of 8-input
    trees), each reduced by a pairwise-adjacent tree, then the chunk sums
    accumulated in order."""
    bits = list(bits) + [0] * (-len(bits) % chunk)
    total = None
    for start in range(0, len(bits), chunk):
        level = bits[start:start + chunk]
        while len(level) > 1:
            level = [oracle_op_fast(a, b, "add", fmt) for a, b in zip(level[::2], level[1::2])]
        total = level[0] if total is None else oracle_op_fast(total, level[0], "add", fmt)
    return total


def chunked(partials):
    """Rows of 64-element chunks whose tree sums are `partials`, shape
    (n, nchunk): each chunk holds its partial then zeros, or -0 throughout
    for a -0 partial (-0 + +0 is +0)."""
    n, k = partials.shape
    x = np.zeros((n, k, 64))
    x[(partials == 0) & np.signbit(partials)] = -0.0
    x[..., 0] = partials
    return x.reshape(n, k * 64)


def chain_oracle(partials, fmt):
    """The running totals of the partial-sum chain, shape (n, nchunk), with
    one binary64 add and one `round_array` per step."""
    totals = partials.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, partials.shape[1]):
            totals[:, k] = round_array(totals[:, k - 1] + partials[:, k], fmt)
    return totals


def chain_rows(fmt, nchunk):
    """(finite, non-finite) partials, shape (rows, nchunk), rounded to the
    format: random sums, sums that overflow mid-chain (a tie at the
    format's largest value, and large values of both signs), cancellation
    to +-0 and to subnormals; then chains with an inf or NaN partial."""
    rng = np.random.default_rng(nchunk)
    big, tiny = max_finite(fmt), math.ldexp(1.0, 1 - fmt.bias)  # largest, least normal
    half_ulp = math.ldexp(1.0, fmt.bias - fmt.mant_bits - 1)  # of the largest
    quantum = math.ldexp(1.0, quantum_exp(fmt))
    finite = [rng.uniform(-1, 1, nchunk) * np.exp2(rng.integers(-10, 10, nchunk)),
              [big, half_ulp, -1.0],  # exact tie at the largest value: inf
              [0.6 * big, 0.6 * big, -0.6 * big, 2.0],
              [0.75, -0.75],
              [-0.0],
              [tiny + 2 * quantum, -tiny, quantum, -3 * quantum, -0.0],
              rng.integers(-40, 40, nchunk) * quantum]
    others = [[1.0, math.inf, -2.0], [1.0, math.nan], [math.inf, -math.inf, 1.0],
              [0.6 * big, 0.6 * big, -math.inf]]

    def rows(patterns):
        p = np.array([np.resize(np.asarray(v, dtype=np.float64), nchunk) for v in patterns])
        return round_array(p, fmt)  # the constants are format values already

    return rows(finite), rows(others)


class TestPartialSumChain:
    """tree_sum_values accumulates the chunk sums one rounded add at a
    time, in every carry and through every shortcut."""

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("nchunk", [1, 2, 17, 192])
    def test_matches_one_rounding_per_add(self, fmt, nchunk):
        finite, others = chain_rows(fmt, nchunk)
        for partials in (finite, others):
            x = chunked(partials)
            want = chain_oracle(partials, fmt)[:, -1]
            for carry in (np.float32, np.float64):
                with np.errstate(over="ignore", invalid="ignore"):
                    got = tree_sum_values(x.astype(carry), fmt)
                assert got.dtype == carry
                # bit for bit, the sign and payload of a NaN included
                assert np.array_equal(got.astype(np.float64).view(np.uint64),
                                      want.view(np.uint64))
        # reach: the finite rows take bf16's in-place rounding, the others
        # its per-step round_array; the finite chains overflow and cancel
        # to +0, -0 and subnormals
        assert np.isfinite(finite).all() and not np.isfinite(others).all()
        if nchunk > 1:
            steps = chain_oracle(finite, fmt)[:, 1:]
            zeros = np.signbit(steps[steps == 0])
            assert np.isinf(steps).any() and zeros.any() and not zeros.all()
            assert ((steps != 0) & (np.abs(steps) < math.ldexp(1.0, 1 - fmt.bias))).any()


class TestTreeSumOfParts:
    """tree_sum_values of several parts, each of its own d, in one pass:
    each row's sum is the one a call on its part alone gives, bit for bit,
    through every shortcut of the chain, with a -0 pad after a row's last
    chunk."""

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("carries", [(np.float32,), (np.float64,),
                                         (np.float32, np.float64)],
                             ids=["float32", "float64", "mixed"])
    @pytest.mark.parametrize("finite", [True, False], ids=["finite", "non-finite"])
    def test_equals_one_call_per_part(self, fmt, carries, finite):
        # chains of 17, 1, 192 and 2 chunks, then rows 63 and 65 long;
        # the -0 rows keep a -0 sum after the pads of the longer chains
        parts = [chunked(chain_rows(fmt, k)[0 if finite else 1]) for k in (17, 1, 192, 2)]
        rng = np.random.default_rng(4)
        parts += [round_array(rng.uniform(-1, 1, (3, d)), fmt) for d in (63, 65)]
        parts = [x.astype(carries[k % len(carries)]) for k, x in enumerate(parts)]
        with np.errstate(over="ignore", invalid="ignore"):
            got = tree_sum_values(parts, fmt)
            want = np.concatenate([tree_sum_values(x, fmt) for x in parts])
        carry = np.float32 if carries == (np.float32,) else np.float64
        assert got.dtype == carry
        assert np.array_equal(got.astype(np.float64).view(np.uint64),
                              want.astype(np.float64).view(np.uint64))
        if finite:
            # the -0 row of each chain, its fifth, sums to -0
            starts = np.cumsum([0] + [len(x) for x in parts[:3]])
            assert all(got[k + 4] == 0 and np.signbit(got[k + 4]) for k in starts)

    def test_one_part_of_a_list_is_the_array(self):
        x = round_array(np.random.default_rng(9).uniform(-1, 1, (4, 130)), BF16)
        assert np.array_equal(tree_sum_values([x], BF16), tree_sum_values(x, BF16))


class TestTreeSum:
    """tree_sum_values sums each row of an (n, d) array, d >= 1."""

    def test_sixty_four_ones(self):
        assert tree_sum_values(np.ones((1, 64)), FP32).tolist() == [64.0]

    def test_single_element(self):
        x = round_array(np.array([[3.7], [-0.5]]), FP16)
        assert np.array_equal(tree_sum_values(x, FP16), x[:, 0])

    def test_order_sensitivity_fp16(self):
        # 1.0 followed by 63 copies of 2^-11: sequential accumulation ties to
        # even at every step and stays at 1.0; the chunk tree keeps all but
        # the first small addend.
        vals = [1.0] + [2.0 ** -11] * 63
        tree = float(tree_sum_values(round_array(np.array([vals]), FP16), FP16)[0])
        seq = np.float16(0.0)
        for v in vals:
            seq = np.float16(seq + np.float16(v))
        assert float(seq) == 1.0
        assert tree == 1.0302734375
        assert tree != float(seq)

    def test_chunked_accumulation_is_sequential_over_chunks(self):
        # 128 elements = 2 chunks; total = chunk1 + chunk2 with one rounding
        rng = np.random.default_rng(5)
        vals = round_array(rng.uniform(-1, 1, (1, 128)), FP16)
        whole = tree_sum_values(vals, FP16)[0]
        c1 = tree_sum_values(vals[:, :64], FP16)[0]
        c2 = tree_sum_values(vals[:, 64:], FP16)[0]
        assert whole == round_value(float(c1) + float(c2), FP16)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("d", [1, 2, 7, 63, 64, 65, 100, 128, 200])
    def test_scalar_and_batch_paths_agree(self, fmt, d):
        # the vectorized tree against the integer oracle's scalar tree, in
        # binary64 and in the binary32 carry
        rng = np.random.default_rng(d)
        vals = round_array(rng.uniform(-2, 2, (1, d)), fmt)
        want = [scalar_tree_sum(values_to_bits(vals[0], fmt).tolist(), fmt)]
        assert values_to_bits(tree_sum_values(vals, fmt), fmt).tolist() == want
        assert values_to_bits(tree_sum_values(vals.astype(np.float32), fmt),
                              fmt).tolist() == want

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("d", [1, 63, 65, 127, 300, 1000])
    def test_short_last_chunk_against_the_scalar_tree(self, fmt, d):
        # only the last chunk is zero-padded: random rows, a row whose last
        # element is -0 (paired with a pad zero when d is odd, and
        # -0 + +0 is +0), and a row of -0 throughout
        rng = np.random.default_rng(d)
        x = round_array(rng.uniform(-2, 2, (4, d)) * np.exp2(rng.integers(-6, 6, (4, 1))), fmt)
        x[1, -1] = -0.0
        x[2] = -0.0
        want = [scalar_tree_sum(values_to_bits(row, fmt).tolist(), fmt) for row in x]
        for carry in (np.float64, np.float32):
            got = tree_sum_values(x.astype(carry), fmt)
            assert got.dtype == carry
            assert values_to_bits(got, fmt).tolist() == want

    def test_batch_rows_match_single_rows(self):
        rng = np.random.default_rng(11)
        batch = round_array(rng.uniform(-1, 1, (10, 100)), FP16)
        out = tree_sum_values(batch, FP16)
        for i, tot in enumerate(out):
            assert tree_sum_values(batch[i:i + 1], FP16)[0] == tot

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_leaves_its_input_unchanged(self, fmt):
        rng = np.random.default_rng(3)
        for d in (64, 200):
            x = round_array(rng.uniform(-1, 1, (4, d)), fmt).astype(np.float32)
            before = x.copy()
            tree_sum_values(x, fmt)
            assert np.array_equal(x.view(np.uint32), before.view(np.uint32))
