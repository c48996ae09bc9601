"""Independent test oracles.

The rounding oracle works entirely in exact rational arithmetic with its own
nearest-even quantization, sharing no code (and no numpy) with the package's
rounding path.
"""

from __future__ import annotations

import math
from fractions import Fraction

from iterl2norm.fpformat import FormatSpec, round_array

HALF = Fraction(1, 2)


def exp_mask(fmt: FormatSpec) -> int:
    """The all-ones biased exponent field of `fmt` (infinities and NaNs)."""
    return (1 << fmt.exp_bits) - 1


def quantum_exp(fmt: FormatSpec) -> int:
    """Unbiased exponent of the smallest subnormal step of `fmt`."""
    return 1 - fmt.bias - fmt.mant_bits


def max_finite(fmt: FormatSpec) -> float:
    """The largest finite value of `fmt`."""
    return math.ldexp(2.0 - math.ldexp(1.0, -fmt.mant_bits), fmt.bias)


def round_value(x: float, fmt: FormatSpec) -> float:
    """`x` rounded to `fmt` by the package's `round_array`, as a float."""
    return float(round_array(x, fmt))


def pow2(k: int) -> Fraction:
    return Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)


def split_fields(bits: int, fmt: FormatSpec) -> tuple[int, int, int]:
    """(sign, biased exponent, significand field) of any bit pattern."""
    sign = bits >> (fmt.total_bits - 1)
    return sign, (bits >> fmt.mant_bits) & exp_mask(fmt), bits & ((1 << fmt.mant_bits) - 1)


def oracle_value(bits: int, fmt: FormatSpec) -> Fraction:
    """Exact rational value of a finite bit pattern."""
    sign, e, f = split_fields(bits, fmt)
    if e == exp_mask(fmt):
        raise ValueError("non-finite pattern")
    if e == 0:
        mag = f * pow2(quantum_exp(fmt))
    else:
        mag = ((1 << fmt.mant_bits) + f) * pow2(e - fmt.bias - fmt.mant_bits)
    return -mag if sign else mag


def oracle_round(fr: Fraction, fmt: FormatSpec) -> int:
    """Round an exact rational to the nearest fmt value (ties to even);
    returns the bit pattern.  Overflow saturates to infinity."""
    inf_bits = exp_mask(fmt) << fmt.mant_bits
    sign_bit = 1 << (fmt.total_bits - 1)
    if fr == 0:
        return 0
    sign = 0
    if fr < 0:
        sign, fr = sign_bit, -fr
    e = fr.numerator.bit_length() - fr.denominator.bit_length()
    if fr < pow2(e):
        e -= 1
    elif fr >= pow2(e + 1):
        e += 1
    emin = 1 - fmt.bias
    exp_q = (max(e, emin)) - fmt.mant_bits
    q = fr / pow2(exp_q)
    n = q.numerator // q.denominator
    rem = q - n
    if rem > HALF or (rem == HALF and (n & 1)):
        n += 1
    if e < emin:
        if n == 0:
            return sign
        if n == (1 << fmt.mant_bits):
            return sign | (1 << fmt.mant_bits)  # rounded up to min normal
        return sign | n
    if n == (1 << (fmt.mant_bits + 1)):
        e += 1
        n = 1 << fmt.mant_bits
    if e > fmt.bias:
        return sign | inf_bits
    field = n - (1 << fmt.mant_bits)
    return sign | ((e + fmt.bias) << fmt.mant_bits) | field


def _decode_dyadic(bits: int, fmt: FormatSpec) -> tuple[int, int, int]:
    """(sign, mantissa, exponent) with value = +-mantissa * 2^exponent."""
    sign, e, f = split_fields(bits, fmt)
    if e == exp_mask(fmt):
        raise ValueError("non-finite pattern")
    if e == 0:
        return sign, f, quantum_exp(fmt)
    return sign, (1 << fmt.mant_bits) + f, e - fmt.bias - fmt.mant_bits


def dyadic_round(sign: int, mant: int, exp: int, fmt: FormatSpec) -> int:
    """Round +-mant * 2^exp (mant >= 0) to nearest fmt bits, ties to even.

    Pure-integer twin of :func:`oracle_round`; the two cross-check each
    other and both stay independent of the package's numpy rounding.
    """
    sign_bit = sign << (fmt.total_bits - 1)
    if mant == 0:
        return sign_bit
    e = mant.bit_length() - 1 + exp
    emin = 1 - fmt.bias
    target_exp = max(e, emin) - fmt.mant_bits
    shift = target_exp - exp
    if shift <= 0:
        n = mant << -shift
    else:
        n = mant >> shift
        rem = mant & ((1 << shift) - 1)
        half = 1 << (shift - 1)
        if rem > half or (rem == half and (n & 1)):
            n += 1
    if e < emin:
        if n == 0:
            return sign_bit
        if n == (1 << fmt.mant_bits):
            return sign_bit | (1 << fmt.mant_bits)
        return sign_bit | n
    if n == (1 << (fmt.mant_bits + 1)):
        e += 1
        n = 1 << fmt.mant_bits
    if e > fmt.bias:
        return sign_bit | (exp_mask(fmt) << fmt.mant_bits)
    return sign_bit | ((e + fmt.bias) << fmt.mant_bits) | (n - (1 << fmt.mant_bits))


def oracle_op_fast(a_bits: int, b_bits: int, op: str, fmt: FormatSpec) -> int:
    """Integer-exact a OP b rounded once; finite operands only."""
    sa, ma, ea = _decode_dyadic(a_bits, fmt)
    sb, mb, eb = _decode_dyadic(b_bits, fmt)
    if op == "mul":
        mant = ma * mb
        if mant == 0:
            return (sa ^ sb) << (fmt.total_bits - 1)
        return dyadic_round(sa ^ sb, mant, ea + eb, fmt)
    if op == "sub":
        sb ^= 1
    elif op != "add":
        raise ValueError(op)
    e = min(ea, eb)
    va = (ma << (ea - e)) * (-1 if sa else 1)
    vb = (mb << (eb - e)) * (-1 if sb else 1)
    total = va + vb
    if total == 0:
        return (sa & sb) << (fmt.total_bits - 1)
    sign = 1 if total < 0 else 0
    return dyadic_round(sign, abs(total), e, fmt)


def oracle_op(a_bits: int, b_bits: int, op: str, fmt: FormatSpec) -> int:
    """Exact-rational a OP b, rounded once; finite operands only."""
    va = oracle_value(a_bits, fmt)
    vb = oracle_value(b_bits, fmt)
    if op == "add":
        r = va + vb
    elif op == "sub":
        r = va - vb
    elif op == "mul":
        r = va * vb
    else:
        raise ValueError(op)
    if r == 0:
        # IEEE signed-zero rules for round-to-nearest
        sa = a_bits >> (fmt.total_bits - 1)
        sb = b_bits >> (fmt.total_bits - 1)
        if op == "mul":
            s = sa ^ sb
        elif op == "add":
            s = sa & sb
        else:
            s = sa & (sb ^ 1)
        return s << (fmt.total_bits - 1)
    return oracle_round(r, fmt)


def oracle_iteration(a_bits: int, m_bits: int, lam_exp: int, fmt: FormatSpec,
                     steps: int, delta_max: float | None = None
                     ) -> tuple[list[int], int, bool]:
    """Per-op reference of the `a` iteration with update rate 2^lam_exp.

    Each step is t1 = m*a, t2 = t1*a, t3 = 1 - t2, t4 = 2^lam_exp * t1,
    da = t4*t3, a + da, each rounded once by the integer oracle.  Without
    `delta_max` it runs `steps` steps; with it, `steps` is the cap and the
    run stops after the first step whose exact change in `a` is <= delta_max
    (the package takes that change in binary64, which is exact for the
    operands here).  Returns (bit patterns of a_0..a_k, k, converged).
    """
    one = dyadic_round(0, 1, 0, fmt)
    traj = [a_bits]
    for _ in range(steps):
        a = traj[-1]
        t1 = oracle_op_fast(m_bits, a, "mul", fmt)
        t2 = oracle_op_fast(t1, a, "mul", fmt)
        t3 = oracle_op_fast(one, t2, "sub", fmt)
        sign, mant, exp = _decode_dyadic(t1, fmt)
        t4 = dyadic_round(sign, mant, exp + lam_exp, fmt)
        da = oracle_op_fast(t4, t3, "mul", fmt)
        traj.append(oracle_op_fast(a, da, "add", fmt))
        change = abs(oracle_value(traj[-1], fmt) - oracle_value(a, fmt))
        if delta_max is not None and change <= Fraction(delta_max):
            return traj, len(traj) - 1, True
    return traj, steps, delta_max is None
