"""Comparison targets: fast-inverse-square-root layer norm and the
binary64 reference pipeline that stands in for framework ground truth."""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError
from .fpformat import (
    FormatSpec,
    bits_to_values,
    round_array,
    values_to_bits,
    _carried,
)
from .norm_core import BatchNormResult, Shifted, _finish, _given, _shifted, _Solved

FP32_MAGIC = 0x5F3759DF
# Top 16 bits of the canonical FP32 constant; BFloat16 shares the 8-bit
# exponent layout so the same shift-and-subtract seed applies.
BF16_MAGIC = 0x5F37

_DEFAULT_MAGIC = {"fp32": FP32_MAGIC, "bf16": BF16_MAGIC}


def fisr_inv_sqrt_values(m: np.ndarray, fmt: FormatSpec, magic: int | None = None,
                         newton_iters: int = 1) -> np.ndarray:
    """Vectorized FISR of the positive finite `m`: seed magic - (bits >> 1),
    then `newton_iters` Newton steps y <- y * (1.5 - ((0.5*m) * y) * y) in
    emulated `fmt` arithmetic, in the precision `m` is carried in (see
    `fpformat._carried`).  `fmt` needs an 8-bit exponent (fp32 or bf16); a
    `magic` of None is the format's canonical constant."""
    if fmt.exp_bits != 8:
        raise UsageError("FISR needs a format with an 8-bit exponent (fp32 or bf16)")
    if newton_iters < 0:
        raise UsageError("newton_iters must be >= 0")
    magic = _DEFAULT_MAGIC[fmt.name] if magic is None else magic
    if not 0 <= magic < (1 << fmt.total_bits):
        raise UsageError("magic constant out of range for the format")
    m = _carried(m)
    if not ((m > 0) & np.isfinite(m)).all():
        raise ValueError("FISR requires positive finite input")
    bits = values_to_bits(m, fmt).astype(np.int64)
    y = bits_to_values(magic - (bits >> 1), fmt).astype(m.dtype, copy=False)
    m_half = round_array(0.5 * m, fmt)
    for _ in range(newton_iters):
        t1 = round_array(m_half * y, fmt)
        t2 = round_array(t1 * y, fmt)
        t3 = round_array(1.5 - t2, fmt)
        y = round_array(y * t3, fmt)
    return y


def fisr_batch(fmt: FormatSpec, x: np.ndarray | Shifted, gamma: np.ndarray | None = None,
               beta: np.ndarray | None = None, *, magic: int | None = None,
               newton_iters: int = 1) -> BatchNormResult:
    """Layer normalization with the iteration replaced by FISR on m, with
    the settings of `fisr_inv_sqrt_values`; `x` is an (n, d) batch or its
    `Shifted`, as in `normalize_batch`."""
    sh = _shifted(fmt, x, gamma, beta)
    with np.errstate(over="ignore", invalid="ignore"):
        a = fisr_inv_sqrt_values(sh.m[sh.m > 0.0], fmt, magic, newton_iters)
    return _finish(fmt, _Solved(sh, gamma, beta, _given(a)))


def reference_batch(fmt: FormatSpec, x: np.ndarray, gamma: np.ndarray | None = None,
                    beta: np.ndarray | None = None) -> np.ndarray:
    """Ground-truth layer norm: the whole pipeline in binary64 from the exact
    decoded inputs, one elementwise rounding to the format at the end.

    Zero-variance vectors yield z = beta.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    beta = 0.0 if beta is None else np.asarray(beta, dtype=np.float64)
    mean = x.mean(axis=1, keepdims=True)
    y = x - mean
    norm = np.sqrt(np.einsum("ij,ij->i", y, y))[:, None]
    live = (norm > 0.0)[:, 0]
    # gamma * (sqrt(d) * y / norm) + beta, one operation at a time in y; a
    # gamma of None is 1, and a product by 1 changes no bit
    y *= math.sqrt(d)
    y /= np.where(live[:, None], norm, 1.0)
    if gamma is not None:
        y *= np.asarray(gamma, dtype=np.float64)
    y += beta
    z = round_array(y, fmt, out=y)
    if not live.all():
        z[~live] = beta
    return z
