"""Comparison targets: fast-inverse-square-root layer norm and the
binary64 reference pipeline that stands in for framework ground truth."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .fpformat import (
    FP32,
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


@dataclass(frozen=True)
class FisrSpec:
    """Fast-inverse-square-root configuration (8-bit-exponent formats only)."""

    format: FormatSpec = FP32
    magic: int | None = None
    newton_iters: int = 1

    def __post_init__(self) -> None:
        if self.format.exp_bits != 8:
            raise UsageError("FISR needs a format with an 8-bit exponent (fp32 or bf16)")
        if self.newton_iters < 0:
            raise UsageError("newton_iters must be >= 0")
        if self.magic is None:
            object.__setattr__(self, "magic", _DEFAULT_MAGIC[self.format.name])
        if not 0 <= self.magic < (1 << self.format.total_bits):
            raise UsageError("magic constant out of range for the format")


def fisr_inv_sqrt_values(x: np.ndarray, spec: FisrSpec) -> np.ndarray:
    """Vectorized FISR: seed magic - (bits >> 1), then Newton steps
    y <- y * (1.5 - ((0.5*x) * y) * y) in emulated format arithmetic, in the
    precision `x` is carried in (see `fpformat._carried`)."""
    fmt = spec.format
    x = _carried(x)
    if not ((x > 0) & np.isfinite(x)).all():
        raise ValueError("FISR requires positive finite input")
    bits = values_to_bits(x, fmt).astype(np.int64)
    seed = spec.magic - (bits >> 1)
    y = bits_to_values(seed, fmt).astype(x.dtype, copy=False)
    x_half = round_array(0.5 * x, fmt)
    for _ in range(spec.newton_iters):
        t1 = round_array(x_half * y, fmt)
        t2 = round_array(t1 * y, fmt)
        t3 = round_array(1.5 - t2, fmt)
        y = round_array(y * t3, fmt)
    return y


def fisr_batch(fmt: FormatSpec, x: np.ndarray | Shifted, gamma: np.ndarray | None = None,
               beta: np.ndarray | None = None, spec: FisrSpec | None = None) -> BatchNormResult:
    """Layer normalization with the iteration replaced by FISR on m; `x` is
    an (n, d) batch or its `Shifted`, as in `normalize_batch`."""
    spec = spec if spec is not None else FisrSpec(format=fmt)
    if spec.format != fmt:
        raise UsageError("FISR spec format does not match input format")
    sh = _shifted(fmt, x, gamma, beta)
    with np.errstate(over="ignore", invalid="ignore"):
        a = fisr_inv_sqrt_values(sh.m[sh.m > 0.0], spec)
    return _finish(fmt, _Solved(sh, gamma, beta, _given(a)))


def reference_batch(fmt: FormatSpec, x: np.ndarray, gamma: np.ndarray | None = None,
                    beta: np.ndarray | None = None) -> np.ndarray:
    """Ground-truth layer norm: the whole pipeline in binary64 from the exact
    decoded inputs, one elementwise rounding to the format at the end.

    Zero-variance vectors yield z = beta.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    gamma = np.ones(d) if gamma is None else np.asarray(gamma, dtype=np.float64)
    beta = np.zeros(d) if beta is None else np.asarray(beta, dtype=np.float64)
    mean = x.mean(axis=1, keepdims=True)
    y = x - mean
    norm = np.sqrt(np.einsum("ij,ij->i", y, y))[:, None]
    live = (norm > 0.0)[:, 0]
    safe = np.where(norm > 0.0, norm, 1.0)
    z = round_array(gamma[None, :] * (math.sqrt(d) * y / safe) + beta[None, :], fmt)
    if not live.all():
        z[~live] = beta
    return z

