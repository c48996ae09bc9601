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
    FpScalar,
    bits_to_values,
    round_array,
    values_to_bits,
    _carried,
)
from .norm_core import BatchNormResult, NormInputs, NormResult, _direct, _layernorm

__all__ = [
    "FisrSpec",
    "FP32_MAGIC",
    "BF16_MAGIC",
    "fisr_inv_sqrt",
    "fisr_inv_sqrt_values",
    "layernorm_fisr",
    "fisr_batch",
    "layernorm_reference",
    "reference_batch",
]

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
    if not (x > 0).all():
        raise ValueError("FISR requires strictly positive input")
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


def fisr_inv_sqrt(x: FpScalar, spec: FisrSpec) -> FpScalar:
    """Approximate 1/sqrt(x) for one scalar."""
    if x.fmt != spec.format:
        raise UsageError(f"input format {x.fmt.name} does not match spec {spec.format.name}")
    if x.is_nan or x.is_inf or not x.value > 0:
        raise ValueError("FISR requires a finite input > 0")
    v = fisr_inv_sqrt_values(np.array([x.value]), spec)
    return FpScalar(int(values_to_bits(v, spec.format)[0]), spec.format)


def _fisr(fmt: FormatSpec, spec: FisrSpec | None):
    """Solver for the shared datapath: `a` is FISR of m."""
    spec = spec if spec is not None else FisrSpec(format=fmt)
    if spec.format != fmt:
        raise UsageError("FISR spec format does not match input format")
    return lambda m, live: _direct(fisr_inv_sqrt_values(m, spec))


def fisr_batch(fmt: FormatSpec, x: np.ndarray, gamma: np.ndarray | None = None,
               beta: np.ndarray | None = None, spec: FisrSpec | None = None) -> BatchNormResult:
    """Layer normalization with the iteration replaced by FISR on m."""
    return _layernorm(fmt, x, gamma, beta, _fisr(fmt, spec))


def layernorm_fisr(inputs: NormInputs, spec: FisrSpec | None = None) -> NormResult:
    """Single-vector FISR layer norm; same zero-variance guard as the
    iterative pipeline."""
    return _layernorm(inputs.fmt, inputs.x[None, :], inputs.gamma, inputs.beta,
                      _fisr(inputs.fmt, spec)).row(0)


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


def layernorm_reference(inputs: NormInputs) -> NormResult:
    """Single-vector reference oracle."""
    z = reference_batch(inputs.fmt, inputs.x[None, :], inputs.gamma, inputs.beta)[0]
    x = inputs.x
    mean = float(np.mean(x))
    y = x - mean
    m = float(y @ y)
    if m > 0:
        y_hat = math.sqrt(inputs.d) * y / math.sqrt(m)
    else:
        y_hat = np.zeros(inputs.d)
    return NormResult(z, y_hat, mean, m, (0.0,), 0, True)
