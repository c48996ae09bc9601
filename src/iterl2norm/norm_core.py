"""The iterative L2/layer normalization algorithm.

Pipeline: mean shift, squared norm through the adder trees, exponent-based
initialization of the iteration scalar `a`, update-rate selection, the
division-free fixed-point iteration da = lambda*m*a*(1 - m*a^2), and the
final scale/shift.  `a` converges to 1/||y||_2, so sqrt(d)*a*y is the
layer-norm core without any divide or square root at runtime.

Every entry point runs one batched datapath (`_layernorm`); only the solver
for `a` varies: the iteration, FISR (`baselines`), or an injected value.  The
single-vector API is a batch of one.  The iteration runs in the target
format's emulated arithmetic by default (the hardware iteration datapath uses
the same format multipliers and adders); an exact binary64 mode exists for
property tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RangeOverflowError, UsageError
from .fpformat import (
    FormatSpec,
    round_array,
    round_value,
    tree_sum_values,
    _carried,
)

__all__ = [
    "FixedSteps",
    "Threshold",
    "NormConfig",
    "NormInputs",
    "NormResult",
    "BatchNormResult",
    "mean_shift",
    "squared_norm",
    "init_a_values",
    "select_lambda_values",
    "iterate_values",
    "layernorm_iterl2",
    "normalize_batch",
]

DEFAULT_STEPS = 5


@dataclass(frozen=True)
class FixedSteps:
    """Run the iteration for exactly `n_iter` steps."""

    n_iter: int = DEFAULT_STEPS

    def __post_init__(self) -> None:
        if self.n_iter < 0:
            raise UsageError("n_iter must be >= 0")


@dataclass(frozen=True)
class Threshold:
    """Iterate until the change in `a` is <= delta_max, capped at `max_steps`."""

    delta_max: float
    max_steps: int = 50

    def __post_init__(self) -> None:
        if not self.delta_max > 0:
            raise UsageError("delta_max must be positive")
        if self.max_steps < 1:
            raise UsageError("max_steps must be >= 1")


@dataclass(frozen=True)
class NormConfig:
    stopping: FixedSteps | Threshold = field(default_factory=FixedSteps)
    lambda_override: float | None = None
    exact_arithmetic: bool = False

    def __post_init__(self) -> None:
        if self.lambda_override is not None and not self.lambda_override > 0:
            raise UsageError("lambda override must be positive")


@dataclass(frozen=True)
class NormInputs:
    """One input vector with its scale/shift parameters, all in one format.

    `x`, `gamma` and `beta` are float64 arrays whose entries are exactly
    representable in `fmt`.
    """

    fmt: FormatSpec
    x: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "gamma", "beta"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, v)
            if v.ndim != 1:
                raise UsageError(f"{name} must be one-dimensional")
            if not np.array_equal(round_array(v, self.fmt), v, equal_nan=True):
                raise UsageError(f"{name} contains values not representable in {self.fmt.name}")
        if len(self.x) < 1:
            raise UsageError("d must be >= 1")
        if not len(self.x) == len(self.gamma) == len(self.beta):
            raise UsageError("x, gamma, beta must share one length")

    @classmethod
    def from_floats(cls, fmt: FormatSpec, x, gamma=None, beta=None) -> "NormInputs":
        """Round arbitrary binary64 inputs into the format and wrap them."""
        xr = round_array(np.asarray(x, dtype=np.float64), fmt)
        d = len(xr)
        g = np.ones(d) if gamma is None else round_array(np.asarray(gamma, dtype=np.float64), fmt)
        b = np.zeros(d) if beta is None else round_array(np.asarray(beta, dtype=np.float64), fmt)
        return cls(fmt, xr, g, b)

    @property
    def d(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class NormResult:
    z: np.ndarray
    y_hat: np.ndarray
    mean: float
    m: float
    a_trajectory: tuple[float, ...]
    steps_taken: int
    converged: bool = True


@dataclass(frozen=True)
class BatchNormResult:
    z: np.ndarray
    y_hat: np.ndarray
    mean: np.ndarray
    m: np.ndarray
    a_trajectory: np.ndarray  # shape (n, steps_taken+1)
    steps_taken: int  # loop steps run: the largest per-row step count
    steps: np.ndarray  # per row
    converged: np.ndarray  # per row

    def row(self, i: int) -> NormResult:
        """Row `i` as a single-vector result, its trajectory cut at its own
        step count."""
        k = int(self.steps[i])
        return NormResult(self.z[i], self.y_hat[i], float(self.mean[i]), float(self.m[i]),
                          tuple(self.a_trajectory[i, :k + 1].tolist()), k,
                          bool(self.converged[i]))


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------

def mean_shift(x: np.ndarray | list, fmt: FormatSpec) -> tuple[np.ndarray, np.ndarray]:
    """Shift the mean of each vector (the last axis of `x`) to zero.

    The sum runs through the adder trees and is multiplied by the pre-rounded
    constant 1/d; each element then subtracts the mean with one rounding.
    Returns (y, mean) in the precision of `x` (see `fpformat._carried`);
    `mean` has shape x.shape[:-1].
    """
    x = _carried(x)
    inv_d = round_value(1.0 / x.shape[-1], fmt)  # pre-stored constant
    mean = round_array(tree_sum_values(x, fmt) * inv_d, fmt)
    return round_array(x - mean[..., None], fmt), mean


def squared_norm(y: np.ndarray | list, fmt: FormatSpec) -> np.ndarray:
    """||y||_2^2 of each vector (the last axis of `y`): elementwise squares
    reduced through the adder trees."""
    y = _carried(y)
    if y.shape[-1] == 0:
        raise UsageError("y must be nonempty")
    m = tree_sum_values(round_array(y * y, fmt), fmt)
    if not np.isfinite(m).all():
        raise RangeOverflowError("squared norm overflowed the format")
    return m


def init_a_values(m: np.ndarray, fmt: FormatSpec, exact: bool = False) -> np.ndarray:
    """a0 = 2^(-(E(m)-bias+1)/2) for positive finite m, from the exponent alone.

    Even exponent sums give an exact power of two; odd ones multiply in the
    format's pre-stored 2^-1/2 constant (binary64 sqrt(1/2) when `exact`), so
    no square root is evaluated.  Subnormal m uses its normalized exponent.
    """
    t = np.frexp(m)[1]  # E(m) - bias + 1
    odd = (t & 1).astype(bool)
    inv_sqrt2 = math.sqrt(0.5) if exact else fmt.inv_sqrt2
    return np.ldexp(1.0, -(t >> 1)) * np.where(odd, inv_sqrt2, 1.0)


def select_lambda_values(m: np.ndarray) -> np.ndarray:
    """Default update rate 2^(-(E(m)-bias+1)) for positive finite m, a power
    of two strictly above the 0.345 * 2^(-(E(m)-bias)) convergence bound
    (0.5 > 0.345)."""
    return np.ldexp(1.0, -np.frexp(m)[1])


def iterate_values(a0: np.ndarray, m: np.ndarray, lam: np.ndarray, config: NormConfig,
                   fmt: FormatSpec | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run da = lambda*m*a*(1 - m*a^2); a += da on every row.

    Emulated mode rounds every primitive op to `fmt` in the order
    t1 = m*a, t2 = t1*a, t3 = 1 - t2, t4 = lambda*t1, da = t4*t3, a += da,
    in the precision `m` is carried in (see `fpformat._carried`);
    `exact_arithmetic` keeps binary64 and needs no format.  The lambda
    multiply is a binary64 product rounded once: the default lambda is a
    power of two (an exponent shift in hardware) that can lie outside the
    binary32 range for subnormal m, and an override such as 0.3 is no
    binary32 value.

    Under Threshold a row stops after the first step whose change in `a`
    (binary64 difference) is <= delta_max, or after max_steps with
    converged False; a stopped row keeps its value in later trajectory
    columns; a row whose `a` leaves the finite range stops there, not
    converged.  Under FixedSteps every row counts as converged.  Returns
    (trajectory of shape (n, steps run + 1), steps per row, converged per
    row, final a).
    """
    stop = config.stopping
    threshold = isinstance(stop, Threshold)

    def rnd(v: np.ndarray) -> np.ndarray:
        return v if config.exact_arithmetic else round_array(v, fmt)

    m = np.asarray(m, dtype=np.float64) if config.exact_arithmetic else _carried(m)
    a = np.asarray(a0, dtype=m.dtype)
    lam = np.asarray(lam, dtype=np.float64)
    active = np.ones(a.shape, dtype=bool)
    steps = np.zeros(a.shape, dtype=np.int64)
    traj = [a]
    # A diverging row runs through inf and NaN; that is reported per row,
    # not as a floating-point warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(stop.max_steps if threshold else stop.n_iter):
            if threshold and not active.any():
                break
            t1 = rnd(m * a)
            t2 = rnd(t1 * a)
            t3 = rnd(1.0 - t2)
            t4 = rnd(lam * t1).astype(a.dtype, copy=False)
            da = rnd(t4 * t3)
            new_a = np.where(active, rnd(a + da), a)
            steps += active
            if threshold:
                # binary64 change against the binary64 delta_max
                change = np.abs(new_a.astype(np.float64) - a)
                active &= np.isfinite(new_a) & (change > stop.delta_max)
            a = new_a
            traj.append(a)
    converged = np.isfinite(a) & ~active if threshold else np.ones(a.shape, dtype=bool)
    return np.stack(traj, axis=1), steps, converged, a


# ---------------------------------------------------------------------------
# Full layer normalization
# ---------------------------------------------------------------------------
#
# A solver maps (m of the live rows, live mask of the batch) to (trajectory,
# steps, converged, a) for the live rows; `_layernorm` runs everything else.

def _iteration(config: NormConfig, fmt: FormatSpec):
    """Solver: the iteration from the exponent-based a0 and update rate."""
    def solve(m: np.ndarray, live: np.ndarray):
        a0 = init_a_values(m, fmt, config.exact_arithmetic)
        if config.lambda_override is None:
            lam = select_lambda_values(m)
        else:
            lam = np.full(m.shape, float(config.lambda_override))
        return iterate_values(a0, m, lam, config, fmt)
    return solve


def _direct(a: np.ndarray):
    """Solver result for an `a` set without iterating: 0 steps, converged."""
    return a[:, None], np.zeros(a.shape, dtype=np.int64), np.ones(a.shape, dtype=bool), a


def _injected(inject_a, fmt: FormatSpec):
    """Solver for the `inject_a` test hook: a scalar or one `a` per row,
    rounded to the format."""
    def solve(m: np.ndarray, live: np.ndarray):
        a = np.broadcast_to(np.asarray(inject_a, dtype=np.float64), live.shape)[live]
        return _direct(round_array(a, fmt))
    return solve


def _layernorm(fmt: FormatSpec, x: np.ndarray, gamma: np.ndarray | None,
               beta: np.ndarray | None, solve) -> BatchNormResult:
    """The layer-norm datapath shared by every public entry point: mean
    shift, squared norm m, `a` from `solve` for the rows with m > 0, then
    scale and shift.  Zero-variance rows (m == 0) give a = 0, 0 steps,
    y_hat = +0 and z = beta.

    x, gamma and beta are narrowed to binary32 once; every stage computes on
    that carry (see `fpformat`), and the results are widened back to
    float64 once at the end.  Overflow and invalid operations give the
    format's infinities and NaNs, as in hardware, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2:
            raise UsageError("x must have shape (n, d)")
        n, d = x.shape
        if d < 1:
            raise UsageError("d must be >= 1")
        f32 = np.float32
        gamma = np.broadcast_to(f32(1.0) if gamma is None else np.asarray(gamma, dtype=f32),
                                (n, d))
        beta = np.broadcast_to(f32(0.0) if beta is None else np.asarray(beta, dtype=f32), (n, d))

        y, mean = mean_shift(x, fmt)
        m = squared_norm(y, fmt)
        live = m > 0.0
        traj_live, steps_live, converged_live, a = solve(m[live], live)
        traj = np.zeros((n, traj_live.shape[1]))
        traj[live] = traj_live
        steps = np.zeros(n, dtype=np.int64)
        steps[live] = steps_live
        converged = np.ones(n, dtype=bool)
        converged[live] = converged_live

        sqrt_d = round_value(math.sqrt(d), fmt)  # pre-stored constant
        scale = np.zeros(n, dtype=np.float32)
        # a binary64 `a` (exact arithmetic, injected) is rounded from binary64
        scale[live] = round_array(a * sqrt_d, fmt)
        y_hat = round_array(scale[:, None] * y, fmt)
        y_hat[~live] = 0.0  # +0.0: 0 * y would carry y's sign
        z = round_array(round_array(gamma * y_hat, fmt) + beta, fmt)
        z[~live] = beta[~live]
    f64 = np.float64
    return BatchNormResult(z.astype(f64), y_hat.astype(f64), mean.astype(f64), m.astype(f64),
                           traj, traj.shape[1] - 1, steps, converged)


def layernorm_iterl2(inputs: NormInputs, config: NormConfig = NormConfig(),
                     inject_a: float | None = None) -> NormResult:
    """Layer-normalize one vector with the iterative scheme: a batch of one.

    Zero-variance input (m == 0) short-circuits to y_hat = 0, z = beta.
    `inject_a` is a test hook that bypasses the iteration and feeds the given
    scalar (rounded to the format) straight into the scale/shift stages.
    """
    fmt = inputs.fmt
    solve = _iteration(config, fmt) if inject_a is None else _injected(inject_a, fmt)
    return _layernorm(fmt, inputs.x[None, :], inputs.gamma, inputs.beta, solve).row(0)


def normalize_batch(fmt: FormatSpec, x: np.ndarray, gamma: np.ndarray | None = None,
                    beta: np.ndarray | None = None, config: NormConfig = NormConfig(),
                    inject_a: np.ndarray | None = None) -> BatchNormResult:
    """Vectorized layer normalization of a batch of same-length vectors.

    `x` has shape (n, d) with format-representable float64 entries; `gamma`
    and `beta` have shape (d,), shared across the batch, or (n, d), one per
    row.  FixedSteps runs every row for the same step count; under Threshold
    each row stops on its own, and `steps` and `converged` report it per row.
    `inject_a` (a scalar or one value per row) is the test hook of
    :func:`layernorm_iterl2`.
    """
    solve = _iteration(config, fmt) if inject_a is None else _injected(inject_a, fmt)
    return _layernorm(fmt, x, gamma, beta, solve)
