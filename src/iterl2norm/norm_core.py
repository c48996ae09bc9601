"""The iterative L2/layer normalization algorithm.

Pipeline: mean shift, squared norm through the adder trees, exponent-based
initialization of the iteration scalar `a`, update-rate selection, the
division-free fixed-point iteration da = lambda*m*a*(1 - m*a^2), and the
final scale/shift.  `a` converges to 1/||y||_2, so sqrt(d)*a*y is the
layer-norm core without any divide or square root at runtime.

Every entry point runs one batched datapath, split at the solve for `a`:
the vector stages (`shift_batch`), one solve, then the scale and shift
stages.  Only the solve varies: the iteration, FISR (`baselines`), or an
injected value; one solve may cover several batches (`normalize_batches`).
The single-vector API is a batch of one.  The iteration runs in the target
format's emulated arithmetic (the hardware iteration datapath uses the same
format multipliers and adders); `init_a_values` and `iterate_values` run in
binary64 when given no format, for property tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import RangeOverflowError, UsageError
from .fpformat import (
    FormatSpec,
    round_array,
    round_value,
    tree_sum_values,
    _carried,
)

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

    def __post_init__(self) -> None:
        if self.lambda_override is not None and not 0 < self.lambda_override < math.inf:
            raise UsageError("lambda override must be positive and finite")


@dataclass(frozen=True)
class BatchNormResult:
    """The outputs `z` of one batch and each row's diagnostics, all float64
    but the per-row `steps` and `converged`.  The normalized `y_hat` is not
    kept: with gamma None and a beta of -0.0, `z` is `y_hat` bit for bit."""

    z: np.ndarray
    mean: np.ndarray
    m: np.ndarray
    a_trajectory: np.ndarray  # shape (n, steps_taken+1)
    steps: np.ndarray  # per row
    converged: np.ndarray  # per row

    @property
    def steps_taken(self) -> int:
        """Loop steps run: the largest per-row step count."""
        return self.a_trajectory.shape[1] - 1


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
    reduced through the adder trees.  A result that is not finite raises
    RangeOverflowError with the index of the first such vector as `row`."""
    y = _carried(y)
    if y.shape[-1] == 0:
        raise UsageError("y must be nonempty")
    m = tree_sum_values(round_array(y * y, fmt), fmt)
    finite = np.isfinite(m).reshape(-1)
    if not finite.all():
        raise RangeOverflowError(f"squared norm overflowed {fmt.name}",
                                 row=int(np.argmin(finite)))
    return m


def init_a_values(m: np.ndarray, fmt: FormatSpec | None) -> np.ndarray:
    """a0 = 2^(-(E(m)-bias+1)/2) for positive finite m, from the exponent alone.

    Even exponent sums give an exact power of two; odd ones multiply in the
    format's pre-stored 2^-1/2 constant (binary64 sqrt(1/2) when `fmt` is
    None), so no square root is evaluated.  Subnormal m uses its normalized
    exponent.
    """
    t = np.frexp(m)[1]  # E(m) - bias + 1
    odd = (t & 1).astype(bool)
    inv_sqrt2 = math.sqrt(0.5) if fmt is None else fmt.inv_sqrt2
    return np.ldexp(1.0, -(t >> 1)) * np.where(odd, inv_sqrt2, 1.0)


def select_lambda_values(m: np.ndarray) -> np.ndarray:
    """Default update rate 2^(-(E(m)-bias+1)) for positive finite m, a power
    of two strictly above the 0.345 * 2^(-(E(m)-bias)) convergence bound
    (0.5 > 0.345)."""
    return np.ldexp(1.0, -np.frexp(m)[1])


def iterate_values(a0: np.ndarray, m: np.ndarray, lam: np.ndarray,
                   stop: FixedSteps | Threshold, fmt: FormatSpec | None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run da = lambda*m*a*(1 - m*a^2); a += da on every row.

    Emulated mode rounds every primitive op to `fmt` in the order
    t1 = m*a, t2 = t1*a, t3 = 1 - t2, t4 = lambda*t1, da = t4*t3, a += da,
    in the precision `m` is carried in (see `fpformat._carried`); with
    `fmt` None every op is an unrounded binary64 op.  The lambda
    multiply is a binary64 product rounded once: the default lambda is a
    power of two (an exponent shift in hardware) that can lie outside the
    binary32 range for subnormal m, and an override such as 0.3 is no
    binary32 value.

    Under Threshold a row stops after the first step whose change in `a`
    (binary64 difference) is <= delta_max, or after max_steps with
    converged False; a stopped row keeps its value in later trajectory
    columns; a row whose `a` leaves the finite range stops there, not
    converged.  Under FixedSteps every row whose final `a` is finite counts
    as converged.  Returns (trajectory of shape (n, steps run + 1), steps
    per row, converged per row); the final `a` is the trajectory's last
    column.
    """
    threshold = isinstance(stop, Threshold)

    def rnd(v: np.ndarray) -> np.ndarray:
        return v if fmt is None else round_array(v, fmt)

    m = np.asarray(m, dtype=np.float64) if fmt is None else _carried(m)
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
    converged = np.isfinite(a) & ~active if threshold else np.isfinite(a)
    return np.stack(traj, axis=1), steps, converged


# ---------------------------------------------------------------------------
# Full layer normalization
# ---------------------------------------------------------------------------
#
# The datapath runs in three parts, as the macro does: the vector stages of
# each batch (`_shifted`), one scalar solve for `a` over the live rows
# (m > 0) of every batch at hand, then the scale and shift stages of each
# batch (`_finish`).  A solve is a value, (trajectory, steps, converged) for
# the live rows; `a` is the trajectory's last column.  Every solve is
# elementwise per row, so one solve over several batches gives each row what
# a solve of its own batch would.

def _iterate(fmt: FormatSpec, config: NormConfig, m: np.ndarray) -> tuple:
    """The iteration's solve of the live `m`, from the exponent-based a0 and
    update rate."""
    a0 = init_a_values(m, fmt)
    if config.lambda_override is None:
        lam = select_lambda_values(m)
    else:
        lam = np.full(m.shape, float(config.lambda_override))
    with np.errstate(over="ignore", invalid="ignore"):
        return iterate_values(a0, m, lam, config.stopping, fmt)


def _given(a: np.ndarray) -> tuple:
    """The solve for an `a` set without iterating: 0 steps, converged."""
    return a[:, None], np.zeros(a.shape, dtype=np.int64), np.ones(a.shape, dtype=bool)


class Shifted(NamedTuple):
    """A batch after the vector stages: the mean-shifted rows `y`, shape
    (n, d), and each row's `mean` and squared norm `m`, shape (n,), all in
    the binary32 carry (see `fpformat`)."""

    y: np.ndarray
    mean: np.ndarray
    m: np.ndarray


def shift_batch(fmt: FormatSpec, x: np.ndarray) -> Shifted:
    """The vector stages: narrow x, shape (n, d), to binary32 once, shift
    each row's mean to zero and reduce its squared norm.  A squared norm that
    overflows the format raises RangeOverflowError naming the first such
    row."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2:
            raise UsageError("x must have shape (n, d)")
        if x.shape[1] < 1:
            raise UsageError("d must be >= 1")
        y, mean = mean_shift(x, fmt)
        return Shifted(y, mean, squared_norm(y, fmt))


def _shifted(fmt: FormatSpec, x: np.ndarray | Shifted, gamma: np.ndarray | None,
             beta: np.ndarray | None) -> Shifted:
    """The vector stages of `x`, unless it is a `Shifted` already.  A gamma
    or beta whose shape is neither (d,) nor (n, d) is a UsageError."""
    sh = x if isinstance(x, Shifted) else shift_batch(fmt, x)
    for name, v in (("gamma", gamma), ("beta", beta)):
        if v is not None and np.shape(v) not in (sh.y.shape[1:], sh.y.shape):
            raise UsageError(f"{name} has shape {np.shape(v)}, not {sh.y.shape[1:]} "
                             f"or {sh.y.shape}")
    return sh


class _Solved(NamedTuple):
    """One batch of a solve: its vector stages, gamma and beta, and the
    solve of its live rows."""

    shifted: Shifted
    gamma: np.ndarray | None
    beta: np.ndarray | None
    solution: tuple


def _finish(fmt: FormatSpec, part: _Solved) -> BatchNormResult:
    """The scale and shift stages of one batch.  Zero-variance rows (m == 0)
    give a = 0, 0 steps and z = beta.  The trajectory ends at the batch's
    largest step count (a stopped row repeats its last value).

    gamma and beta are narrowed to binary32 once; the results are widened
    back to float64 once.  Overflow and invalid operations give the format's
    infinities and NaNs, as in hardware, without a numpy warning."""
    y, live = part.shifted.y, part.shifted.m > 0.0
    traj_live, steps_live, converged_live = part.solution
    n, d = y.shape
    with np.errstate(over="ignore", invalid="ignore"):
        f32 = np.float32
        gamma = np.broadcast_to(
            f32(1.0) if part.gamma is None else np.asarray(part.gamma, dtype=f32), (n, d))
        beta = np.broadcast_to(
            f32(0.0) if part.beta is None else np.asarray(part.beta, dtype=f32), (n, d))
        steps = np.zeros(n, dtype=np.int64)
        steps[live] = steps_live
        traj = np.zeros((n, int(steps.max(initial=0)) + 1))
        traj[live] = traj_live[:, :traj.shape[1]]
        converged = np.ones(n, dtype=bool)
        converged[live] = converged_live

        sqrt_d = round_value(math.sqrt(d), fmt)  # pre-stored constant
        scale = np.zeros(n, dtype=f32)
        # an injected `a` is binary64, and is rounded from binary64
        scale[live] = round_array(traj_live[:, -1] * sqrt_d, fmt)
        y_hat = round_array(scale[:, None] * y, fmt)
        z = round_array(round_array(gamma * y_hat, fmt) + beta, fmt)
        z[~live] = beta[~live]
    f64 = np.float64
    return BatchNormResult(z.astype(f64), part.shifted.mean.astype(f64),
                           part.shifted.m.astype(f64), traj, steps, converged)


def layernorm_iterl2(fmt: FormatSpec, x: np.ndarray, gamma: np.ndarray | None = None,
                     beta: np.ndarray | None = None,
                     config: NormConfig = NormConfig()) -> BatchNormResult:
    """Layer-normalize one vector with the iterative scheme: a batch of one.

    `x`, and `gamma` and `beta` when given, are 1-D arrays of one length
    d >= 1 whose entries are representable in `fmt`; anything else is a
    UsageError (the shared datapath checks d and the lengths).  Returns the
    one-row BatchNormResult that `normalize_batch` gives for `x[None, :]`.
    """
    given = {name: np.asarray(v, dtype=np.float64)
             for name, v in (("x", x), ("gamma", gamma), ("beta", beta)) if v is not None}
    for name, v in given.items():
        if v.ndim != 1:
            raise UsageError(f"{name} must be one-dimensional")
        if not np.array_equal(round_array(v, fmt), v, equal_nan=True):
            raise UsageError(f"{name} contains values not representable in {fmt.name}")
    gamma, beta = given.get("gamma"), given.get("beta")
    sh = _shifted(fmt, given["x"][None, :], gamma, beta)
    return _finish(fmt, _Solved(sh, gamma, beta, _iterate(fmt, config, sh.m[sh.m > 0.0])))


def normalize_batch(fmt: FormatSpec, x: np.ndarray | Shifted, gamma: np.ndarray | None = None,
                    beta: np.ndarray | None = None, config: NormConfig = NormConfig(),
                    inject_a: np.ndarray | None = None) -> BatchNormResult:
    """Vectorized layer normalization of a batch of same-length vectors.

    `x` has shape (n, d) with format-representable float64 entries, or is
    the `Shifted` that `shift_batch` made of such a batch (to run several
    configurations on one batch without repeating its vector stages);
    `gamma` and `beta` have shape (d,), shared across the batch, or (n, d),
    one per row.  FixedSteps runs every row for the same step count; under
    Threshold each row stops on its own, and `steps` and `converged` report
    it per row.  `inject_a` (a scalar or one value per row) is a test hook
    that bypasses the iteration and feeds the given `a`, rounded to the
    format, straight into the scale and shift stages.
    """
    if isinstance(x, _Solved):  # one batch of `normalize_batches`
        return _finish(fmt, x)
    sh = _shifted(fmt, x, gamma, beta)
    live = sh.m > 0.0
    if inject_a is None:
        solution = _iterate(fmt, config, sh.m[live])
    else:
        a = np.broadcast_to(np.asarray(inject_a, dtype=np.float64), live.shape)[live]
        solution = _given(round_array(a, fmt))
    return _finish(fmt, _Solved(sh, gamma, beta, solution))


def normalize_batches(fmt: FormatSpec, parts, config: NormConfig = NormConfig()
                      ) -> list[BatchNormResult]:
    """:func:`normalize_batch` on several batches, each of its own length d,
    with one solve for `a` over the rows of all of them.

    `parts` is a sequence of (x or Shifted, gamma, beta), as in
    `normalize_batch`; each part's vector stages and shapes are checked
    before the next part's.  Returns one BatchNormResult per part, in order,
    equal to what `normalize_batch` gives that part alone.  Every result is
    returned by a `normalize_batch` call, so a wrapper of `normalize_batch`
    (a profiler or tracer) sees every row.
    """
    shifted = [_shifted(fmt, x, gamma, beta) for x, gamma, beta in parts]
    live_m = [sh.m[sh.m > 0.0] for sh in shifted]
    solution = _iterate(fmt, config, np.concatenate(live_m))
    ends = list(accumulate(map(len, live_m)))
    return [normalize_batch(fmt, _Solved(sh, gamma, beta, tuple(v[i:j] for v in solution)))
            for sh, (_, gamma, beta), i, j in zip(shifted, parts, [0, *ends], ends)]
