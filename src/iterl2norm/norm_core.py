"""The iterative L2/layer normalization algorithm.

Pipeline: the mean shift and the squared norm through the adder trees
(the phases mean_sum, mean_mul, mean_shift and inner_product of
`latency.PHASES`, all in `shift_batches`), exponent-based
initialization of the iteration scalar `a`, update-rate selection, the
division-free fixed-point iteration da = lambda*m*a*(1 - m*a^2), and the
final scale/shift.  `a` converges to 1/||y||_2, so sqrt(d)*a*y is the
layer-norm core without any divide or square root at runtime.

Every entry point runs one batched datapath, split at the solve for `a`:
the vector stages (`shift_batches`, which runs a batch made of parts of
several lengths in one pass; `shift_batch` is its one-part case), one
solve, then the scale and shift stages.  Only the solve varies: the
iteration, FISR (`baselines`), or an injected value; one solve may cover
several batches (`normalize_batches`).  A threshold solve drops a row
from its loop once the row repeats with period 2, and reports it as
running it to the cap would.
The single-vector API is a batch of one.  The iteration runs in the target
format's emulated arithmetic (the hardware iteration datapath uses the same
format multipliers and adders); `init_a_values` and `iterate_values` run in
binary64 when given no format, for property tests.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import RangeOverflowError, UsageError, check_integers, check_lambda, check_positive
from .fpformat import (
    FormatSpec,
    representable,
    round_array,
    stored_constant,
    tree_sum_values,
    _carried,
)

DEFAULT_STEPS = 5


class FixedSteps(namedtuple("FixedSteps", "n_iter", defaults=(DEFAULT_STEPS,))):
    """Run the iteration for exactly `n_iter` steps."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_integers("n_iter", self.n_iter, at_least=0)
        return self


class Threshold(namedtuple("Threshold", "delta_max max_steps", defaults=(50,))):
    """Iterate until the change in `a` is <= delta_max, capped at `max_steps`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_positive("delta_max", self.delta_max, finite=False)
        check_integers("max_steps", self.max_steps, at_least=1)
        return self


class NormConfig(namedtuple("NormConfig", "stopping lambda_override",
                            defaults=(FixedSteps(), None))):
    """The stopping rule (FixedSteps or Threshold) and the update-rate
    override (None: the default rate)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.stopping, (FixedSteps, Threshold)):
            raise UsageError(f"stopping must be a FixedSteps or a Threshold, "
                             f"not {self.stopping!r}")
        check_lambda(self.lambda_override)
        return self


class BatchNormResult(NamedTuple):
    """The outputs `z` of one batch, in the binary32 carry (float32, which
    holds every format value exactly), and each row's diagnostics, float64
    but the per-row `steps` and `converged`.  The normalized `y_hat` is not
    kept: with gamma None and a beta of -0.0, `z` is `y_hat` bit for bit.
    A gamma or beta of None skips its stage; z is then what a gamma of ones
    or a beta of +0.0 gives, bit for bit (see `_finish`)."""

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
    converged.  A row still running whose new `a` equals, bit for bit, its
    `a` from two steps back repeats with period 2 from there on (a step is
    a fixed map of `a` for the row's m and lambda), with the same change at
    every step, so it can never stop: the loop runs on without it, and it
    reports max_steps steps, not converged, and a trajectory that
    alternates between its last two values up to column max_steps, as
    running it to the cap would.  The loop ends once no row runs.  Under
    FixedSteps every row whose final `a` is finite counts as converged.
    Returns (trajectory of shape (n, steps run + 1), steps per row,
    converged per row); the final `a` is the trajectory's last column.
    """
    threshold = isinstance(stop, Threshold)

    def rnd(v: np.ndarray) -> np.ndarray:
        return v if fmt is None else round_array(v, fmt)

    m = np.asarray(m, dtype=np.float64) if fmt is None else _carried(m)
    a = np.asarray(a0, dtype=m.dtype)
    lam = np.asarray(lam, dtype=np.float64)
    active = np.ones(a.shape, dtype=bool)
    cycling = np.zeros(a.shape, dtype=bool)  # left the loop in a 2-cycle
    word = f"u{a.itemsize}"  # compares the bits of two trajectory columns
    # a fixed-step row runs every step; a threshold row counts its own
    steps = np.full(a.shape, 0 if threshold else stop.n_iter, dtype=np.int64)
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
            new_a = rnd(a + da)
            if threshold:
                # a cycling row's step is computed like any other: its
                # trajectory keeps alternating
                new_a = np.where(active | cycling, new_a, a)
                steps += active
                # binary64 change against the binary64 delta_max
                change = np.abs(new_a.astype(np.float64) - a)
                active &= np.isfinite(new_a) & (change > stop.delta_max)
                if len(traj) > 1:
                    repeats = new_a.view(word) == traj[-2].view(word)
                    repeats &= active
                    cycling |= repeats
                    active &= ~repeats
            a = new_a
            traj.append(a)
        if threshold and cycling.any():
            while len(traj) <= stop.max_steps:
                traj.append(np.where(cycling, traj[-2], traj[-1]))
            steps[cycling] = stop.max_steps
    converged = np.isfinite(a) & ~active & ~cycling if threshold else np.isfinite(a)
    return np.stack(traj, axis=1), steps, converged


# ---------------------------------------------------------------------------
# Full layer normalization
# ---------------------------------------------------------------------------
#
# The datapath runs in three parts, as the macro does: the vector stages of
# each batch (`_shifted`, or `shift_batches` over several batches at
# once), one scalar solve for `a` over the live rows
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
    return iterate_values(a0, m, lam, config.stopping, fmt)


def _given(a: np.ndarray) -> tuple:
    """The solve for an `a` set without iterating: 0 steps, converged."""
    return a[:, None], np.zeros(a.shape, dtype=np.int64), np.ones(a.shape, dtype=bool)


class Buffers:
    """Named arrays that one caller reuses from batch to batch, so that a
    loop over batches of growing size touches fresh memory only once.

    `take(name, shape, dtype)` returns a C-contiguous view of the first
    prod(shape) elements of the buffer `name`, reallocated only when a
    request outgrows it or changes its dtype; the view holds whatever the
    buffer's last taker left there.  `size` is the element count each buffer
    starts with: the caller's largest batch, so that no buffer is
    reallocated on the way up.  The datapath takes two, both float32:
    "x32" and "y" in `shift_batches`."""

    def __init__(self, size: int = 0) -> None:
        self.size = size
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        count = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.dtype != dtype or flat.size < count:
            flat = self._flat[name] = np.empty(max(count, self.size), dtype)
        return flat[:count].reshape(shape)


def _take(buffers: Buffers | None, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """`buffers.take(name, shape, dtype)`, or a new array without buffers."""
    return np.empty(shape, dtype) if buffers is None else buffers.take(name, shape, dtype)


class Shifted(NamedTuple):
    """A batch after the vector stages: the mean-shifted rows `y`, shape
    (n, d), and each row's `mean` and squared norm `m`, shape (n,), all in
    the binary32 carry (see `fpformat`)."""

    y: np.ndarray
    mean: np.ndarray
    m: np.ndarray


def shift_batch(fmt: FormatSpec, x: np.ndarray, buffers: Buffers | None = None) -> Shifted:
    """The vector stages of x, shape (n, d): the one-part batch of
    :func:`shift_batches`, whose `Shifted` it returns."""
    return shift_batches(fmt, [x], buffers)[0]


def shift_batches(fmt: FormatSpec, parts: list[np.ndarray],
                  buffers: Buffers | None = None) -> list[Shifted]:
    """The vector stages of a batch made of several parts, each an (n, d)
    array of its own d, in one pass, narrowed to binary32 once: one
    `Shifted` per part, in order.  They run in the order and under the
    names of `latency.PHASES`: mean_sum reduces each row through the adder
    trees, mean_mul multiplies the sum by the pre-stored constant 1/d of
    its part, mean_shift subtracts the mean from each element, and
    inner_product reduces the squares of the shifted row.  The roundings
    and each tree (`tree_sum_values`) run once over the rows of every part,
    and each row gets what a batch of its part alone would give it.

    A squared norm that is not finite raises RangeOverflowError naming the
    first such row of the first part that has one, with the first of its
    stages that is not finite as the message: a NaN in x, a value of x in
    the carry (an infinity in x, or a finite value that overflows binary32,
    is a value out of range), the sum, a mean-shifted value, or else the
    squared norm.  Its `failures` name that row and stage for every part
    that has such a row.

    One float32 part (a binary file's decoded rows) is the carry as it is,
    and y's squares go to a new array; else every part is narrowed into
    one binary32 copy, which then takes y's squares.  y is one array that
    each part's `y` is a view of, and so are the means and the squared
    norms.  y and that copy are new arrays, or with `buffers` the buffers
    "y" and "x32" (each of the size of every part together)."""
    with np.errstate(over="ignore", invalid="ignore"):
        parts = [np.asarray(x) for x in parts]
        rows, elements = [], []  # each part's slice of the rows, and of the elements, of all
        n = size = 0
        for x in parts:
            if x.ndim != 2:
                raise UsageError("x must have shape (n, d)")
            if x.shape[1] < 1:
                raise UsageError("d must be >= 1")
            rows.append(slice(n, n + x.shape[0]))
            elements.append(slice(size, size + x.size))
            n, size = n + x.shape[0], size + x.size
        if not parts:
            return []

        def views(flat: np.ndarray) -> list[np.ndarray]:
            """Each part's rows in `flat`, an array of the elements of all."""
            return [flat[span].reshape(x.shape) for span, x in zip(elements, parts)]

        own = None  # the binary32 copy of x made here: it takes y's squares
        if len(parts) == 1 and parts[0].dtype == np.float32:
            x32 = parts
        else:
            own = _take(buffers, "x32", (size,), np.float32)
            x32 = views(own)
            for dst, x in zip(x32, parts):
                dst[...] = x
        total = tree_sum_values(x32, fmt)  # mean_sum
        inv_d = stored_constant(1.0 / parts[0].shape[1], fmt)
        if len(parts) > 1:  # one constant per row, in the carry's precision
            inv_d = np.repeat(np.array([stored_constant(1.0 / x.shape[1], fmt) for x in parts],
                                       dtype=total.dtype), [x.shape[0] for x in parts])
        mean = round_array(total * inv_d, fmt)  # mean_mul
        flat_y = _take(buffers, "y", (size,), np.float32)
        y = views(flat_y)
        for dst, src, span in zip(y, x32, rows):
            np.subtract(src, mean[span, None], out=dst)  # mean_shift
        round_array(flat_y, fmt, out=flat_y)
        sq = np.multiply(flat_y, flat_y, out=own)  # inner_product
        m = tree_sum_values(views(round_array(sq, fmt, out=sq)), fmt)
        finite = np.isfinite(m)
        if not finite.all():
            # a non-finite x, sum or y makes m non-finite too
            failures = []
            for g, (x, yg, span) in enumerate(zip(parts, y, rows)):
                if not finite[span].all():
                    row = int(np.argmin(finite[span]))
                    failures.append((g, row, _failed_stage(fmt, x[row], total[span][row],
                                                           yg[row])))
            _, row, message = failures[0]
            raise RangeOverflowError(message, row=row, failures=tuple(failures))
    return [Shifted(yg, mean[span], m[span]) for yg, span in zip(y, rows)]


def _failed_stage(fmt: FormatSpec, x: np.ndarray, total, y: np.ndarray) -> str:
    """The message for a row whose squared norm is not finite: its input
    row `x`, its sum and its shifted row `y`.  The row of x is narrowed
    again, as y's squares may have overwritten its binary32 copy."""
    if np.isnan(x).any():
        return "x contains NaN values"
    stages = (("value out of range for", x.astype(np.float32)),
              ("sum overflowed", total), ("mean-shifted value overflowed", y))
    what = next((w for w, v in stages if not np.isfinite(v).all()), "squared norm overflowed")
    return f"{what} {fmt.name}"


def _shifted(fmt: FormatSpec, x: np.ndarray | Shifted, gamma: np.ndarray | None,
             beta: np.ndarray | None) -> Shifted:
    """The vector stages of `x`, unless it is a `Shifted` already.  An `x`
    (not a `Shifted`) holding a NaN or an infinity, an `x`, gamma or beta
    holding a value that is not representable in `fmt`, or a gamma or beta
    whose shape is neither (d,) nor (n, d), is a UsageError."""
    if isinstance(x, Shifted):
        sh = x
    else:
        x = _representable(fmt, "x", x)
        if not np.isfinite(x).all():
            raise UsageError("x contains NaN or infinite values")
        sh = shift_batch(fmt, x)
    for name, v in (("gamma", gamma), ("beta", beta)):
        if v is None:
            continue
        if np.shape(v) not in (sh.y.shape[1:], sh.y.shape):
            raise UsageError(f"{name} has shape {np.shape(v)}, not {sh.y.shape[1:]} "
                             f"or {sh.y.shape}")
        _representable(fmt, name, v)
    return sh


def _representable(fmt: FormatSpec, name: str, v) -> np.ndarray:
    """`v` as an array, after checking that `fmt` holds each of its values
    (`fpformat.representable`)."""
    v = np.asarray(v)
    if not representable(v, fmt):
        raise UsageError(f"{name} contains values not representable in {fmt.name}")
    return v


class _Solved(NamedTuple):
    """One batch of a solve: its vector stages, gamma and beta, and the
    solve of its live rows."""

    shifted: Shifted
    gamma: np.ndarray | None
    beta: np.ndarray | None
    solution: tuple


def _finish(fmt: FormatSpec, part: _Solved) -> BatchNormResult:
    """The scale and shift stages of one batch.  Zero-variance rows (m == 0)
    give a = 0, 0 steps and z = beta (+0 when beta is None).  The
    trajectory ends at the batch's largest step count (a stopped row repeats
    its last value).

    y_hat = round(round(sqrt(d) * a) * y) and z = round(round(gamma * y_hat)
    + beta) are computed in one new binary32 array, rounded in place, which
    the result keeps as its float32 `z`.  A stage runs only when its operand
    is given: with gamma None the product by 1, which changes no bit, is
    skipped; with beta None the + 0 is an unrounded binary32 add, exact
    since y_hat is already a format value and x + 0 is x for every x but
    -0, which becomes +0 as round(y_hat + 0) makes it.  gamma and beta are
    narrowed to binary32 once.  Overflow and invalid operations give the
    format's infinities and NaNs, as in hardware, without a numpy warning."""
    y, live = part.shifted.y, part.shifted.m > 0.0
    traj_live, steps_live, converged_live = part.solution
    n, d = y.shape
    f32, f64 = np.float32, np.float64
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.zeros(n, dtype=np.int64)
        steps[live] = steps_live
        traj = np.zeros((n, int(steps.max(initial=0)) + 1))
        traj[live] = traj_live[:, :traj.shape[1]]
        converged = np.ones(n, dtype=bool)
        converged[live] = converged_live

        sqrt_d = stored_constant(math.sqrt(d), fmt)  # pre-stored constant
        scale = np.zeros(n, dtype=f32)
        # an injected `a` is binary64, and is rounded from binary64
        scale[live] = round_array(traj_live[:, -1] * sqrt_d, fmt)
        z = np.multiply(scale[:, None], y)
        round_array(z, fmt, out=z)  # y_hat
        if part.gamma is not None:
            np.multiply(z, np.asarray(part.gamma, dtype=f32), out=z)
            round_array(z, fmt, out=z)
        if part.beta is None:
            np.add(z, f32(0.0), out=z)
            z[~live] = 0.0
        else:
            beta = np.broadcast_to(np.asarray(part.beta, dtype=f32), (n, d))
            np.add(z, beta, out=z)
            round_array(z, fmt, out=z)
            z[~live] = beta[~live]
    return BatchNormResult(z, part.shifted.mean.astype(f64),
                           part.shifted.m.astype(f64), traj, steps, converged)


def layernorm_iterl2(fmt: FormatSpec, x: np.ndarray, gamma: np.ndarray | None = None,
                     beta: np.ndarray | None = None,
                     config: NormConfig = NormConfig()) -> BatchNormResult:
    """Layer-normalize one vector with the iterative scheme: a batch of one.

    `x`, and `gamma` and `beta` when given, are 1-D arrays of one length
    d >= 1 whose entries are representable in `fmt`; anything else is a
    UsageError (`normalize_batch` checks d, the lengths and the values).
    Returns the one-row BatchNormResult of `normalize_batch` on `x[None, :]`.
    """
    for name, v in (("x", x), ("gamma", gamma), ("beta", beta)):
        if v is not None and np.ndim(v) != 1:
            raise UsageError(f"{name} must be one-dimensional")
    return normalize_batch(fmt, np.asarray(x)[None, :], gamma, beta, config)


def normalize_batch(fmt: FormatSpec, x: np.ndarray | Shifted, gamma: np.ndarray | None = None,
                    beta: np.ndarray | None = None, config: NormConfig = NormConfig(),
                    inject_a: np.ndarray | None = None) -> BatchNormResult:
    """Vectorized layer normalization of a batch of same-length vectors.

    `x` has shape (n, d) with format-representable float64 or float32
    entries, or is the `Shifted` that `shift_batch` made of such a batch (to
    run several configurations on one batch without repeating its vector
    stages); `gamma` and `beta` have shape (d,), shared across the batch,
    or (n, d), one per row.  A value of `x` (unless it is a `Shifted`),
    gamma or beta that the format cannot hold is a UsageError.  FixedSteps
    runs every row for the same step count; under Threshold each row stops
    on its own, and `steps` and `converged` report it per row.  `inject_a`
    (a scalar or one value per row) is a test hook that bypasses the
    iteration and feeds the given `a`, rounded to the format, straight into
    the scale and shift stages.
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

    `parts` is an iterable of (x or Shifted, gamma, beta), as in
    `normalize_batch`, read once; each part's vector stages and shapes are
    checked before the next part's.  Returns one BatchNormResult per part,
    in order, equal to what `normalize_batch` gives that part alone (no
    part: an empty list).  Every result is returned by a `normalize_batch`
    call, so a wrapper of `normalize_batch` (a profiler or tracer) sees
    every row.
    """
    shifted = [(_shifted(fmt, x, gamma, beta), gamma, beta) for x, gamma, beta in parts]
    if not shifted:
        return []
    live_m = [sh.m[sh.m > 0.0] for sh, _, _ in shifted]
    solution = _iterate(fmt, config, np.concatenate(live_m))
    ends = list(accumulate(map(len, live_m)))
    return [normalize_batch(fmt, _Solved(sh, gamma, beta, tuple(v[i:j] for v in solution)))
            for (sh, gamma, beta), i, j in zip(shifted, [0, *ends], ends)]


def normalize_steps(fmt: FormatSpec, x: np.ndarray | Shifted, steps,
                    lambda_override: float | None = None):
    """:func:`normalize_batch` of `x` (an (n, d) batch or its `Shifted`)
    under FixedSteps(s) for each step count s in `steps`, in order, from one
    iteration of max(steps) steps: a fixed-step iteration does the same
    work at every step whatever its length, so s steps give the first s + 1
    columns of the longer trajectory, and a row is converged when its `a`
    after s steps is finite.

    The arguments are checked, and the vector stages and the iteration run,
    when it is called: no step count, one that is not an integer >= 0, or
    an `x` or update rate that `normalize_batch` rejects is a UsageError
    here, and a squared norm that overflows a RangeOverflowError.  It
    returns an iterator that finishes one BatchNormResult per step count as
    it is asked for, each returned by a `normalize_batch` call, as in
    `normalize_batches`.
    """
    steps = tuple(steps)
    check_integers("steps", *steps)
    if not steps or min(steps) < 0:
        raise UsageError("steps must be one or more step counts >= 0")
    sh = _shifted(fmt, x, None, None)
    config = NormConfig(FixedSteps(max(steps)), lambda_override)
    traj = _iterate(fmt, config, sh.m[sh.m > 0.0])[0]
    solutions = ((traj[:, :s + 1], np.full(len(traj), s, dtype=np.int64), np.isfinite(traj[:, s]))
                 for s in steps)
    return (normalize_batch(fmt, _Solved(sh, None, None, solution)) for solution in solutions)
