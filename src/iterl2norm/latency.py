"""Parameterized cycle-count model of the normalization macro.

The macro has one fixed geometry: eight banks of eight lanes, sixteen rows
deep.  It works on CHUNK_SIZE = 64-element chunks (the reduction unit of
`fpformat.tree_sum_values`) and holds at most D_MAX = 1024 elements, so
chunk-scaled phases cost `fixed + per_chunk * ceil(d/64)` cycles and the
iteration phase is linear in the programmed step count.  The model counts
cycles only; it does not simulate buffer contents or data values.

The default calibration pins the two published endpoints exactly:
116 cycles at d = 64 and 227 at d = 1024 (5 iteration steps).  An affine
fit A + B*ceil(d/64) cannot hit both with an integer B (15B = 111), so the
6-cycle remainder is charged as a control-overhead step every fourth chunk;
intermediate-d totals therefore carry a +-4 cycle tolerance against real
hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import UsageError
from .fpformat import CHUNK_SIZE

# Sixteen buffer rows of one chunk each.
D_MAX = 16 * CHUNK_SIZE


@dataclass(frozen=True)
class StageCosts:
    """Per-phase cycle parameters (all nonnegative integers).

    Mul and Add blocks share a two-cycle latency; one iteration step runs
    four multiplies, one subtract and one add, hence the default
    4*2 + 2*2 = 12 cycles per step.
    """

    control_fixed: int = 25
    mean_sum_fixed: int = 4
    mean_sum_per_chunk: int = 2
    mean_mul_fixed: int = 2
    mean_shift_fixed: int = 2
    mean_shift_per_chunk: int = 1
    inner_product_fixed: int = 6
    inner_product_per_chunk: int = 2
    iteration_fixed: int = 6
    iteration_per_step: int = 12
    output_scale_fixed: int = 2
    output_scale_per_chunk: int = 1
    output_affine_fixed: int = 2
    output_affine_per_chunk: int = 1
    # Calibration remainder: extra control cycles charged once per
    # `chunk_group_size` chunks beyond the first.
    chunk_group_size: int = 4
    chunk_group_cost: int = 2

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, int) or v < 0:
                raise UsageError(f"stage cost {f.name} must be a nonnegative integer")
        if self.chunk_group_size < 1:
            raise UsageError("chunk_group_size must be >= 1")


@dataclass(frozen=True)
class CycleReport:
    total: int
    per_phase: dict[str, int]


PHASES = ("control", "mean_sum", "mean_mul", "mean_shift", "inner_product",
          "iteration", "output_scale", "output_affine")


def estimate_cycles(d: int, n_iter: int, costs: StageCosts = StageCosts()) -> CycleReport:
    """Cycle count for normalizing one d-long vector with n_iter steps."""
    if not 1 <= d <= D_MAX:
        raise UsageError(f"d must lie in [1, {D_MAX}]")
    if n_iter < 0:
        raise UsageError("n_iter must be >= 0")
    chunks = -(-d // CHUNK_SIZE)
    per_phase = {
        "control": costs.control_fixed
                   + ((chunks - 1) // costs.chunk_group_size) * costs.chunk_group_cost,
        "mean_sum": costs.mean_sum_fixed + costs.mean_sum_per_chunk * chunks,
        "mean_mul": costs.mean_mul_fixed,
        "mean_shift": costs.mean_shift_fixed + costs.mean_shift_per_chunk * chunks,
        "inner_product": costs.inner_product_fixed + costs.inner_product_per_chunk * chunks,
        "iteration": costs.iteration_fixed + costs.iteration_per_step * n_iter,
        "output_scale": costs.output_scale_fixed + costs.output_scale_per_chunk * chunks,
        "output_affine": costs.output_affine_fixed + costs.output_affine_per_chunk * chunks,
    }
    return CycleReport(total=sum(per_phase.values()), per_phase=per_phase)

