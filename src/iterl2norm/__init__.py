"""Iterative, division-free L2/layer normalization with bit-exact floating
point format emulation, baselines, and a macro latency model."""

__version__ = "0.1.0"

from .errors import DataFormatError, RangeOverflowError, UsageError
from .fpformat import (
    BF16,
    FP16,
    FP32,
    FORMATS,
    FormatSpec,
    round_array,
    round_value,
    tree_sum_values,
)
from .norm_core import (
    FixedSteps,
    NormConfig,
    Shifted,
    Threshold,
    init_a_values,
    iterate_values,
    layernorm_iterl2,
    mean_shift,
    normalize_batch,
    normalize_batches,
    select_lambda_values,
    shift_batch,
    squared_norm,
)
from .dynamics import (
    DynamicsParams,
    analytic_a,
    k_fixed_points,
    lambda_lower_bound,
    simulate_vector_recursion,
    steady_norm_sq,
)
from .baselines import (
    FisrSpec,
    reference_batch,
)
from .latency import CycleReport, StageCosts, estimate_cycles

__all__ = [
    "__version__",
    "UsageError", "DataFormatError", "RangeOverflowError",
    "FormatSpec", "FP32", "FP16", "BF16", "FORMATS",
    "round_value", "round_array", "tree_sum_values",
    "NormConfig", "FixedSteps", "Threshold",
    "mean_shift", "squared_norm", "init_a_values", "select_lambda_values", "iterate_values",
    "Shifted", "shift_batch", "layernorm_iterl2", "normalize_batch", "normalize_batches",
    "DynamicsParams", "k_fixed_points", "steady_norm_sq", "analytic_a",
    "lambda_lower_bound", "simulate_vector_recursion",
    "FisrSpec", "reference_batch",
    "StageCosts", "CycleReport", "estimate_cycles",
]
