"""The value types are named tuples: a settings object checks its fields
when it is built, cannot be changed afterwards, and equal values compare
and hash alike."""

import pickle
from fractions import Fraction

import numpy as np
import pytest

from iterl2norm.baselines import BF16_MAGIC, FP32_MAGIC
from iterl2norm.errors import UsageError
from iterl2norm.experiments import PRECISION_DIMS, ErrorStats, ExperimentSpec
from iterl2norm.fpformat import FORMATS, FP16, FP32, FormatSpec
from iterl2norm.latency import StageCosts
from iterl2norm.norm_core import FixedSteps, NormConfig, Threshold

SETTINGS = [FixedSteps(), Threshold(1e-3), NormConfig(), StageCosts(),
            ExperimentSpec("compare-fisr")]


@pytest.mark.parametrize("build, message", [
    (lambda: FixedSteps(-1), "n_iter must be >= 0"),
    (lambda: Threshold(0.0), "delta_max must be positive"),
    (lambda: Threshold(1e-3, max_steps=0), "max_steps must be >= 1"),
    (lambda: NormConfig(lambda_override=-1.0), "lambda override must be positive"),
    (lambda: StageCosts(chunk_group_size=0), "chunk_group_size must be >= 1"),
    (lambda: StageCosts(control_fixed=1.5), "control_fixed: not an integer: 1.5"),
    (lambda: StageCosts(mean_sum_fixed=-1), "mean_sum_fixed must be >= 0"),
    (lambda: ExperimentSpec("precision", num_vectors=0), "num_vectors must be >= 1"),
    (lambda: FixedSteps(2.5), "n_iter: not an integer: 2.5"),
    (lambda: FixedSteps(True), "n_iter: not an integer: True"),
    (lambda: Threshold(1e-3, 2.5), "max_steps: not an integer: 2.5"),
    (lambda: NormConfig("fixed"), "stopping must be a FixedSteps or a Threshold, not 'fixed'"),
    (lambda: ExperimentSpec("precision", num_vectors=2.5), "num_vectors: not an integer: 2.5"),
    (lambda: ExperimentSpec("precision", dims=(64.5,)), "dims: not an integer: 64.5"),
    (lambda: ExperimentSpec("convergence", steps=[1, 2.0]), "steps: not an integer: 2.0"),
    (lambda: ExperimentSpec("precision", seed=-1), "seed must be >= 0"),
    (lambda: ExperimentSpec("precision", seed=0.5), "seed: not an integer: 0.5"),
    (lambda: ExperimentSpec("compare-fisr", fisr_newton_iters=1.5),
     "newton_iters: not an integer: 1.5"),
    (lambda: ExperimentSpec("compare-fisr", fisr_magic={"fp32": 1.5}),
     "magic: not an integer: 1.5"),
    (lambda: Threshold("1e-3"), "delta_max: not a number: '1e-3'"),
    (lambda: NormConfig(lambda_override="0.3"), "lambda override: not a number: '0.3'"),
    (lambda: ExperimentSpec("precision", lambda_override="x"), "lambda override: not a number: 'x'"),
    (lambda: ExperimentSpec("precision", dims=(64, 0)), "dims must be >= 1"),
    (lambda: FixedSteps((1, 2)), r"n_iter: not an integer: \(1, 2\)"),
    (lambda: ExperimentSpec("precision", seed=[0]), r"seed: not an integer: \[0\]"),
    (lambda: Threshold(True), "^delta_max: not a number: True$"),
    (lambda: NormConfig(lambda_override=True), "^lambda override: not a number: True$"),
    (lambda: ExperimentSpec("precision", lambda_override=np.True_),
     "^lambda override: not a number: np.True_$"),
    (lambda: ExperimentSpec("precision", dims=64), "^dims must be a sequence, not 64$"),
    (lambda: ExperimentSpec("precision", formats="fp32"),
     "^formats must be a sequence, not 'fp32'$"),
    (lambda: ExperimentSpec("convergence", steps=5), "^steps must be a sequence, not 5$"),
    (lambda: ExperimentSpec("compare-fisr", fisr_magic=5),
     "^fisr_magic must map format names to constants, not 5$"),
], ids=["steps", "delta", "max_steps", "lambda", "group", "cost", "cost-negative", "num_vectors",
        "steps-float", "steps-bool", "max_steps-float", "stopping", "num_vectors-float",
        "dims-float", "steps-list", "seed", "seed-float", "newton_iters-float", "magic-float",
        "delta-str", "lambda-str", "spec-lambda-str", "dims-zero", "steps-tuple", "seed-list",
        "delta-bool", "lambda-bool", "spec-lambda-numpy-bool", "dims-int", "formats-str",
        "steps-int", "magic-int"])
def test_construction_checks(build, message):
    with pytest.raises(UsageError, match=message):
        build()


def test_numpy_integer_counts_are_accepted():
    assert FixedSteps(np.int32(3)) == FixedSteps(3)
    assert Threshold(1e-3, np.uint8(7)) == Threshold(1e-3, 7)
    spec = ExperimentSpec("precision", dims=(np.int16(8),), num_vectors=np.int64(2),
                          seed=np.uint32(1), steps=(np.int8(4),))
    assert spec == ExperimentSpec("precision", dims=(8,), num_vectors=2, seed=1, steps=(4,))
    assert StageCosts(control_fixed=np.int64(3)) == StageCosts(control_fixed=3)


@pytest.mark.parametrize("dims", [np.array([64]), np.array([64, 128])], ids=["one", "two"])
def test_array_sequences_are_stored_as_tuples(dims):
    spec = ExperimentSpec("precision", formats=np.array(["fp32"]), dims=dims,
                          steps=np.array([3]))
    assert all(type(v) is tuple for v in (spec.formats, spec.dims, spec.steps))
    assert spec == ExperimentSpec("precision", formats=("fp32",), dims=tuple(dims.tolist()),
                                  steps=(3,))
    assert hash(spec.dims) == hash(tuple(dims.tolist()))
    assert ExperimentSpec("precision", dims=np.array([], dtype=int)).dims == PRECISION_DIMS


def test_numeric_rates_of_any_type_are_accepted():
    # a rate that compares as a positive number is taken as it is; delta_max
    # may be infinite (one step), an update rate may not
    for rate in (1, 0.5, np.float32(0.25), np.float16(2.0), Fraction(1, 3)):
        assert Threshold(rate).delta_max == rate
        assert NormConfig(lambda_override=rate).lambda_override == rate
    assert Threshold(np.inf).delta_max == np.inf
    with pytest.raises(UsageError, match="^lambda override must be positive and finite$"):
        NormConfig(lambda_override=np.inf)


@pytest.mark.parametrize("obj", SETTINGS, ids=lambda o: type(o).__name__)
def test_settings_are_immutable(obj):
    with pytest.raises(AttributeError):
        setattr(obj, obj._fields[0], obj[0])
    with pytest.raises(AttributeError):
        obj.extra = 1  # no instance dict


@pytest.mark.parametrize("obj", SETTINGS, ids=lambda o: type(o).__name__)
def test_settings_survive_pickling(obj):
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_defaults_and_repr():
    assert repr(NormConfig()) == "NormConfig(stopping=FixedSteps(n_iter=5), lambda_override=None)"
    assert repr(Threshold(1e-3)) == "Threshold(delta_max=0.001, max_steps=50)"
    assert repr(FP16) == "FormatSpec(fp16)"
    assert StageCosts(iteration_per_step=10) == StageCosts()._replace(iteration_per_step=10)
    # the kind's defaults fill the empty fields; no FISR constant is given
    spec = ExperimentSpec("convergence")
    assert (spec.formats, spec.dims, spec.steps[-1]) == (("fp32", "fp16", "bf16"), (1024,), 10)
    assert spec.fisr_magic == () and spec.magic("fp32") is None


@pytest.mark.parametrize("obj", SETTINGS, ids=lambda o: type(o).__name__)
def test_equal_settings_hash_alike(obj):
    assert hash(obj) == hash(type(obj)(*obj)) and {obj: 1}[type(obj)(*obj)] == 1


def test_fisr_magic_is_stored_as_sorted_pairs():
    given = {"fp32": FP32_MAGIC + 1, "bf16": BF16_MAGIC}
    spec = ExperimentSpec("compare-fisr", fisr_magic=given)
    assert spec.fisr_magic == (("bf16", BF16_MAGIC), ("fp32", FP32_MAGIC + 1))
    same = ExperimentSpec("compare-fisr", fisr_magic=reversed(list(given.items())))
    assert same == spec and hash(same) == hash(spec)
    assert (spec.magic("fp32"), spec.magic("fp16")) == (FP32_MAGIC + 1, None)


def test_format_spec_compares_and_hashes_by_value():
    same = FormatSpec("fp16", exp_bits=5, mant_bits=10)
    assert same == FP16 and same != FP32 and hash(same) == hash(FP16)
    assert {FP16: "half"}[same] == "half"
    assert FORMATS["fp32"] is FP32


def test_error_stats_from_errors_is_a_classmethod_of_the_class_body():
    # perfbench's tracer wraps it through the class's own namespace
    assert isinstance(ErrorStats.__dict__["from_errors"], classmethod)
    assert ErrorStats.from_errors([[0.5, -1.0]]) == ErrorStats(-0.25, 0.5)
