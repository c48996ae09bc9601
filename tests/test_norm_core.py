import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterl2norm import fpformat, norm_core
from iterl2norm.errors import RangeOverflowError, UsageError
from iterl2norm.fpformat import (
    BF16,
    FP16,
    FP32,
    round_array,
    stored_constant,
    values_to_bits,
)
from iterl2norm.norm_core import (
    Buffers,
    FixedSteps,
    NormConfig,
    Threshold,
    init_a_values,
    iterate_values,
    layernorm_iterl2,
    normalize_batch,
    normalize_batches,
    normalize_steps,
    select_lambda_values,
    shift_batch,
    shift_batches,
)
from iterl2norm.baselines import fisr_batch, reference_batch

from oracles import oracle_iteration, oracle_op_fast, round_value

ALL_FORMATS = [FP32, FP16, BF16]


def neg_zero(d: int) -> np.ndarray:
    """A beta of -0.0: with gamma None, z = 1*y_hat + (-0) is y_hat bit for
    bit, its -0 entries included."""
    return np.full(d, -0.0)


def a0_of(m: float, fmt=FP32) -> float:
    """init_a_values on a 1-element array (binary64 when `fmt` is None)."""
    return float(init_a_values(np.array([m]), fmt)[0])


def lam_of(m: float) -> float:
    return float(select_lambda_values(np.array([m]))[0])


def iterate(a0: float, m: float, lam: float, stop, fmt):
    """iterate_values on a 1-element array: (trajectory, steps, converged)."""
    traj, steps, converged = iterate_values(np.array([a0]), np.array([m]), np.array([lam]),
                                            stop, fmt)
    return tuple(traj[0].tolist()), int(steps[0]), bool(converged[0])


def shifted_row(x, fmt):
    """`shift_batch` of the one vector x: (y, mean, m) of its row."""
    sh = shift_batch(fmt, np.asarray(x)[None, :])
    return sh.y[0], sh.mean[0], sh.m[0]


class TestMeanShift:
    def test_one_two_three_four(self):
        y, mean, _ = shifted_row([1.0, 2.0, 3.0, 4.0], FP32)
        assert mean == 2.5
        assert np.array_equal(y, [-1.5, -0.5, 0.5, 1.5])

    def test_constant_vector(self):
        y, mean, _ = shifted_row(np.full(17, 0.8125), FP16)
        assert mean == 0.8125
        assert np.array_equal(y, np.zeros(17))

    def test_single_element(self):
        y, mean, _ = shifted_row([5.0], BF16)
        assert mean == 5.0
        assert np.array_equal(y, [0.0])

    def test_uses_prerounded_inverse_d(self):
        # d = 3: mean = tree_sum_values(x) * round(1/3), not an exact division
        x = round_array(np.array([1.0, 1.0, 1.0]), BF16)
        _, mean, _ = shifted_row(x, BF16)
        assert mean == round_value(3.0 * round_value(1.0 / 3.0, BF16), BF16)


class TestSquaredNorm:
    # each input is its own mean-shifted row (mean 0), so m is its squared norm
    def test_example_vector(self):
        assert shifted_row([-1.5, -0.5, 0.5, 1.5], FP32)[2] == 5.0

    def test_zeros(self):
        assert shifted_row(np.zeros(9), FP16)[2] == 0.0

    def test_unit_basis(self):
        # a unit vector of mean 0 (a basis vector e1 is not one), padded
        # with zeros to d
        for d in (4, 5, 200):
            u = np.zeros(d)
            u[:4] = [0.5, -0.5, 0.5, -0.5]
            assert shifted_row(u, BF16)[2] == 1.0

    def test_overflow_is_range_error(self):
        big = np.full(64, 60000.0)  # squares overflow fp16
        with pytest.raises(RangeOverflowError):
            shifted_row(round_array(big, FP16), FP16)


class TestInitA:
    def test_m_five(self):
        a0 = a0_of(5.0, FP32)
        # odd exponent sum: 2^-1 * prestored 2^-1/2 constant
        assert a0 == 0.5 * FP32.inv_sqrt2
        assert abs(a0 - 2.0 ** -1.5) < 1e-7
        assert 0.7 < a0 * math.sqrt(5.0) < 1.0

    def test_m_one(self):
        assert a0_of(1.0, FP32) == FP32.inv_sqrt2
        assert abs(a0_of(1.0, FP32) - 0.70711) < 1e-5

    def test_m_four(self):
        a0 = a0_of(4.0, FP32)
        assert a0 == 0.5 * FP32.inv_sqrt2  # same exponent sum as m=5
        assert abs(a0 * 2.0 - 2.0 ** -0.5) < 1e-7  # a_inf = 0.5, ratio ~ 0.7071

    def test_even_exponent_is_exact_power_of_two(self):
        assert a0_of(2.0, FP32) == 0.5  # E - bias + 1 = 2 -> 2^-1
        assert a0_of(8.0, FP16) == 0.25

    def test_subnormal_m_uses_normalized_exponent(self):
        m = 2.0 ** -23  # subnormal in fp16
        a0 = a0_of(m, FP16)
        assert a0 == 2.0 ** 11
        assert 0.7 < a0 * math.sqrt(m) <= 1.0

    @given(e=st.integers(-126, 127), sig=st.floats(1.0, 2.0, exclude_max=True))
    @settings(max_examples=300)
    def test_band_property(self, e, sig):
        m = round_value(math.ldexp(sig, e), FP32)
        if not (0 < m < math.inf) or math.frexp(m)[1] - 1 != e:
            return  # rounded across the binade edge
        ratio = a0_of(m, FP32) * math.sqrt(m)
        assert 0.7 < ratio <= 1.0


class TestSelectLambda:
    def test_m_five(self):
        assert lam_of(5.0) == 0.125
        assert 0.125 > 0.345 * 2.0 ** -2

    def test_m_one(self):
        assert lam_of(1.0) == 0.5

    def test_m_half(self):
        assert lam_of(0.5) == 1.0

    def test_override_wins(self):
        x = round_array(np.array([[1.0, 2.0, 3.0, 4.0]]), FP32)  # m = 5
        res = normalize_batch(FP32, x, config=NormConfig(lambda_override=0.01))
        want, _, _ = iterate(a0_of(5.0), 5.0, 0.01, FixedSteps(), FP32)
        assert tuple(res.a_trajectory[0]) == want
        assert want != iterate(a0_of(5.0), 5.0, lam_of(5.0), FixedSteps(), FP32)[0]

    def test_bad_override(self):
        with pytest.raises(UsageError):
            NormConfig(lambda_override=-1.0)
        with pytest.raises(UsageError):
            NormConfig(lambda_override=0.0)
        with pytest.raises(UsageError):
            NormConfig(lambda_override=math.inf)

    @given(e=st.integers(-126, 127))
    @settings(max_examples=200)
    def test_strictly_above_bound(self, e):
        m = math.ldexp(1.3, e)
        assert lam_of(m) > 0.345 * math.ldexp(1.0, -e)


class TestIterateA:
    def test_m_five_converges_in_five_steps(self):
        m = 5.0
        traj, steps, _ = iterate(a0_of(m), m, lam_of(m), FixedSteps(5), FP32)
        assert len(traj) == 6 and steps == 5
        assert abs(traj[-1] * math.sqrt(5.0) - 1.0) < 1e-4
        assert abs(traj[-1] - 0.44718) < 5e-5

    def test_exact_mode_matches_hand_iteration(self):
        m, a0, lam = 5.0, 2.0 ** -1.5, 0.125
        traj, _, _ = iterate(a0, m, lam, FixedSteps(5), None)
        a = a0
        for _ in range(5):
            a = a + lam * m * a * (1.0 - m * a * a)
        assert traj[-1] == a

    def test_m_one_reaches_unity(self):
        traj, _, _ = iterate(a0_of(1.0, None), 1.0, 0.5, FixedSteps(30), None)
        assert abs(traj[-1] - 1.0) < 1e-12

    def test_exact_fixed_point_never_moves(self):
        # m * a^2 == 1 exactly: da = 0 forever
        traj, _, _ = iterate(0.5, 4.0, 0.25, FixedSteps(7), FP16)
        assert traj == (0.5,) * 8

    def test_threshold_stops_on_small_delta(self):
        m = 5.0
        stop = Threshold(delta_max=1e-6, max_steps=50)
        traj, steps, converged = iterate(a0_of(m), m, lam_of(m), stop, FP32)
        assert converged
        assert 1 <= steps <= 50 and len(traj) == steps + 1
        assert abs(traj[-1] * math.sqrt(m) - 1.0) < 1e-4

    def test_threshold_reports_non_convergence(self):
        stop = Threshold(delta_max=1e-12, max_steps=4)
        traj, steps, converged = iterate(0.1, 1.0, 1e-4, stop, None)
        assert not converged
        assert len(traj) == 5 and steps == 4

    @pytest.mark.parametrize("stopping", [FixedSteps(8), Threshold(1e-5, 20)],
                             ids=["fixed8", "threshold"])
    def test_diverging_row_is_not_converged(self, stopping):
        # lambda*m = 12.6 drives a out of the finite range; lambda*m = 0.3
        # converges.  Neither stopping rule reports a non-finite a converged.
        traj, steps, converged = iterate_values(
            np.array([0.125, 0.125]), np.array([42.0, 42.0]), np.array([0.3, 0.3 / 42]),
            stopping, FP32)
        assert converged.tolist() == [False, True]
        assert not np.isfinite(traj[0, -1]) and np.isfinite(traj[1, -1])
        if isinstance(stopping, Threshold):  # stops at the first non-finite a
            k = int(steps[0])
            assert np.isfinite(traj[0, :k]).all() and not np.isfinite(traj[0, k])

    def test_threshold_rows_stop_independently(self):
        # a fixed-point row stops after one step; a slow row runs to the cap
        traj, steps, converged = iterate_values(
            np.array([0.5, 0.1]), np.array([4.0, 1.0]), np.array([0.25, 1e-4]),
            Threshold(delta_max=1e-9, max_steps=6), None)
        assert steps.tolist() == [1, 6] and converged.tolist() == [True, False]
        assert traj.shape == (2, 7)
        assert (traj[0] == 0.5).all()

    def test_threshold_config_validation(self):
        with pytest.raises(UsageError):
            Threshold(delta_max=0.0)

    @given(n=st.integers(0, 12))
    @settings(max_examples=40)
    def test_trajectory_length_invariant(self, n):
        traj, steps, _ = iterate(a0_of(3.0), 3.0, lam_of(3.0), FixedSteps(n), FP32)
        assert len(traj) == n + 1 and steps == n


class TestLayerNorm:
    def test_example_vector(self):
        res = layernorm_iterl2(FP32, round_array(np.array([1.0, 2.0, 3.0, 4.0]), FP32))
        want = np.array([-1.34164079, -0.4472136, 0.4472136, 1.34164079])
        assert np.abs(res.z[0] - want).max() < 1e-3
        assert res.steps_taken == 5 and res.steps.tolist() == [5]
        assert res.a_trajectory.shape == (1, 6)
        assert (res.m.tolist(), res.mean.tolist()) == ([5.0], [2.5])

    def test_constant_input_returns_beta(self):
        # with gamma +-inf or NaN and beta -0.0, z is still beta bit for bit:
        # no product of gamma with the zero row reaches it
        inf, nan = np.inf, np.nan
        for fmt, (gamma, beta) in itertools.product(ALL_FORMATS, [
                (None, np.linspace(-1, 1, 8)),
                (np.array([inf, -inf, nan, 1.0, inf, -inf, nan, 0.0]), np.full(8, -0.0)),
                (np.full(8, nan), np.array([-0.0, 0.0] * 4))]):
            beta = round_array(beta, fmt)
            res = layernorm_iterl2(fmt, round_array(np.full(8, 3.25), fmt), gamma, beta)
            assert res.z.dtype == np.float32
            assert res.z[0].astype(np.float64).tobytes() == beta.tobytes()
            assert res.m.tolist() == [0.0]

    def test_zero_gamma_annihilates(self):
        beta = round_array(np.linspace(0.5, 2.0, 6), BF16)
        res = layernorm_iterl2(BF16, round_array(np.arange(6, dtype=float), BF16),
                               gamma=np.zeros(6), beta=beta)
        assert np.array_equal(res.z[0], beta)

    def test_inject_a_hook(self):
        x = round_array(np.array([[1.0, 2.0, 3.0, 4.0]]), FP32)
        res = normalize_batch(FP32, x, inject_a=5.0 ** -0.5)
        assert res.steps_taken == 0
        want = reference_batch(FP32, x)[0]
        assert np.abs(res.z[0] - want).max() < 1e-6
        # one `a` per row: the zero-variance middle row takes none, and each
        # later row still gets its own
        x = round_array(np.array([[1.0, 2.0, 3.0, 4.0], [2.0] * 4, [1.0, 1.0, 1.0, 5.0]]), FP32)
        a = np.array([5.0 ** -0.5, 7.0, 12.0 ** -0.5])
        res = normalize_batch(FP32, x, inject_a=a)
        assert res.a_trajectory[:, 0].tolist() == [*round_array(a[[0]], FP32), 0.0,
                                                   *round_array(a[[2]], FP32)]
        assert np.abs(res.z - reference_batch(FP32, x)).max() < 1e-6

    def test_inputs_validation(self):
        one = np.array([1.0])
        for fmt, x, gamma, beta in [
                (FP32, [], None, None),                           # d = 0
                (FP32, one, np.array([1.0, 2.0]), None),          # lengths differ
                (FP32, one, None, np.zeros(2)),
                (FP32, np.ones((2, 3)), None, None),              # not 1-D
                (FP32, one, np.ones((1, 1)), None),
                (FP16, np.array([1.0 + 2.0 ** -20]), None, None),  # not fp16 values
                (FP16, one, np.array([0.1]), None),
                (BF16, one, None, np.array([1.0 + 2.0 ** -10]))]:
            with pytest.raises(UsageError):
                layernorm_iterl2(fmt, x, gamma, beta)


class TestBatchAgreement:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("d", [1, 3, 64, 130])
    def test_batch_matches_scalar_path(self, fmt, d):
        rng = np.random.default_rng(d * 7)
        x = round_array(rng.uniform(-1, 1, (6, d)), fmt)
        gamma = round_array(rng.uniform(0.5, 1.5, d), fmt)
        beta = round_array(rng.uniform(-0.2, 0.2, d), fmt)
        configs = (NormConfig(stopping=FixedSteps(5)),
                   NormConfig(stopping=Threshold(1e-4, max_steps=20)))
        for cfg, (g, b) in itertools.product(configs, [(gamma, beta), (None, neg_zero(d))]):
            batch = normalize_batch(fmt, x, g, b, cfg)
            for i in range(len(x)):
                single = layernorm_iterl2(fmt, x[i], g, b, cfg)
                for name in ("z", "mean", "m", "steps", "converged"):
                    assert getattr(batch, name)[i].tobytes() == getattr(single, name)[0].tobytes()
                k = single.steps_taken
                assert single.steps.tolist() == [k]
                assert np.array_equal(batch.a_trajectory[i, :k + 1], single.a_trajectory[0])

    def test_bad_gamma_or_beta_shape_is_usage_error(self):
        x = round_array(np.random.default_rng(4).uniform(-1, 1, (3, 5)), FP32)
        shifted = shift_batch(FP32, x)
        for gamma, beta in [(np.ones(4), None), (None, np.zeros((3, 4))),
                            (np.ones((2, 5)), None), (None, np.zeros((1, 5))),
                            (np.ones((3, 5, 1)), None), (np.float64(1.0), None)]:
            name = "gamma" if gamma is not None else "beta"
            with pytest.raises(UsageError, match=name):
                normalize_batch(FP32, x, gamma, beta)
            with pytest.raises(UsageError, match=name):
                fisr_batch(FP32, shifted, gamma, beta)
            with pytest.raises(UsageError, match=name):
                next(normalize_batches(FP32, [(x, None, None), (shifted, gamma, beta)]))

    def test_zero_variance_rows_inside_batch(self):
        x = round_array(np.vstack([np.full(16, 2.5), np.random.default_rng(0).uniform(-1, 1, 16)]), FP16)
        beta = round_array(np.linspace(-1, 1, 16), FP16)
        batch = normalize_batch(FP16, x, beta=beta)
        assert np.array_equal(batch.z[0], beta)
        assert not np.array_equal(batch.z[1], beta)

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("stopping", [FixedSteps(5), Threshold(1e-3), Threshold(1e-6, 8)],
                             ids=["fixed5", "thr1e-3", "thr1e-6cap8"])
    def test_batch_matches_per_op_oracle(self, fmt, stopping):
        # m spread over +-12 binades, plus one zero-variance row
        rng = np.random.default_rng(31)
        x = rng.uniform(-1, 1, (24, 16)) * 2.0 ** rng.uniform(-6, 6, (24, 1))
        x[0] = 0.75
        x = round_array(x, fmt)
        res = normalize_batch(fmt, x, config=NormConfig(stopping=stopping))
        assert res.m[0] == 0.0 and res.steps[0] == 0 and res.converged[0]
        assert not res.a_trajectory[0].any()
        assert np.ptp(np.log2(res.m[1:])) > 16
        threshold = isinstance(stopping, Threshold)
        cap = stopping.max_steps if threshold else stopping.n_iter
        a0 = init_a_values(res.m[1:], fmt)
        for i in range(1, len(x)):
            want, k, converged = oracle_iteration(
                int(values_to_bits(a0[i - 1], fmt)), int(values_to_bits(res.m[i], fmt)),
                -math.frexp(res.m[i])[1], fmt, cap, stopping.delta_max if threshold else None)
            assert (res.steps[i], res.converged[i]) == (k, converged)
            got = values_to_bits(res.a_trajectory[i], fmt).astype(int).tolist()
            assert got[:k + 1] == want
            assert got[k:] == [want[-1]] * (len(got) - k)
        assert res.steps_taken == res.a_trajectory.shape[1] - 1 == res.steps.max()


# Each batch entry point, called as (fmt, x, gamma, beta); normalize_steps
# takes no gamma or beta, and finishes its results only as they are drawn.
BATCH_ENTRY_POINTS = {
    "normalize_batch": normalize_batch,
    "normalize_batches": lambda fmt, x, g, b: normalize_batches(fmt, [(x, g, b)]),
    "normalize_steps": lambda fmt, x, g, b: list(normalize_steps(fmt, x, (1, 5))),
    "fisr_batch": fisr_batch,
}


class TestBatchPathRepresentable:
    """The batch path rejects a value the format cannot hold with the
    message of the batch of one; 0.1 is neither an fp16 nor a bf16 value."""

    @pytest.mark.parametrize("fmt", [FP16, BF16], ids=lambda f: f.name)
    @pytest.mark.parametrize("entry", list(BATCH_ENTRY_POINTS))
    def test_unrepresentable_x_is_usage_error(self, entry, fmt):
        x = np.array([[0.1, -0.1, 0.3, 0.2]])
        with pytest.raises(UsageError, match=f"x contains values not representable in {fmt.name}"):
            BATCH_ENTRY_POINTS[entry](fmt, x, None, None)
        # the same rows rounded to the format, float64 or float32, pass
        for rounded in (round_array(x, fmt), round_array(x.astype(np.float32), fmt)):
            if entry != "fisr_batch" or fmt is BF16:  # FISR needs an 8-bit exponent
                BATCH_ENTRY_POINTS[entry](fmt, rounded, None, None)

    def test_every_block_is_checked(self):
        # the check rounds one block at a time: the bad value sits in the
        # second block
        x = np.zeros((3, fpformat._BLOCK // 2 + 1))
        x[-1, -1] = 0.1
        with pytest.raises(UsageError, match="x contains values not representable"):
            normalize_batch(FP16, x)

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("entry", [*BATCH_ENTRY_POINTS, "layernorm_iterl2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_x_is_usage_error(self, entry, fmt, value):
        # a gamma or beta may hold them (test_constant_input_returns_beta)
        x = np.array([[1.0, value, 2.0]])
        call = BATCH_ENTRY_POINTS.get(entry, lambda fmt, x, g, b: layernorm_iterl2(fmt, x[0]))
        with pytest.raises(UsageError, match="^x contains NaN or infinite values$"):
            call(fmt, x, None, None)

    @pytest.mark.parametrize("fmt", [FP16, BF16], ids=lambda f: f.name)
    @pytest.mark.parametrize("entry", ["normalize_batch", "normalize_batches", "fisr_batch"])
    @pytest.mark.parametrize("name", ["gamma", "beta"])
    def test_unrepresentable_parameter_is_usage_error(self, name, entry, fmt):
        x = round_array(np.array([[1.0, 2.0, 3.0, 4.0], [0.5, 0.25, 1.0, 2.0]]), fmt)
        bad = {name: np.array([1.0, 0.1, 1.0, 1.0])}
        # raw or shifted x, shared (d,) or per-row (n, d) parameters
        for given in (x, shift_batch(fmt, x)):
            for v in (bad[name], np.tile(bad[name], (2, 1))):
                with pytest.raises(UsageError,
                                   match=f"{name} contains values not representable"):
                    BATCH_ENTRY_POINTS[entry](fmt, given, *(
                        v if p == name else None for p in ("gamma", "beta")))


def assert_same_result(got, want):
    """Every field of two BatchNormResults, bit for bit."""
    for name in ("z", "mean", "m", "a_trajectory", "steps", "converged"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name
    assert got.steps_taken == want.steps_taken


def rows_with_edge_cases(fmt, n: int, d: int, seed: int) -> np.ndarray:
    """Rows whose m spans many binades, one zero-variance row, and one row
    that diverges under lambda = 0.3 while the small-m rows converge."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, d)) * 2.0 ** rng.uniform(-4, 2, (n, 1))
    x[0] = 0.75
    x[1] = np.linspace(-8.0, 8.0, d)
    return round_array(x, fmt)


CONFIGS = [NormConfig(stopping=Threshold(1e-6)),
           NormConfig(stopping=Threshold(1e-6), lambda_override=0.3),
           NormConfig(stopping=FixedSteps(5), lambda_override=0.3)]
CONFIG_IDS = ["thr1e-6", "thr1e-6-lam0.3", "fixed5-lam0.3"]


class TestShiftedDatapath:
    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_shifted_input_matches_array_input(self, fmt, config):
        x = rows_with_edge_cases(fmt, 12, 40, seed=3)
        shifted = shift_batch(fmt, x)
        for gamma, beta in [(round_array(np.linspace(0.5, 1.5, 40), fmt),
                             round_array(np.linspace(-0.25, 0.25, 40), fmt)),
                            (None, neg_zero(40))]:
            want = normalize_batch(fmt, x, gamma, beta, config)
            assert want.m[0] == 0.0 and want.steps[0] == 0
            if config.lambda_override is not None:
                assert not want.converged[1]
                assert not np.isfinite(want.a_trajectory[1, want.steps[1]])
            assert_same_result(normalize_batch(fmt, shifted, gamma, beta, config), want)
            if fmt.exp_bits == 8:  # FISR needs an 8-bit exponent
                assert_same_result(fisr_batch(fmt, shifted, gamma, beta),
                                   fisr_batch(fmt, x, gamma, beta))

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_one_solve_over_parts_matches_separate_calls(self, fmt, config):
        rng = np.random.default_rng(8)
        parts = []
        for i, d in enumerate((3, 64, 130)):
            x = rows_with_edge_cases(fmt, 5 + i, d, seed=d)
            gamma = round_array(rng.uniform(0.5, 1.5, d if i % 2 else (len(x), d)), fmt)
            # the first part's z is its y_hat: gamma None, beta -0.0
            parts.append((x if i == 1 else shift_batch(fmt, x), None if i == 0 else gamma,
                          neg_zero(d)))
        # a part whose rows all have zero variance has no row to solve
        parts.append((round_array(np.full((2, 8), 1.5), fmt), None, None))
        got = list(normalize_batches(fmt, parts, config))
        assert len(got) == len(parts)
        for res, (x, gamma, beta) in zip(got, parts):
            assert_same_result(res, normalize_batch(fmt, x, gamma, beta, config))
        assert got[-1].steps_taken == 0 and got[-1].a_trajectory.shape == (2, 1)

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("lam", [None, 0.3, 2.5])
    @pytest.mark.parametrize("steps", [(3, 0, 1, 3), tuple(range(1, 11))], ids=["3013", "1-10"])
    def test_one_solve_over_step_counts_matches_separate_calls(self, fmt, lam, steps):
        # rows_with_edge_cases holds a zero-variance row and a row that
        # diverges under lambda = 0.3; lambda = 2.5 diverges every row
        def separate(x, s):
            return normalize_batch(fmt, x, config=NormConfig(FixedSteps(s), lam))

        x = rows_with_edge_cases(fmt, 12, 70, seed=5)
        for given in (x, shift_batch(fmt, x)):
            got = list(normalize_steps(fmt, given, steps, lam))
            assert len(got) == len(steps)
            for s, res in zip(steps, got):
                assert_same_result(res, separate(x, s))
        if lam is not None and steps[-1] == 10:
            assert not got[-1].converged[1] and got[-1].m[0] == 0.0 and got[-1].steps[0] == 0
        # a batch whose rows all have zero variance has no row to solve
        flat = round_array(np.full((2, 8), 1.5), fmt)
        for s, res in zip(steps, normalize_steps(fmt, flat, steps, lam)):
            assert_same_result(res, separate(flat, s))

    def test_parts_are_read_once(self):
        x = round_array(np.array([[1.0, 2.0, 4.0], [0.5, -1.0, 3.0]]), FP32)
        want = normalize_batch(FP32, x)
        for parts in (iter([(x, None, None)]), ((x, None, b) for b in [None])):
            got = normalize_batches(FP32, parts)
            assert len(got) == 1
            assert_same_result(got[0], want)

    def test_no_part_gives_no_result(self):
        assert normalize_batches(FP16, []) == []
        assert normalize_batches(FP16, (), NormConfig(Threshold(1e-4))) == []

    @pytest.mark.parametrize("steps", [(), [], (3, -1), (3, -2)],
                             ids=["tuple", "list", "minus1", "minus2"])
    def test_no_or_negative_step_count_is_usage_error(self, steps):
        x = round_array(np.array([[1.0, 2.0, 3.0, 4.0]]), FP16)
        for given in (x, shift_batch(FP16, x)):
            with pytest.raises(UsageError, match="one or more step counts >= 0"):
                list(normalize_steps(FP16, given, steps))

    def test_arguments_are_checked_at_the_call(self):
        # each raises before a result is drawn from what the call returns
        x = round_array(np.array([[1.0, 2.0, 3.0, 4.0]]), FP16)
        with pytest.raises(UsageError, match="one or more step counts >= 0"):
            normalize_steps(FP16, x, ())
        with pytest.raises(UsageError, match="x contains values not representable in fp16"):
            normalize_steps(FP16, np.array([[0.1, -0.1, 0.3, 0.2]]), (1, 5))
        with pytest.raises(UsageError, match="lambda override must be positive"):
            normalize_steps(FP16, x, (1, 5), -1.0)
        with pytest.raises(RangeOverflowError, match="squared norm overflowed fp16"):
            normalize_steps(FP16, round_array(np.array([[300.0, -300.0, 1.0, 2.0]]), FP16), (1,))

    def test_step_counts_must_be_integers(self):
        x = round_array(np.array([[1.0, 2.0, 3.0, 4.0]]), FP16)
        for bad in (1.5, True, np.float64(2.0)):
            message = f"^steps: not an integer: {re.escape(repr(bad))}$"
            with pytest.raises(UsageError, match=message):
                normalize_steps(FP16, x, [1, bad])
            with pytest.raises(UsageError, match=message):
                normalize_steps(FP16, x, (bad, 2))
        # numpy integers count, from any iterable
        for res, want in zip(normalize_steps(FP16, x, np.array([1, 3])),
                             normalize_steps(FP16, x, (1, 3)), strict=True):
            assert_same_result(res, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_in_x_is_named(self, dtype):
        # only the failure branch looks at x; an infinity stays a value out
        # of range, as a finite value that rounds to one is
        x = np.array([[1.0, 2.0, 3.0], [1.0, np.nan, 2.0], [1.0, np.inf, 2.0]], dtype=dtype)
        with pytest.raises(RangeOverflowError, match="^x contains NaN values$") as info:
            shift_batch(FP32, x)
        assert info.value.row == 1
        with pytest.raises(RangeOverflowError, match="^value out of range for fp32$"):
            shift_batch(FP32, x[::2])

    def test_overflowing_row_is_named(self):
        x = round_array(np.array([[1.0, 2.0, 3.0, 4.0], [300.0, -300.0, 1.0, 2.0]]), FP16)
        with pytest.raises(RangeOverflowError) as info:
            shift_batch(FP16, x)
        assert info.value.row == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("row,message", [
        ([1.0, 2.0, np.inf], "value out of range for fp16"),
        ([60000.0, 60000.0, 0.0], "sum overflowed fp16"),
        ([-65504.0, 65504.0, 65504.0], "mean-shifted value overflowed fp16"),
        ([300.0, -300.0, 1.0], "squared norm overflowed fp16"),
    ], ids=["value", "sum", "mean-shift", "squared-norm"])
    def test_overflow_names_the_first_stage(self, dtype, row, message):
        # a float64 x is narrowed into a copy that y's squares overwrite; a
        # float32 x is not copied
        x = np.array([[1.0, 2.0, 3.0], row], dtype=dtype)
        with pytest.raises(RangeOverflowError, match=f"^{message}$") as info:
            shift_batch(FP16, x)
        assert info.value.row == 1


class TestExactPathProperties:
    def _exact_yhat(self, x: np.ndarray, steps: int = 5):
        y = x - x.mean()
        m = float(y @ y)
        traj, _, _ = iterate(a0_of(m, None), m, lam_of(m), FixedSteps(steps), None)
        return math.sqrt(len(x)) * traj[-1] * y

    @given(
        grid=st.lists(st.integers(-2 ** 20, 2 ** 20), min_size=2, max_size=16),
        p=st.integers(-8, 8),
    )
    @settings(max_examples=200)
    def test_scale_equivariance_power_of_two(self, grid, p):
        x = np.array(grid, dtype=np.float64) * 2.0 ** -20
        if float((x - x.mean()) @ (x - x.mean())) == 0.0:
            return
        base = self._exact_yhat(x)
        scaled = self._exact_yhat(math.ldexp(1.0, p) * x)
        assert np.array_equal(base, scaled)

    def test_convergence_band_exact_sweep(self):
        # tau_conv frozen from the pre-build binary64 sweep of the iteration:
        # worst |a5*sqrt(m) - 1| over all binade positions is 1.4919e-2
        TAU_CONV = 1.5e-2
        rng = np.random.default_rng(2024)
        m = np.exp(rng.uniform(math.log(2.0 ** -126), math.log(2.0 ** 127), 100_000))
        frac = np.frexp(m)[0]        # significand / 2, in [0.5, 1)
        u = np.sqrt(frac)            # a0 * sqrt(m)
        lam_m = frac                 # lambda * m
        for _ in range(5):
            u = u + lam_m * u * (1.0 - u * u)
        worst = np.abs(u - 1.0).max()
        assert worst <= TAU_CONV
        # the sweep bound is tight: the worst case sits above 1.4e-2
        assert worst > 1.4e-2


class TestCallerArraysUnchanged:
    """The kernels round their own temporaries in place, never an array the
    caller passed: x, gamma and beta, shared or one per row, and the arrays
    of a `Shifted` keep every bit, in either precision."""

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [64, 130])
    @pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per-row"])
    def test_kernels_leave_inputs_alone(self, fmt, dtype, d, per_row):
        x = rows_with_edge_cases(fmt, 6, d, seed=4).astype(dtype)
        shape = x.shape if per_row else (d,)
        size = math.prod(shape)
        gamma = round_array(np.linspace(0.5, 1.5, size).reshape(shape), fmt).astype(dtype)
        beta = round_array(np.linspace(-0.25, 0.25, size).reshape(shape), fmt).astype(dtype)
        shifted, buffered = shift_batch(fmt, x), shift_batch(fmt, x, Buffers())
        arrays = (x, gamma, beta, *shifted[:3], *buffered[:3])
        before = [v.copy() for v in arrays]
        normalize_batch(fmt, x, gamma, beta)
        normalize_batch(fmt, x, gamma, beta, NormConfig(stopping=Threshold(1e-6)))
        for given in (x, shifted, buffered):
            normalize_batch(fmt, given, gamma, beta)
            normalize_batch(fmt, given, None, beta)
            normalize_batch(fmt, given, gamma, None)
            normalize_batches(fmt, [(given, gamma, beta), (given, None, None)])
            list(normalize_steps(fmt, given, (3, 0, 1)))
            if fmt.exp_bits == 8:  # FISR needs an 8-bit exponent
                fisr_batch(fmt, given, gamma, beta)
        reference_batch(fmt, x, gamma, beta)
        reference_batch(fmt, x)
        for v, b in zip(arrays, before):
            assert (v.dtype, v.tobytes()) == (b.dtype, b.tobytes())


class TestResultsOwnTheirOutputs:
    """Every finish of one `Shifted`, taken from `Buffers` or not, computes
    into arrays of its own: a later finish changes no earlier result."""

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_finishes_of_one_buffered_batch(self, fmt):
        x = rows_with_edge_cases(fmt, 6, 70, seed=6)
        gamma = round_array(np.linspace(0.5, 1.5, 70), fmt)
        buffered = shift_batch(fmt, x, Buffers())
        got = [normalize_batch(fmt, buffered), normalize_batch(fmt, buffered, gamma),
               *normalize_steps(fmt, buffered, (1, 5)),
               *normalize_batches(fmt, [(buffered, None, None), (buffered, gamma, None)])]
        want = [normalize_batch(fmt, x), normalize_batch(fmt, x, gamma),
                *normalize_steps(fmt, x, (1, 5)),
                normalize_batch(fmt, x), normalize_batch(fmt, x, gamma)]
        for res, ref in zip(got, want, strict=True):
            assert_same_result(res, ref)
        arrays = [v for res in got for v in res] + list(buffered)
        for a, b in itertools.combinations(arrays, 2):
            assert not np.may_share_memory(a, b)


def signed_zero_row(d: int) -> np.ndarray:
    """A row of -0.0 but for 1, -1 in front (d >= 3): its mean is +0, so its
    -0 entries stay -0 in y and in y_hat."""
    row = np.full(d, -0.0)
    row[:2] = 1.0, -1.0
    return row


@st.composite
def output_stage_batches(draw, fmt):
    """A format-representable (n, d) batch: drawn rows, a row whose y_hat
    holds -0 entries and a zero-variance row."""
    d = draw(st.integers(3, 24))
    values = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5]),
                       st.floats(-8.0, 8.0, width=32))
    rows = draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=1, max_size=4))
    flat = draw(values)
    x = np.vstack([np.array(rows), signed_zero_row(d), np.full(d, flat)])
    return round_array(x, fmt)


class TestOutputStages:
    """A gamma or beta of None skips its stage: z is what a gamma of ones
    and a beta of +0.0 give, bit for bit, through every entry point."""

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_absent_gamma_and_beta_equal_ones_and_zeros(self, fmt, data):
        x = data.draw(output_stage_batches(fmt))
        shape = x.shape if data.draw(st.booleans(), label="per_row") else x.shape[1:]
        ones, zeros = np.ones(shape), np.zeros(shape)
        # an injected a of 2^12 or 65504 overflows fp16's y_hat to +-inf
        # (and to NaN at y = 0); lambda 2.5 drives a to inf and NaN
        config = data.draw(st.sampled_from([NormConfig(), NormConfig(Threshold(1e-6)),
                                            NormConfig(FixedSteps(3), 2.5)]))
        inject_a = data.draw(st.sampled_from([None, 4096.0, 65504.0]))
        want = normalize_batch(fmt, x, ones, zeros, config, inject_a)
        for gamma, beta in ((None, None), (None, zeros), (ones, None)):
            assert_same_result(normalize_batch(fmt, x, gamma, beta, config, inject_a), want)
        lam = data.draw(st.sampled_from([None, 0.3, 2.5]))
        steps = (3, 0, 1)
        for s, res in zip(steps, normalize_steps(fmt, x, steps, lam)):
            assert_same_result(res, normalize_batch(fmt, x, ones, zeros,
                                                    NormConfig(FixedSteps(s), lam)))
        if fmt.exp_bits == 8:  # FISR needs an 8-bit exponent
            assert_same_result(fisr_batch(fmt, x), fisr_batch(fmt, x, ones, zeros))

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("beta", [None, -0.0, 0.25])
    def test_zero_variance_rows_get_beta(self, fmt, beta):
        # even where gamma * y_hat is NaN (gamma = inf, y_hat = 0)
        x = np.vstack([np.full(4, 0.75), [1.0, 2.0, 3.0, 4.0]])
        gamma = np.array([np.inf, 1.0, 1.0, 1.0])
        betas = None if beta is None else np.full(4, beta)
        for g in (None, gamma):
            z = normalize_batch(fmt, x, g, betas).z
            want = np.full(4, 0.0 if beta is None else beta)
            assert z.dtype == np.float32
            assert z[0].astype(np.float64).tobytes() == want.tobytes()

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("gamma_shape, beta_shape", [
        (None, None), (None, "-0"), ("d", None), (None, "d"), ("d", "d"), ("nd", "nd")])
    def test_output_stages_match_the_integer_oracle(self, fmt, gamma_shape, beta_shape):
        # y_hat = round(round(a * sqrt(d)) * y), round(gamma * y_hat) and
        # round(. + beta), one integer-oracle op each, with gamma None as 1
        # and beta None as +0.0; a zero-variance row gets beta.  With gamma
        # None and beta -0.0, z is y_hat, -0 entries included.
        d = 40
        x = np.vstack([rows_with_edge_cases(fmt, 6, d, seed=2), signed_zero_row(d)])
        rng = np.random.default_rng(6)

        def param(shape, low, high):
            if shape is None or shape == "-0":
                return None if shape is None else neg_zero(d)
            return round_array(rng.uniform(low, high, x.shape if shape == "nd" else d), fmt)

        def bits(v):
            return values_to_bits(np.asarray(v, dtype=np.float64), fmt).astype(int).tolist()

        gamma, beta = param(gamma_shape, 0.5, 1.5), param(beta_shape, -0.5, 0.5)
        shifted = shift_batch(fmt, x)
        res = normalize_batch(fmt, shifted, gamma, beta)
        g = bits(np.broadcast_to(1.0 if gamma is None else gamma, x.shape))
        b = bits(np.broadcast_to(0.0 if beta is None else beta, x.shape))
        sqrt_d = bits([stored_constant(math.sqrt(d), fmt)])[0]
        live = res.m > 0.0
        want = b.copy()
        for i in np.flatnonzero(live):
            scale = oracle_op_fast(bits(res.a_trajectory[i, -1:])[0], sqrt_d, "mul", fmt)
            y_hat = [oracle_op_fast(scale, yb, "mul", fmt) for yb in bits(shifted.y[i])]
            want[i] = [oracle_op_fast(oracle_op_fast(gb, yh, "mul", fmt), bb, "add", fmt)
                       for gb, yh, bb in zip(g[i], y_hat, b[i])]
            if beta_shape == "-0":
                assert want[i] == y_hat
        assert bits(res.z) == want
        assert not live.all()
        assert (np.signbit(res.z[live]) & (res.z[live] == 0.0)).any() == (beta_shape == "-0")


# ---------------------------------------------------------------------------
# The vector stages of several lengths in one pass
# ---------------------------------------------------------------------------

JOINT_DIMS = (1, 2, 17, 63, 64, 65, 129, 300, 1024)


def joint_parts(fmt, seed: int, dtypes=(np.float64,)) -> list[np.ndarray]:
    """One (n, d) part per length of JOINT_DIMS, in a shuffled order, the
    dtype of each drawn from `dtypes`.  Each part holds a row of -0 (its
    sum is -0 where d is a multiple of 64, with no pad in its last chunk,
    and +0 elsewhere), a constant row, and rows whose m spans binades."""
    rng = np.random.default_rng(seed)
    parts = []
    for d in rng.permutation(JOINT_DIMS):
        x = rng.uniform(-1, 1, (int(rng.integers(2, 6)), d))
        x *= 2.0 ** rng.integers(-6, 1, (len(x), 1))
        x[0] = -0.0
        x[1] = 0.75
        parts.append(round_array(x, fmt).astype(rng.choice(dtypes)))
    return parts


def assert_same_shifted(got, want):
    for name, a, b in zip(("y", "mean", "m"), got, want, strict=True):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name


class TestJointVectorStages:
    """`shift_batches` runs the parts of a batch, one per length, in one
    pass, and gives each part what `shift_batch` of that part alone gives,
    bit for bit."""

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dtypes", [(np.float32,), (np.float64,), (np.float32, np.float64)],
                             ids=["float32", "float64", "mixed"])
    @pytest.mark.parametrize("buffered", [False, True], ids=["new", "buffers"])
    def test_equals_one_pass_per_length(self, fmt, dtypes, buffered):
        parts = joint_parts(fmt, seed=len(dtypes), dtypes=dtypes)
        got = shift_batches(fmt, parts, Buffers() if buffered else None)
        for x, sh in zip(parts, got, strict=True):
            assert_same_shifted(sh, shift_batch(fmt, x))
            d = x.shape[1]
            # the -0 row: a -0 pad in the partial-sum chain keeps its sum -0
            assert np.signbit(sh.mean[0]) == (d % 64 == 0)
            assert sh.m[0] == 0  # zero variance

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_parts_are_views_of_one_array_each(self, fmt):
        parts = joint_parts(fmt, seed=7)
        buffers = Buffers()
        got = shift_batches(fmt, parts, buffers)
        for field in range(3):  # y, mean and m
            base = got[0][field].base
            assert base is not None and all(sh[field].base is base for sh in got)
        size = sum(x.size for x in parts)
        y = buffers.take("y", (size,), np.float32)
        assert np.shares_memory(y, got[0].y) and np.shares_memory(y, got[-1].y)
        # the one-part batch is the same pass
        assert_same_shifted(shift_batches(fmt, parts[:1])[0], got[0])
        assert shift_batches(fmt, []) == []

    def test_a_float32_part_alone_is_not_copied(self):
        # one float32 part is the carry as it is; with several, each is
        # narrowed into one copy that takes y's squares
        x = round_array(np.random.default_rng(1).uniform(-1, 1, (3, 70)), FP16).astype(np.float32)
        buffers = Buffers()
        shift_batches(FP16, [x], buffers)
        assert "x32" not in buffers._flat
        shift_batches(FP16, [x, x[:, :5]], buffers)
        assert buffers._flat["x32"].size == x.size + 15

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_each_part_names_its_first_failed_row(self, dtype):
        # part 0 has no failure; part 1 fails at rows 1 and 2 (the first is
        # named); part 2's first failure is a NaN; part 3's an element out
        # of range, part 4's a mean-shifted value
        parts = [np.ones((2, 3)),
                 np.array([[1.0, 2.0, 3.0, 4.0], [300.0, -300.0, 1.0, 2.0], [60000.0] * 4]),
                 np.array([[1.0, 2.0], [1.0, np.nan]]),
                 np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [1.0, np.inf, 2.0, 3.0, 4.0]]),
                 np.array([[-65504.0, 65504.0, 65504.0, 0.0, 0.0, 0.0]])]
        with pytest.raises(RangeOverflowError, match="^squared norm overflowed fp16$") as info:
            shift_batches(FP16, [x.astype(dtype) for x in parts])
        assert info.value.row == 1
        assert info.value.failures == (
            (1, 1, "squared norm overflowed fp16"), (2, 1, "x contains NaN values"),
            (3, 1, "value out of range for fp16"), (4, 0, "mean-shifted value overflowed fp16"))
        # each as a part of its own names the same row and stage
        for g, row, message in info.value.failures:
            with pytest.raises(RangeOverflowError, match=f"^{message}$") as alone:
                shift_batch(FP16, parts[g].astype(dtype))
            assert (alone.value.row, alone.value.failures) == (row, ((0, row, message),))


# ---------------------------------------------------------------------------
# Threshold solves stop at proven 2-cycles
# ---------------------------------------------------------------------------

def threshold_oracle(fixed: np.ndarray, stop: Threshold):
    """(trajectory, steps, converged) of a Threshold solve, from the
    FixedSteps(stop.max_steps) trajectory `fixed` of the same rows: a row
    stops after the first step whose a is not finite or whose binary64
    change is not above delta_max, converged if that a is finite; a row
    that never stops reports max_steps, not converged.  A stopped row keeps
    its a up to the largest step count."""
    with np.errstate(invalid="ignore"):
        change = np.abs(fixed[:, 1:].astype(np.float64) - fixed[:, :-1])
        stops = ~np.isfinite(fixed[:, 1:]) | ~(change > stop.delta_max)
    stopped = stops.any(axis=1)
    steps = np.where(stopped, stops.argmax(axis=1) + 1, stop.max_steps)
    converged = stopped & np.isfinite(fixed[np.arange(len(fixed)), steps])
    cols = np.minimum(np.arange(steps.max(initial=0) + 1), steps[:, None])
    return np.take_along_axis(fixed, cols, axis=1), steps, converged


def solve(m: np.ndarray, stop, fmt):
    return iterate_values(init_a_values(m, fmt), m, select_lambda_values(m), stop, fmt)


def positive_values(fmt) -> np.ndarray:
    """Every positive finite fp16 or bf16 value (subnormals included), in
    the binary32 carry."""
    if fmt is FP16:
        return np.arange(1, 0x7C00, dtype=np.uint16).view(np.float16).astype(np.float32)
    return (np.arange(1, 0x7F80, dtype=np.uint32) << np.uint32(16)).view(np.float32)


def assert_same_solve(got, want):
    for name, a, b in zip(("trajectory", "steps", "converged"), got, want, strict=True):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name


class TestCycleStop:
    """Under Threshold, a row whose `a` repeats its value from two steps
    back leaves the loop, and reports what running it to the cap gives:
    the trajectory, steps and converged of the threshold rule applied to
    the FixedSteps(max_steps) trajectory, bit for bit."""

    @pytest.mark.parametrize("fmt", [FP16, BF16], ids=lambda f: f.name)
    @pytest.mark.parametrize("max_steps", [1, 7, 50])
    def test_every_16_bit_m(self, fmt, max_steps):
        m = positive_values(fmt)
        fixed = solve(m, FixedSteps(max_steps), fmt)[0]
        for delta in (1e-2, 1e-3, 1e-5):
            stop = Threshold(delta, max_steps)
            got = solve(m, stop, fmt)
            assert_same_solve(got, threshold_oracle(fixed, stop))
        if max_steps == 50:
            # the sweep meets 2-cycles: rows that run to the cap and end
            # with a(50) == a(48) != a(49)
            traj, steps, converged = got
            cycles = ~converged & (traj[:, -1] == traj[:, -3]) & (traj[:, -1] != traj[:, -2])
            assert cycles.sum() > 1000

    @given(m=st.lists(st.integers(1, 0x7F7FFFFF), min_size=1, max_size=12),
           delta=st.sampled_from([1e-1, 1e-2, 1e-3, 1e-6, 1e-9]),
           max_steps=st.integers(1, 50))
    @settings(max_examples=150, deadline=None)
    def test_fp32_m(self, m, delta, max_steps):
        m = np.array(m, dtype=np.uint32).view(np.float32)
        stop = Threshold(delta, max_steps)
        assert_same_solve(solve(m, stop, FP32),
                          threshold_oracle(solve(m, FixedSteps(max_steps), FP32)[0], stop))

    def test_a_two_cycle_ends_the_loop(self, monkeypatch):
        # bf16 m = 185 alternates between 0.07275390625 and 0.07421875 from
        # step 2 on, 1.46e-3 apart: the loop ends at its first repeat, step
        # 4, and the trajectory is filled out to max_steps from there
        m = np.array([185.0], dtype=np.float32)
        calls = []
        rounding = norm_core.round_array
        monkeypatch.setattr(norm_core, "round_array",
                            lambda *args, **kwargs: calls.append(1) or rounding(*args, **kwargs))
        traj, steps, converged = solve(m, Threshold(1e-3, 50), BF16)
        assert len(calls) == 6 * 4  # six roundings a step
        assert steps.tolist() == [50] and converged.tolist() == [False]
        assert traj.shape == (1, 51)
        assert traj[0, 2:].tolist() == [0.07275390625, 0.07421875] * 24 + [0.07275390625]
