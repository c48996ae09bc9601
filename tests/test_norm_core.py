import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterl2norm.errors import RangeOverflowError, UsageError
from iterl2norm.fpformat import BF16, FP16, FP32, round_array, round_value, values_to_bits
from iterl2norm.norm_core import (
    FixedSteps,
    NormConfig,
    NormInputs,
    Threshold,
    init_a_values,
    iterate_values,
    layernorm_iterl2,
    mean_shift,
    normalize_batch,
    select_lambda_values,
    squared_norm,
)
from iterl2norm.baselines import reference_batch

from oracles import oracle_iteration

ALL_FORMATS = [FP32, FP16, BF16]


def a0_of(m: float, fmt=FP32, exact: bool = False) -> float:
    """init_a_values on a 1-element array."""
    return float(init_a_values(np.array([m]), fmt, exact)[0])


def lam_of(m: float) -> float:
    return float(select_lambda_values(np.array([m]))[0])


def iterate(a0: float, m: float, lam: float, config: NormConfig, fmt=None):
    """iterate_values on a 1-element array: (trajectory, steps, converged)."""
    traj, steps, converged, a = iterate_values(np.array([a0]), np.array([m]), np.array([lam]),
                                               config, fmt)
    assert traj[0, -1] == a[0]
    return tuple(traj[0].tolist()), int(steps[0]), bool(converged[0])


class TestMeanShift:
    def test_one_two_three_four(self):
        y, mean = mean_shift(np.array([1.0, 2.0, 3.0, 4.0]), FP32)
        assert mean == 2.5
        assert np.array_equal(y, [-1.5, -0.5, 0.5, 1.5])

    def test_constant_vector(self):
        y, mean = mean_shift(np.full(17, 0.8125), FP16)
        assert mean == 0.8125
        assert np.array_equal(y, np.zeros(17))

    def test_single_element(self):
        y, mean = mean_shift(np.array([5.0]), BF16)
        assert mean == 5.0
        assert np.array_equal(y, [0.0])

    def test_uses_prerounded_inverse_d(self):
        # d = 3: mean = tree_sum(x) * round(1/3), not an exact division
        x = round_array(np.array([1.0, 1.0, 1.0]), BF16)
        _, mean = mean_shift(x, BF16)
        assert mean == round_value(3.0 * round_value(1.0 / 3.0, BF16), BF16)


class TestSquaredNorm:
    def test_example_vector(self):
        assert squared_norm(np.array([-1.5, -0.5, 0.5, 1.5]), FP32) == 5.0

    def test_zeros(self):
        assert squared_norm(np.zeros(9), FP16) == 0.0

    def test_unit_basis(self):
        for d in (1, 5, 200):
            e1 = np.zeros(d)
            e1[0] = 1.0
            assert squared_norm(e1, BF16) == 1.0

    def test_overflow_is_range_error(self):
        big = np.full(64, 60000.0)  # squares overflow fp16
        with pytest.raises(RangeOverflowError):
            squared_norm(round_array(big, FP16), FP16)


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
        want, _, _ = iterate(a0_of(5.0), 5.0, 0.01, NormConfig(), FP32)
        assert tuple(res.a_trajectory[0]) == want
        assert want != iterate(a0_of(5.0), 5.0, lam_of(5.0), NormConfig(), FP32)[0]

    def test_bad_override(self):
        with pytest.raises(UsageError):
            NormConfig(lambda_override=-1.0)
        with pytest.raises(UsageError):
            NormConfig(lambda_override=0.0)

    @given(e=st.integers(-126, 127))
    @settings(max_examples=200)
    def test_strictly_above_bound(self, e):
        m = math.ldexp(1.3, e)
        assert lam_of(m) > 0.345 * math.ldexp(1.0, -e)


class TestIterateA:
    def test_m_five_converges_in_five_steps(self):
        m = 5.0
        traj, steps, _ = iterate(a0_of(m), m, lam_of(m),
                                 NormConfig(stopping=FixedSteps(5)), FP32)
        assert len(traj) == 6 and steps == 5
        assert abs(traj[-1] * math.sqrt(5.0) - 1.0) < 1e-4
        assert abs(traj[-1] - 0.44718) < 5e-5

    def test_exact_mode_matches_hand_iteration(self):
        m, a0, lam = 5.0, 2.0 ** -1.5, 0.125
        traj, _, _ = iterate(a0, m, lam,
                             NormConfig(stopping=FixedSteps(5), exact_arithmetic=True))
        a = a0
        for _ in range(5):
            a = a + lam * m * a * (1.0 - m * a * a)
        assert traj[-1] == a

    def test_m_one_reaches_unity(self):
        traj, _, _ = iterate(a0_of(1.0, exact=True), 1.0, 0.5,
                             NormConfig(stopping=FixedSteps(30), exact_arithmetic=True))
        assert abs(traj[-1] - 1.0) < 1e-12

    def test_exact_fixed_point_never_moves(self):
        # m * a^2 == 1 exactly: da = 0 forever
        traj, _, _ = iterate(0.5, 4.0, 0.25, NormConfig(stopping=FixedSteps(7)), FP16)
        assert traj == (0.5,) * 8

    def test_threshold_stops_on_small_delta(self):
        m = 5.0
        cfg = NormConfig(stopping=Threshold(delta_max=1e-6, max_steps=50))
        traj, steps, converged = iterate(a0_of(m), m, lam_of(m), cfg, FP32)
        assert converged
        assert 1 <= steps <= 50 and len(traj) == steps + 1
        assert abs(traj[-1] * math.sqrt(m) - 1.0) < 1e-4

    def test_threshold_reports_non_convergence(self):
        cfg = NormConfig(stopping=Threshold(delta_max=1e-12, max_steps=4),
                         exact_arithmetic=True)
        traj, steps, converged = iterate(0.1, 1.0, 1e-4, cfg)
        assert not converged
        assert len(traj) == 5 and steps == 4

    @pytest.mark.parametrize("stopping", [FixedSteps(8), Threshold(1e-5, 20)],
                             ids=["fixed8", "threshold"])
    def test_diverging_row_is_not_converged(self, stopping):
        # lambda*m = 12.6 drives a out of the finite range; lambda*m = 0.3
        # converges.  FixedSteps reports every row converged.
        traj, steps, converged, a = iterate_values(
            np.array([0.125, 0.125]), np.array([42.0, 42.0]), np.array([0.3, 0.3 / 42]),
            NormConfig(stopping=stopping), FP32)
        threshold = isinstance(stopping, Threshold)
        assert converged.tolist() == ([False, True] if threshold else [True, True])
        assert not np.isfinite(a[0]) and np.isfinite(a[1])
        if threshold:  # stops at the first non-finite a
            k = int(steps[0])
            assert np.isfinite(traj[0, :k]).all() and not np.isfinite(traj[0, k])

    def test_threshold_rows_stop_independently(self):
        # a fixed-point row stops after one step; a slow row runs to the cap
        cfg = NormConfig(stopping=Threshold(delta_max=1e-9, max_steps=6), exact_arithmetic=True)
        traj, steps, converged, a = iterate_values(
            np.array([0.5, 0.1]), np.array([4.0, 1.0]), np.array([0.25, 1e-4]), cfg)
        assert steps.tolist() == [1, 6] and converged.tolist() == [True, False]
        assert traj.shape == (2, 7)
        assert (traj[0] == 0.5).all()
        assert traj[1, -1] == a[1]

    def test_threshold_config_validation(self):
        with pytest.raises(UsageError):
            Threshold(delta_max=0.0)

    @given(n=st.integers(0, 12))
    @settings(max_examples=40)
    def test_trajectory_length_invariant(self, n):
        traj, steps, _ = iterate(a0_of(3.0), 3.0, lam_of(3.0),
                                 NormConfig(stopping=FixedSteps(n)), FP32)
        assert len(traj) == n + 1 and steps == n


class TestLayerNorm:
    def test_example_vector(self):
        inputs = NormInputs.from_floats(FP32, [1.0, 2.0, 3.0, 4.0])
        res = layernorm_iterl2(inputs)
        want = np.array([-1.34164079, -0.4472136, 0.4472136, 1.34164079])
        assert np.abs(res.z - want).max() < 1e-3
        assert res.steps_taken == 5
        assert len(res.a_trajectory) == 6
        assert res.m == 5.0 and res.mean == 2.5

    def test_constant_input_returns_beta(self):
        beta = round_array(np.linspace(-1, 1, 8), FP16)
        inputs = NormInputs.from_floats(FP16, np.full(8, 3.25), beta=beta)
        res = layernorm_iterl2(inputs)
        assert np.array_equal(res.z, beta)
        assert np.array_equal(res.y_hat, np.zeros(8))
        assert res.m == 0.0

    def test_zero_gamma_annihilates(self):
        beta = round_array(np.linspace(0.5, 2.0, 6), BF16)
        inputs = NormInputs.from_floats(BF16, np.arange(6, dtype=float),
                                        gamma=np.zeros(6), beta=beta)
        res = layernorm_iterl2(inputs)
        assert np.array_equal(res.z, beta)

    def test_inject_a_hook(self):
        inputs = NormInputs.from_floats(FP32, [1.0, 2.0, 3.0, 4.0])
        res = layernorm_iterl2(inputs, inject_a=5.0 ** -0.5)
        assert res.steps_taken == 0
        want = reference_batch(FP32, inputs.x[None, :])[0]
        assert np.abs(res.z - want).max() < 1e-6

    def test_inputs_validation(self):
        with pytest.raises(UsageError):
            NormInputs.from_floats(FP32, [])
        with pytest.raises(UsageError):
            NormInputs(FP32, np.array([1.0]), np.array([1.0, 2.0]), np.array([0.0]))
        with pytest.raises(UsageError):
            NormInputs(FP16, np.array([1.0 + 2.0 ** -20]), np.array([1.0]), np.array([0.0]))


class TestBatchAgreement:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("d", [1, 3, 64, 130])
    def test_batch_matches_scalar_path(self, fmt, d):
        rng = np.random.default_rng(d * 7)
        x = round_array(rng.uniform(-1, 1, (6, d)), fmt)
        gamma = round_array(rng.uniform(0.5, 1.5, d), fmt)
        beta = round_array(rng.uniform(-0.2, 0.2, d), fmt)
        for cfg in (NormConfig(stopping=FixedSteps(5)),
                    NormConfig(stopping=Threshold(1e-4, max_steps=20))):
            batch = normalize_batch(fmt, x, gamma, beta, cfg)
            for i in range(len(x)):
                single = layernorm_iterl2(NormInputs(fmt, x[i], gamma, beta), cfg)
                assert np.array_equal(batch.z[i], single.z)
                assert np.array_equal(batch.y_hat[i], single.y_hat)
                assert batch.m[i] == single.m
                assert batch.mean[i] == single.mean
                assert batch.steps[i] == single.steps_taken
                assert batch.converged[i] == single.converged
                k = single.steps_taken
                assert np.array_equal(batch.a_trajectory[i, :k + 1], single.a_trajectory)

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


class TestExactPathProperties:
    def _exact_yhat(self, x: np.ndarray, steps: int = 5):
        y = x - x.mean()
        m = float(y @ y)
        traj, _, _ = iterate(a0_of(m, exact=True), m, lam_of(m),
                             NormConfig(stopping=FixedSteps(steps), exact_arithmetic=True))
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
