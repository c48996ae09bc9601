import itertools
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
    Threshold,
    init_a_values,
    iterate_values,
    layernorm_iterl2,
    normalize_batch,
    normalize_batches,
    normalize_steps,
    select_lambda_values,
    shift_batch,
)
from iterl2norm.baselines import fisr_batch, reference_batch

from oracles import oracle_iteration

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
            assert res.z[0].tobytes() == beta.tobytes()
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

    def test_overflowing_row_is_named(self):
        x = round_array(np.array([[1.0, 2.0, 3.0, 4.0], [300.0, -300.0, 1.0, 2.0]]), FP16)
        with pytest.raises(RangeOverflowError) as info:
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
    caller passed: x, gamma and beta keep every bit, in either precision."""

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [64, 130])
    def test_kernels_leave_inputs_alone(self, fmt, dtype, d):
        x = rows_with_edge_cases(fmt, 6, d, seed=4).astype(dtype)
        gamma = round_array(np.linspace(0.5, 1.5, d), fmt).astype(dtype)
        beta = round_array(np.linspace(-0.25, 0.25, d), fmt).astype(dtype)
        before = [v.copy() for v in (x, gamma, beta)]
        shift_batch(fmt, x)
        normalize_batch(fmt, x, gamma, beta)
        normalize_batch(fmt, x, gamma, beta, NormConfig(stopping=Threshold(1e-6)))
        list(normalize_steps(fmt, x, (3, 0, 1)))
        reference_batch(fmt, x, gamma, beta)
        reference_batch(fmt, x)
        if fmt.exp_bits == 8:  # FISR needs an 8-bit exponent
            fisr_batch(fmt, x, gamma, beta)
        for v, b in zip((x, gamma, beta), before):
            assert (v.dtype, v.tobytes()) == (b.dtype, b.tobytes())
