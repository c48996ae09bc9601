import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterl2norm.baselines import (
    BF16_MAGIC,
    FP32_MAGIC,
    fisr_batch,
    fisr_inv_sqrt_values,
    reference_batch,
)
from iterl2norm.errors import UsageError
from iterl2norm.fpformat import BF16, FP16, FP32, round_array
from iterl2norm.norm_core import normalize_batch

from oracles import round_value


def _fisr_float32_oracle(x: float, iters: int = 1) -> float:
    """Classic sequence in native float32, independent of the emulation."""
    y = np.frombuffer(
        np.uint32(FP32_MAGIC - (np.float32(x).view(np.uint32) >> np.uint32(1))).tobytes(),
        dtype=np.float32)[0]
    xh = np.float32(0.5) * np.float32(x)
    for _ in range(iters):
        y = y * (np.float32(1.5) - (xh * y) * y)
    return float(y)


class TestFisrSpec:
    """FISR's settings: the format (`fmt`), the magic constant and the
    Newton step count."""

    def test_defaults(self):
        # no magic is the format's canonical constant; one Newton step
        x = round_array(np.exp2(np.arange(-20.0, 20.0, 0.75)), BF16)
        for fmt, magic in ((FP32, FP32_MAGIC), (BF16, BF16_MAGIC)):
            assert np.array_equal(fisr_inv_sqrt_values(x, fmt),
                                  fisr_inv_sqrt_values(x, fmt, magic, newton_iters=1))

    def test_fp16_rejected(self):
        with pytest.raises(UsageError):
            fisr_inv_sqrt_values(np.array([4.0]), FP16)
        with pytest.raises(UsageError):
            fisr_batch(FP16, np.array([[1.0, 2.0, 3.0, 4.0]]))

    def test_bad_params(self):
        # checked before any value is, so a batch with no live row too
        for m in (np.array([4.0]), np.array([])):
            with pytest.raises(UsageError):
                fisr_inv_sqrt_values(m, FP32, newton_iters=-1)
            with pytest.raises(UsageError):
                fisr_inv_sqrt_values(m, FP32, magic=1 << 40)
            with pytest.raises(UsageError):
                fisr_inv_sqrt_values(m, BF16, magic=FP32_MAGIC)


def fisr(x: float, fmt=FP32, **settings) -> float:
    """FISR of one value: `fisr_inv_sqrt_values` on a 1-element array."""
    return float(fisr_inv_sqrt_values(np.array([x]), fmt, **settings)[0])


def reference(fmt, x, gamma=None, beta=None) -> np.ndarray:
    """The reference output of one vector: a batch of one."""
    return reference_batch(fmt, np.asarray(x)[None, :], gamma, beta)[0]


class TestFisrInvSqrt:
    def test_classic_value_at_one(self):
        got = fisr(1.0)
        assert got == _fisr_float32_oracle(1.0)
        assert abs(got - 0.998307) < 5e-7

    def test_one_newton_step_at_four(self):
        got = fisr(4.0)
        assert abs(got - 0.5) / 0.5 < 0.002

    def test_matches_float32_oracle_on_randoms(self):
        rng = np.random.default_rng(13)
        x = round_array(np.exp2(rng.uniform(-20, 20, 200)), FP32)
        mine = fisr_inv_sqrt_values(x, FP32)
        # the binary32 carry gives the same bits
        assert np.array_equal(fisr_inv_sqrt_values(x.astype(np.float32), FP32), mine)
        for xi, yi in zip(x.tolist(), mine.tolist()):
            assert yi == _fisr_float32_oracle(xi)

    @pytest.mark.parametrize("x,p", [(4.0, 1), (16.0, 2), (2.0 ** -12, -6)])
    def test_even_power_of_two_converges_to_fixed_point(self, x, p):
        # 2^-p is an exact fixed point of the rounded Newton update
        y_star = 2.0 ** -p
        xh = round_value(0.5 * x, FP32)
        t2 = round_value(round_value(xh * y_star, FP32) * y_star, FP32)
        t3 = round_value(1.5 - t2, FP32)
        assert round_value(y_star * t3, FP32) == y_star
        # the seeded iteration lands within one ulp of it (rounding can stall
        # the last quadratic step one step short)
        got = fisr(x, newton_iters=8)
        ulp = float(np.spacing(np.float32(2.0 ** -p)))
        assert abs(got - 2.0 ** -p) <= ulp

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fisr(0.0)
        with pytest.raises(ValueError):
            fisr(-2.0)

    def test_rejects_non_finite(self):
        # the seed of +inf is a negative value: without the guard the
        # result is [-inf, 0.499]
        for x in ([np.inf, 4.0], [4.0, np.nan]):
            with pytest.raises(ValueError):
                fisr_inv_sqrt_values(np.array(x), FP32)

    def test_one_step_error_bound_over_binade_sweep(self):
        # classic worst case after one Newton step is ~0.175%
        worst = 0.0
        for e in range(-126, 127):
            sig = np.linspace(1.0, 2.0, 65)[:-1]
            x = round_array(np.ldexp(sig, e), FP32)
            y = fisr_inv_sqrt_values(x, FP32)
            rel = np.abs(y * np.sqrt(x) - 1.0)
            worst = max(worst, float(rel.max()))
        assert worst <= 0.002

    def test_bf16_path_runs(self):
        y = fisr(4.0, BF16)
        assert abs(y - 0.5) / 0.5 < 0.02


class TestLayernormFisr:
    def test_example_vector_within_half_percent(self):
        x = round_array(np.array([[1.0, 2.0, 3.0, 4.0]]), FP32)
        res = fisr_batch(FP32, x)
        ref = reference(FP32, x[0])
        rel = np.abs(res.z[0] - ref) / np.abs(ref)
        assert rel.max() < 0.005

    def test_constant_input_returns_beta(self):
        beta = round_array(np.linspace(-2, 2, 5), BF16)
        x = round_array(np.full((1, 5), 1.5), BF16)
        assert np.array_equal(fisr_batch(BF16, x, beta=beta).z[0], beta)
        # zero-variance rows between live rows: each live row gets its own `a`
        x = round_array(np.array([[0.0, 1.0, 2.0, 3.0, 4.0], [1.5] * 5, [-0.5] * 5,
                                  [0.0, 0.0, 0.0, 0.0, 4.0]]), BF16)
        res = fisr_batch(BF16, x, beta=beta)
        assert np.array_equal(res.z[1:3], [beta, beta])
        for i in (0, 3):
            assert res.z[i].tobytes() == fisr_batch(BF16, x[[i]], beta=beta).z[0].tobytes()

    def test_zero_gamma_returns_beta(self):
        beta = round_array(np.linspace(0, 1, 5), FP32)
        x = round_array(np.arange(5.0)[None, :], FP32)
        assert np.array_equal(fisr_batch(FP32, x, np.zeros(5), beta).z[0], beta)


class TestLayernormReference:
    def test_example_vector(self):
        want = np.array([-1.341641, -0.447214, 0.447214, 1.341641])
        assert np.abs(reference(FP32, [1.0, 2.0, 3.0, 4.0]) - want).max() < 1e-6

    def test_zero_mean_unit_norm_input(self):
        x = np.array([0.5, -0.5, 0.5, -0.5])
        assert np.array_equal(reference(FP32, x), 2.0 * x)  # sqrt(d) * x exactly

    def test_d_one_returns_beta(self):
        assert np.array_equal(reference(FP16, [7.0], beta=np.array([0.25])), [0.25])

    @pytest.mark.parametrize("fmt", [FP32, FP16, BF16], ids=lambda f: f.name)
    def test_matches_the_written_out_expression(self, fmt):
        # gamma * (sqrt(d) * y / ||y||) + beta in binary64, rounded once,
        # bit for bit, with beta on the zero-variance rows; gamma and beta
        # shared or one per row
        rng = np.random.default_rng(2)
        d = 96
        x = round_array(rng.uniform(-1, 1, (6, d)) * 2.0 ** rng.uniform(-6, 6, (6, 1)), fmt)
        x[2] = 0.5
        gamma = round_array(rng.uniform(0.5, 2.0, d), fmt)
        beta = round_array(rng.uniform(-0.5, 0.5, d), fmt)
        gamma_rows = round_array(rng.uniform(0.5, 2.0, x.shape), fmt)
        beta_rows = round_array(rng.uniform(-0.5, 0.5, x.shape), fmt)
        y = x - x.mean(axis=1, keepdims=True)
        norm = np.sqrt(np.einsum("ij,ij->i", y, y))[:, None]
        safe = np.where(norm > 0.0, norm, 1.0)
        for g, b in ((gamma, beta), (None, None), (None, beta), (gamma_rows, beta_rows)):
            gm = 1.0 if g is None else g
            bt = np.broadcast_to(0.0 if b is None else b, x.shape)
            want = round_array(gm * (math.sqrt(d) * y / safe) + bt, fmt)
            want[2] = bt[2]
            got = reference_batch(fmt, x, g, b)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    @pytest.mark.parametrize("fmt", [FP32, FP16, BF16], ids=lambda f: f.name)
    def test_no_beta_skips_the_add(self, fmt):
        # beta None adds nothing: a -0 of the scaled row stays -0 where a
        # beta of +0 makes it +0; every value, and so every |z - ref|, is
        # the same, zero-variance rows included (+0)
        x = np.array([[-0.0, 1.0, -1.0, 0.0], [0.25, -0.5, 0.75, 2.0], [3.0] * 4])
        z = reference_batch(fmt, x)
        zero = reference_batch(fmt, x, beta=np.zeros(4))
        assert np.array_equal(z, zero)
        assert np.signbit(z).tolist() == [[True, False, True, False],
                                          [True, True, False, False],
                                          [False] * 4]
        assert np.signbit(zero[0]).tolist() == [False, False, True, False]
        out = np.full(x.shape, 7.0)
        assert reference_batch(fmt, x, out=out) is out
        assert out.tobytes() == z.tobytes()
        z32 = round_array(x, fmt).astype(np.float32)  # a z of the binary32 carry
        assert np.abs(z32 - z).tobytes() == np.abs(z32 - zero).tobytes()

    @given(
        grid=st.lists(st.integers(-2 ** 16, 2 ** 16), min_size=2, max_size=12),
        shift=st.integers(-8, 8),
    )
    @settings(max_examples=200)
    def test_shift_invariance_on_dyadic_grid(self, grid, shift):
        # multiples of 2^-16 with power-of-two d keep every binary64 step
        # exact, so adding an integer constant is exactly invisible
        x = np.array(grid[: 2 ** int(math.log2(len(grid)))], dtype=np.float64) * 2.0 ** -16
        if len(x) < 2 or np.ptp(x) == 0.0:
            return
        a = reference_batch(FP32, x[None, :])
        b = reference_batch(FP32, (x + float(shift))[None, :])
        assert np.array_equal(a, b)

    @given(
        vals=st.lists(st.floats(-1, 1, allow_nan=False, width=32), min_size=2, max_size=16),
        p=st.integers(-20, 20),
    )
    @settings(max_examples=200)
    def test_scale_invariance_power_of_two(self, vals, p):
        x = round_array(np.array(vals, dtype=np.float64), FP32)
        if np.ptp(x) == 0.0:
            return
        a = reference_batch(FP32, x[None, :])
        b = reference_batch(FP32, (math.ldexp(1.0, p) * x)[None, :])
        assert np.array_equal(a, b)


class TestPipelineComparison:
    def test_fisr_vs_iterative_on_identical_inputs(self):
        rng = np.random.default_rng(21)
        x = round_array(rng.uniform(-1, 1, (1, 256)), FP32)
        ref = reference_batch(FP32, x)
        it = normalize_batch(FP32, x).z
        fi = fisr_batch(FP32, x).z
        assert np.abs(it - ref).mean() < 0.05
        assert np.abs(fi - ref).mean() < 0.05
