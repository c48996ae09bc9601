"""The datapath carries format values in binary32; these tests pin it to the
same bits as carrying every value in binary64.

`binary64_datapath` is the datapath with every operation computed in
binary64 and rounded once to the format (the float64 branch of
`round_array`), written out inline.  Each trap test also asserts that its
inputs reach the case where a careless binary32 version would differ.
"""

import math

import numpy as np
import pytest

from iterl2norm.baselines import FisrSpec, fisr_batch, fisr_inv_sqrt_values
from iterl2norm.experiments import run_normalize
from iterl2norm.fpformat import (
    BF16,
    FP16,
    FP32,
    round_array,
    round_value,
    tree_sum_values,
)
from iterl2norm.norm_core import (
    FixedSteps,
    NormConfig,
    Threshold,
    init_a_values,
    iterate_values,
    normalize_batch,
    select_lambda_values,
)
from iterl2norm.vecio import read_vectors, write_vectors


def binary64_datapath(fmt, x, gamma=None, beta=None, steps=5, lam=None, fisr=False):
    """(z, mean, m, trajectory) with every value carried in float64."""
    def rnd(v):
        return round_array(np.asarray(v, dtype=np.float64), fmt)

    n, d = x.shape
    gamma = np.ones(d) if gamma is None else gamma
    beta = np.broadcast_to(np.zeros(d) if beta is None else beta, (n, d))
    mean = rnd(tree_sum_values(x, fmt) * round_value(1.0 / d, fmt))
    y = rnd(x - mean[:, None])
    m = tree_sum_values(rnd(y * y), fmt)
    live = m > 0.0
    ml = m[live]
    if fisr:
        a = fisr_inv_sqrt_values(ml, FisrSpec(format=fmt))
        traj_live = a[:, None]
    else:
        a = init_a_values(ml, fmt)
        lam_v = select_lambda_values(ml) if lam is None else np.full(ml.shape, lam)
        cols = [a]
        for _ in range(steps):
            t1 = rnd(ml * a)
            t2 = rnd(t1 * a)
            t3 = rnd(1.0 - t2)
            t4 = rnd(lam_v * t1)
            da = rnd(t4 * t3)
            a = rnd(a + da)
            cols.append(a)
        traj_live = np.stack(cols, axis=1)
    traj = np.zeros((n, traj_live.shape[1]))
    traj[live] = traj_live
    scale = np.zeros(n)
    scale[live] = rnd(a * round_value(math.sqrt(d), fmt))
    y_hat = rnd(scale[:, None] * y)
    z = rnd(rnd(gamma * y_hat) + beta)
    z[~live] = beta[~live]
    return z, mean, m, traj


def bits(v) -> np.ndarray:
    return np.ascontiguousarray(v, dtype=np.float64).view(np.uint64)


def assert_same_bits(res, want) -> None:
    z, mean, m, traj = want
    for got, exp in ((res.z, z), (res.mean, mean), (res.m, m), (res.a_trajectory, traj)):
        assert got.dtype == np.float64
        assert np.array_equal(bits(got), bits(exp))


def assert_matches_binary64(fmt, x, gamma=None, beta=None, steps=5, lam=None, fisr=False):
    """normalize_batch, or fisr_batch, gives binary64_datapath's bits: with
    the given gamma and beta, and with gamma None and beta -0.0, where
    z = 1*y_hat + (-0) is y_hat bit for bit."""
    for g, b in ((gamma, beta), (None, np.full(x.shape[1], -0.0))):
        if fisr:
            res = fisr_batch(fmt, x, g, b)
        else:
            res = normalize_batch(fmt, x, g, b, NormConfig(FixedSteps(steps), lam))
        assert_same_bits(res, binary64_datapath(fmt, x, g, b, steps, lam, fisr))


class TestRoundArrayCarry:
    @pytest.mark.parametrize("fmt", [FP32, FP16, BF16], ids=lambda f: f.name)
    def test_dtype_follows_input(self, fmt):
        v = np.array([1.0 / 3.0, -2.5e-6, 7e4])
        assert round_array(v, fmt).dtype == np.float64
        r32 = round_array(v.astype(np.float32), fmt)
        assert r32.dtype == np.float32
        assert np.array_equal(r32.astype(np.float64), round_array(v.astype(np.float32)
                                                                  .astype(np.float64), fmt))
        assert round_array(np.float32(0.1), fmt).shape == ()


class TestTrap1Fp16Boundary:
    def test_text_input_rounds_binary64_straight_to_fp16(self, tmp_path):
        # just above or below an fp16 rounding midpoint by 2^-40: binary32
        # drops the 2^-40 and leaves an exact tie
        k = np.arange(-12, 5)
        v = np.concatenate([(1 + 2.0 ** -11 + 2.0 ** -40) * 2.0 ** k,
                            -(1 + 3 * 2.0 ** -11 - 2.0 ** -40) * 2.0 ** k])
        direct = v.astype(np.float16).astype(np.float64)  # the parent's formula
        via32 = v.astype(np.float32).astype(np.float16).astype(np.float64)
        assert (direct != via32).all()
        assert np.array_equal(round_array(v, FP16), direct)

        rows = v.reshape(2, -1)
        inp, out = tmp_path / "v.txt", tmp_path / "z.txt"
        write_vectors(inp, list(rows), FP16, binary=False)
        run_normalize(str(inp), str(out), fmt_name="fp16")
        z, _ = read_vectors(out)
        want = normalize_batch(FP16, direct.reshape(2, -1)).z
        assert np.array_equal(bits(np.array(z)), bits(want))


class TestTrap2LambdaProduct:
    @pytest.mark.parametrize("fmt", [FP32, FP16, BF16], ids=lambda f: f.name)
    @pytest.mark.parametrize("lam", [0.3, 0.7])
    def test_override_lambda_through_the_pipeline(self, fmt, lam):
        rng = np.random.default_rng(23)
        x = round_array(rng.uniform(-1, 1, (40, 24)) * rng.uniform(0.1, 0.4, (40, 1)), fmt)
        assert_matches_binary64(fmt, x, steps=6, lam=lam)
        if fmt is FP32:  # reach: lambda rounded to binary32 first gives another t4
            _, _, m, traj = binary64_datapath(fmt, x, steps=6, lam=lam)
            m, traj = m[:, None], traj[:, :-1]
            t1 = round_array(m * traj, fmt)
            assert (round_array(lam * t1, fmt)
                    != round_array(float(np.float32(lam)) * t1, fmt)).any()

    @pytest.mark.parametrize("fmt", [FP32, FP16, BF16], ids=lambda f: f.name)
    def test_lambda_next_to_a_rounding_midpoint(self, fmt):
        # m = 1 and a in [0.5, 1): t1 = a, and lambda * a lands 2^-40 above
        # or below the midpoint between two format values near 0.3 * a
        a = np.unique(round_array(np.linspace(0.5, 1.0, 4001)[:-1], fmt))
        lo = round_array(0.3 * a, fmt)
        ulp = np.ldexp(1.0, np.frexp(lo)[1] - 1 - fmt.mant_bits)
        mid = lo + ulp / 2
        lam = np.concatenate([mid * (1 + 2.0 ** -40), mid * (1 - 2.0 ** -40)]) / np.tile(a, 2)
        a = np.tile(a, 2)

        def step(lam_v):
            t1 = round_array(1.0 * a, fmt)
            t3 = round_array(1.0 - round_array(t1 * a, fmt), fmt)
            t4 = round_array(lam_v * t1, fmt)
            return round_array(a + round_array(t4 * t3, fmt), fmt)

        want = step(lam)
        assert (want != step(lam.astype(np.float32).astype(np.float64))).any()
        traj, _, _ = iterate_values(a.astype(np.float32), np.ones(a.size, dtype=np.float32),
                                    lam, FixedSteps(1), fmt)
        assert traj.dtype == np.float32
        assert np.array_equal(traj[:, 1], want)

    @pytest.mark.parametrize("fmt,scale", [(FP32, (-72, -64)), (BF16, (-66, -60))],
                             ids=["fp32", "bf16"])
    def test_subnormal_m_default_lambda(self, fmt, scale):
        # m below 2^-126, where lambda = 2^-E(m) lies above the binary32 range
        rng = np.random.default_rng(126)
        x = rng.uniform(-1, 1, (40, 16)) * 2.0 ** rng.uniform(*scale, (40, 1))
        x = round_array(x, fmt)
        m = binary64_datapath(fmt, x)[2]
        assert ((m > 0) & (m < 2.0 ** -126)).sum() >= 10
        with np.errstate(over="ignore"):
            assert np.isinf(select_lambda_values(m[m > 0]).astype(np.float32)).any()
        assert_matches_binary64(fmt, x)
        assert_matches_binary64(fmt, x, fisr=True)


class TestTrap3ThresholdInBinary64:
    def test_change_compared_in_binary64(self):
        # m = 1, a ~ 1e-6 / lambda: one step moves a by ~1e-6 while a is far
        # smaller, so the binary64 change falls between binary32 grid points
        lam = 100.0 * (1.0 + np.arange(400) / 1000.0)
        centre = (1e-6 / lam).astype(np.float32).view(np.uint32).astype(np.int64)
        a = (centre[:, None] + np.arange(-64, 64)).astype(np.uint32).view(np.float32).ravel()
        lam = np.repeat(lam, 128)
        a64 = a.astype(np.float64)

        def rnd(v):
            return round_array(v, FP32)

        t1 = rnd(1.0 * a64)
        t2 = rnd(t1 * a64)
        t3 = rnd(1.0 - t2)
        t4 = rnd(lam * t1)
        new = rnd(a64 + rnd(t4 * t3))
        change = np.abs(new - a64)
        delta = 1e-6
        # binary64 stops, binary32(delta_max) would go on
        stops = (change > np.float32(delta)) & (change <= delta)
        # binary64 goes on, a binary32 change would stop
        goes_on = (change > delta) & (change.astype(np.float32) <= np.float32(delta))
        assert stops.any() and goes_on.any()

        rows = np.flatnonzero(stops | goes_on)
        traj, steps, converged = iterate_values(
            a[rows], np.ones(rows.size, dtype=np.float32), lam[rows],
            Threshold(delta, max_steps=2), FP32)
        assert traj.dtype == np.float32
        assert np.array_equal(traj[:, 1], new[rows])
        assert np.array_equal(steps, np.where(stops[rows], 1, 2))
        assert converged[stops[rows]].all()


class TestFp16NearRangeLimit:
    @pytest.mark.parametrize("d", [4, 16, 100])
    def test_large_norms_and_overflowing_outputs(self, d):
        # ||y||^2 within a factor 2 of 65504, and gamma/beta that push some
        # outputs past the fp16 range
        rng = np.random.default_rng(d)
        x = rng.uniform(-1, 1, (30, d))
        y = x - x.mean(axis=1, keepdims=True)
        x *= np.sqrt(rng.uniform(33000, 62000, (30, 1)) / (y * y).sum(axis=1, keepdims=True))
        x = round_array(x, FP16)
        gamma = round_array(rng.uniform(-30000, 30000, d), FP16)
        beta = round_array(rng.uniform(-60000, 60000, d), FP16)
        z, _, m, _ = binary64_datapath(FP16, x, gamma, beta)
        assert (m > 32768).sum() >= 20 and (m <= 65504).all()
        assert np.isinf(z).any()
        assert_matches_binary64(FP16, x, gamma, beta)


class TestDefaultAffine:
    def test_negative_zero_y_hat_gives_positive_zero(self):
        # scale * (-2^-24) underflows to -0 in y_hat, which z = 1 * y_hat - 0
        # shows; the default z = 1 * y_hat + 0 is +0
        x = np.array([[128.0, -128.0, -2.0 ** -24, 2.0 ** -24]])
        y_hat = normalize_batch(FP16, x, beta=np.full(4, -0.0)).z
        assert y_hat[0, 2] == 0.0 and np.signbit(y_hat[0, 2])
        assert not np.signbit(normalize_batch(FP16, x).z[0, 2:]).any()
        assert_matches_binary64(FP16, x)
