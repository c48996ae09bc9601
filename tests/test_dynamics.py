import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterl2norm.norm_core import (
    FixedSteps,
    init_a_values,
    iterate_values,
    select_lambda_values,
)

from dynamics import (
    DynamicsParams,
    analytic_a,
    exponential_term,
    k_fixed_points,
    lambda_lower_bound,
    simulate_vector_recursion,
    steady_norm_sq,
)


class TestFixedPoints:
    def test_unit_norm(self):
        assert k_fixed_points(1.0, 1.0) == (0.0, 1.0, -1.0)

    def test_sqrt_five(self):
        u, p, n = k_fixed_points(math.sqrt(5.0))
        assert u == 0.0
        assert abs(p - math.sqrt(5.0)) < 1e-15
        assert n == -p

    def test_alpha_four(self):
        assert k_fixed_points(1.0, 4.0) == (0.0, 0.5, -0.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            k_fixed_points(0.0)
        with pytest.raises(ValueError):
            k_fixed_points(1.0, -2.0)


class TestSteadyNormSq:
    @pytest.mark.parametrize("alpha,want", [(1.0, 1.0), (4.0, 0.25), (0.25, 4.0)])
    def test_reciprocal(self, alpha, want):
        assert steady_norm_sq(alpha) == want

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            steady_norm_sq(0.0)


class TestAnalyticA:
    @given(m=st.floats(1e-3, 1e3), a0_ratio=st.floats(0.1, 1.5), lam=st.floats(1e-4, 1.0))
    @settings(max_examples=200)
    def test_n_zero_is_a0(self, m, a0_ratio, lam):
        a0 = a0_ratio / math.sqrt(m)
        params = DynamicsParams(norm_sq=m, lam=lam, a0=a0)
        assert analytic_a(params, 0) == pytest.approx(a0, rel=1e-12)

    def test_large_n_limit(self):
        params = DynamicsParams(norm_sq=5.0, lam=0.125, a0=2.0 ** -1.5)
        assert analytic_a(params, 500) == pytest.approx(5.0 ** -0.5, rel=1e-14)

    def test_m_five_worked_example(self):
        # direct evaluation of the closed form; the exponential term is
        # e^-6.25 ~ 1.93e-3
        params = DynamicsParams(norm_sq=5.0, lam=0.125, a0=2.0 ** -1.5)
        val = analytic_a(params, 5)
        assert val == pytest.approx(0.44695482267479125, rel=1e-12)
        bare_exp = math.exp(-2.0 * 5.0 * 5 * 0.125)
        assert bare_exp == pytest.approx(1.930454e-3, rel=1e-6)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            analytic_a(DynamicsParams(norm_sq=1.0, lam=0.1, a0=1.0), -1)

    @given(m=st.floats(0.01, 100.0), lam=st.floats(1e-3, 0.5),
           n=st.integers(0, 50), a0_ratio=st.floats(0.05, 3.0))
    @settings(max_examples=300)
    def test_bracket_always_positive_in_forward_time(self, m, lam, n, a0_ratio):
        # (1-X)e^-T + X = e^-T + X(1 - e^-T) > 0 for every X >= 0, T >= 0,
        # so the out-of-basin guard can never fire for n >= 0
        params = DynamicsParams(norm_sq=m, lam=lam, a0=a0_ratio / math.sqrt(m))
        assert analytic_a(params, n) > 0

    def test_monotone_nondecreasing_from_below(self):
        params = DynamicsParams(norm_sq=3.0, lam=0.1, a0=0.25)  # m*a0^2 < 1
        vals = [analytic_a(params, n) for n in range(30)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 3.0 ** -0.5 + 1e-9


class TestLambdaLowerBound:
    def test_reference_coefficient(self):
        assert lambda_lower_bound(0, 1e-3, 5) == pytest.approx(0.34539, abs=1e-5)

    def test_scales_with_exponent(self):
        assert lambda_lower_bound(2, 1e-3, 5) == pytest.approx(0.086347, abs=1e-5)

    def test_unit_log_case(self):
        # -ln(delta_c) = 1, n_c = 1: coefficient 1/2 times the binade factor 1/2
        assert lambda_lower_bound(0, math.exp(-1.0), 1) == pytest.approx(0.25, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_lower_bound(0, delta_c=1.5)
        with pytest.raises(ValueError):
            lambda_lower_bound(0, n_c=0)

    def test_default_lambda_clears_bound_everywhere(self):
        for e in range(-126, 128):
            m = math.ldexp(1.7, e)
            assert select_lambda_values(np.array([m]))[0] > lambda_lower_bound(e)


class TestExponentialTerm:
    def test_unrelaxed_bound_meets_delta_c(self):
        # with lambda >= -ln(delta_c)/(2 m n_c) the bare exponential is
        # <= delta_c by construction, for every m
        delta_c, n_c = 1e-3, 5
        for m in np.exp(np.random.default_rng(1).uniform(-80, 80, 500)):
            lam = -math.log(delta_c) / (2.0 * m * n_c)
            assert math.exp(-2.0 * m * n_c * lam) <= delta_c * (1 + 1e-12)

    def test_relaxed_bound_worst_case(self):
        # the exponent-relaxed bound only guarantees delta_c at the top of
        # the binade; the sweep worst case (significand -> 1) is
        # 0.5 * e^(-2*5*0.345) ~ 1.58e-2
        worst = 0.0
        for sig in np.linspace(1.0, 2.0, 4001)[:-1]:
            m = float(sig)  # e = 0 binade is representative: the term only
            # depends on the significand
            lam = lambda_lower_bound(0)
            a0 = float(init_a_values(np.array([m]), None)[0])
            term = exponential_term(DynamicsParams(norm_sq=m, lam=lam, a0=a0), 5)
            worst = max(worst, term)
        assert worst <= 1.6e-2
        assert worst == pytest.approx(0.5 * math.exp(-2 * 5 * lambda_lower_bound(0)), rel=1e-3)


class TestDiscreteVsContinuous:
    def test_richardson_first_order(self):
        m, a0 = 5.0, 2.0 ** -1.5
        errs = []
        for k in range(3):
            lam, n = 0.05 / 2 ** k, 8 * 2 ** k
            eu = iterate_values(np.array([a0]), np.array([m]), np.array([lam]),
                                FixedSteps(n), None)[0][0, -1]
            an = analytic_a(DynamicsParams(norm_sq=m, lam=lam, a0=a0), n)
            errs.append(abs(eu - an))
        assert errs[1] < 0.7 * errs[0]
        assert errs[2] < 0.7 * errs[1]


class TestVectorRecursion:
    def test_positive_basin(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            d = rng.integers(2, 9)
            y = rng.normal(size=d)
            yt0 = rng.normal(size=d)
            if float(y @ yt0) == 0.0:
                continue
            m = float(y @ y)
            lam = 0.05 / m
            target = y / np.linalg.norm(y)
            out = simulate_vector_recursion(y, yt0, lam, 4000)
            sign = 1.0 if float(y @ yt0) > 0 else -1.0
            assert np.abs(out - sign * target).max() < 1e-8

    def test_collinear_start_stays_collinear(self):
        y = np.array([3.0, -4.0])
        out = simulate_vector_recursion(y, 0.01 * y, 0.01, 2000)
        target = y / 5.0
        assert np.abs(out - target).max() < 1e-10
