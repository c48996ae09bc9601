"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Tolerances marked "sweep-derived" were established by independent
binary64/rational sweeps before the implementation was gated on them.
"""

import math

import numpy as np
import pytest

from iterl2norm.baselines import reference_batch
from iterl2norm.dynamics import simulate_vector_recursion
from iterl2norm.experiments import (
    OPT_DIMS,
    PRECISION_DIMS,
    ExperimentSpec,
    run_compare_fisr,
    run_convergence,
    run_precision,
)
from iterl2norm.fpformat import (
    BF16,
    FP16,
    FP32,
    FpScalar,
    bits_to_values,
    compose,
    decompose,
    emu_add,
    emu_mul,
    round_array,
    split_bits,
    values_to_bits,
)
from iterl2norm.latency import StageCosts, estimate_cycles
from iterl2norm.norm_core import (
    FixedSteps,
    NormConfig,
    init_a_values,
    normalize_batch,
    select_lambda_values,
)

from oracles import oracle_op_fast


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def normal_values(fmt) -> np.ndarray:
    """Every positive normal value of a 16-bit format."""
    es = np.arange(1, fmt.exp_mask, dtype=np.uint32)
    fs = np.arange(0, 1 << fmt.mant_bits, dtype=np.uint32)
    bits = (es[:, None] << np.uint32(fmt.mant_bits)) | fs[None, :]
    return bits_to_values(bits.ravel(), fmt)


def sampled_fp32_normals(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    e = rng.integers(1, 255, size=n, dtype=np.uint32)
    f = rng.integers(0, 1 << 23, size=n, dtype=np.uint32)
    return bits_to_values((e << np.uint32(23)) | f, FP32)


class TestCriterion1HeadlinePrecision:
    TARGETS = {"fp32": 2.23e-4, "fp16": 5.26e-4, "bf16": 3.07e-3}
    FACTOR = 5.0

    def test_pooled_average_error(self):
        spec = ExperimentSpec(kind="precision", formats=("fp32", "fp16", "bf16"),
                              dims=PRECISION_DIMS, num_vectors=1000, seed=0)
        res = run_precision(spec)
        details = []
        ok = True
        for name, target in self.TARGETS.items():
            per_d = [row[2] for row in res.rows if row[0] == name]
            pooled = float(np.mean(per_d))
            inside = target / self.FACTOR <= pooled <= target * self.FACTOR
            ok &= inside
            details.append(f"{name}={pooled:.3e} (target {target:.2e}, x{pooled / target:.2f})")
        report(1, "headline precision", ok, "; ".join(details))


class TestCriterion2InitializationBand:
    def _band(self, m, fmt):
        a0 = init_a_values(m, fmt)
        return a0 * np.sqrt(m)

    def test_band_exhaustive_and_sampled(self):
        worst_lo, worst_hi = math.inf, -math.inf
        violations = 0
        for fmt, m in (
            (FP16, normal_values(FP16)),
            (BF16, normal_values(BF16)),
            (FP32, sampled_fp32_normals(1_000_000)),
        ):
            ratio = self._band(m, fmt)
            violations += int(np.count_nonzero((ratio <= 0.7) | (ratio > 1.0)))
            # ratio == 1 exactly could only happen where the significand is 1
            eq = ratio == 1.0
            sig_one = np.frexp(m)[0] == 0.5
            violations += int(np.count_nonzero(eq & ~sig_one))
            worst_lo = min(worst_lo, float(ratio.min()))
            worst_hi = max(worst_hi, float(ratio.max()))
        report(2, "initialization band", violations == 0,
               f"0 violations; a0*sqrt(m) in [{worst_lo:.8f}, {worst_hi:.8f}]")


class TestCriterion3LambdaBound:
    # Sweep-exact worst case of (1 - m*a0^2) * e^(-2*m*5*lambda) with the
    # default rate: (1/2)e^-5 ~ 3.369e-3, attained as the significand of
    # m tends to 1.  Gate at the analytic ceiling 3.4e-3.
    TERM_CEILING = 3.4e-3
    WORST_CASE = 0.5 * math.exp(-5.0)

    def test_default_rate_clears_bound_and_term_decays(self):
        ok = True
        worst_term = 0.0
        for fmt, m in (
            (FP16, normal_values(FP16)),
            (BF16, normal_values(BF16)),
            (FP32, sampled_fp32_normals(1_000_000, seed=3)),
        ):
            lam = select_lambda_values(m)
            e = np.frexp(m)[1] - 1
            bound = 0.345 * np.ldexp(1.0, -e)
            ok &= bool((lam > bound).all())
            a0 = init_a_values(m, fmt)
            term = (1.0 - m * a0 * a0) * np.exp(-2.0 * m * 5 * lam)
            worst_term = max(worst_term, float(term.max()))
        v = sampled_fp32_normals(1000, seed=11)
        assert (select_lambda_values(v) > 0.345 * np.ldexp(1.0, -(np.frexp(v)[1] - 1))).all()
        ok &= worst_term <= self.TERM_CEILING
        ok &= abs(worst_term - self.WORST_CASE) < 1e-4
        report(3, "update-rate bound", ok,
               f"lambda > 0.345*2^-e everywhere; worst exp term {worst_term:.4e} "
               f"<= {self.TERM_CEILING:.1e}")


class TestCriterion4ConvergenceTrend:
    def test_error_vs_steps(self):
        spec = ExperimentSpec(kind="convergence", formats=("fp32", "fp16", "bf16"),
                              dims=(1024,), num_vectors=1000, seed=0,
                              steps=tuple(range(1, 11)))
        res = run_convergence(spec)
        errs = {name: [r[2] for r in res.rows if r[0] == name]
                for name in ("fp32", "fp16", "bf16")}
        ok = True
        details = []
        for name, curve in errs.items():
            # nonincreasing from 3 to 10 steps, within a 10% plateau
            # limit-cycle allowance (the format-quantized iteration
            # alternates between adjacent representable a values)
            mono = all(curve[n + 1] <= curve[n] * 1.10 + 1e-12 for n in range(2, 9))
            ok &= mono
            if not mono:
                details.append(f"{name} not monotone: {curve[2:]}")
        for name in ("fp16", "bf16"):
            change = abs(errs[name][9] - errs[name][4]) / errs[name][4]
            ok &= change < 0.10
            details.append(f"{name} plateau drift 5->10: {change:.1%}")
        fp32_improves = errs["fp32"][7] < errs["fp32"][4]
        ok &= fp32_improves
        details.append(f"fp32 err(8)={errs['fp32'][7]:.2e} < err(5)={errs['fp32'][4]:.2e}")
        report(4, "convergence trend", ok, "; ".join(details))


class TestCriterion5VectorRecursionBasin:
    def test_both_basins(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for trial in range(100):
            d = int(rng.integers(2, 9))
            y = rng.normal(size=d)
            yt0 = rng.normal(size=d)
            k0 = float(y @ yt0)
            if k0 == 0.0:
                yt0 = yt0 + 0.1 * y
                k0 = float(y @ yt0)
            m = float(y @ y)
            out = simulate_vector_recursion(y, yt0, lam=0.2 / m, steps=800)
            target = math.copysign(1.0, k0) * y / math.sqrt(m)
            worst = max(worst, float(np.abs(out - target).max()))
        report(5, "vector recursion basin", worst <= 1e-6,
               f"max deviation {worst:.2e} over 100 vectors (d <= 8)")


class TestCriterion6FisrComparison:
    BOLD_FP32_DIMS = (768, 1024, 2560, 5120, 9216, 12288)

    def test_paired_table_and_direction(self):
        spec = ExperimentSpec(kind="compare-fisr", formats=("fp32", "bf16"),
                              dims=OPT_DIMS, num_vectors=300, seed=0)
        res = run_compare_fisr(spec)
        rows = {(r[0], r[1], r[2]): r for r in res.rows}
        emitted = all((f, d, mth) in rows
                      for f in ("fp32", "bf16") for d in OPT_DIMS
                      for mth in ("iterl2norm", "fisr"))
        wins = sum(
            rows[("fp32", d, "iterl2norm")][3] < rows[("fp32", d, "fisr")][3]
            for d in self.BOLD_FP32_DIMS)
        majority = wins > len(self.BOLD_FP32_DIMS) / 2
        documented = any("lambda_sensitivity" in n for n in res.notes)
        ok = emitted and (majority or documented)
        report(6, "FISR comparison", ok,
               f"all 36 paired rows emitted; fp32 wins {wins}/{len(self.BOLD_FP32_DIMS)} "
               f"reference lengths; rate sensitivity documented={documented}")


class TestCriterion7LatencyModel:
    def test_endpoints_and_shape(self):
        ok = estimate_cycles(64, 5).total == 116
        ok &= estimate_cycles(1024, 5).total == 227
        prev = None
        for d in range(1, 1025):
            t = estimate_cycles(d, 5).total
            if prev is not None:
                ok &= t >= prev
                if -(-d // 64) == -(-(d - 1) // 64):
                    ok &= t == prev
            prev = t
        c = StageCosts()
        ok &= (estimate_cycles(512, 9).total - estimate_cycles(512, 5).total
               == 4 * c.iteration_per_step)
        report(7, "latency endpoints and shape", ok,
               "116 @ d=64, 227 @ d=1024; piecewise-constant per chunk, monotone, "
               "linear in steps")


class TestCriterion8FixedPointInjection:
    def test_ulp_distance_with_exact_scale(self):
        # Tolerance derived from the pre-gate sweep: per-element distance is
        # bounded by 4 ulp at the element's own scale plus 4 ulp at the
        # vector's output scale (mean-shift rounding is shared by every
        # element, so elements near cancellation carry an absolute, not
        # relative, error floor).
        d = 256
        worst_rel = 0.0
        violations = 0
        total = 0
        for chunk_seed in range(4):
            rng = np.random.default_rng(800 + chunk_seed)
            x = round_array(rng.uniform(-1, 1, (2500, d)), FP32)
            out = normalize_batch(FP32, x, inject_a=1.0 / np.sqrt(
                normalize_batch(FP32, x, config=NormConfig(stopping=FixedSteps(0))).m))
            ref = reference_batch(FP32, x)
            f32 = ref.astype(np.float32)
            ulp_el = (np.nextafter(np.abs(f32), np.float32(np.inf)) - np.abs(f32)).astype(np.float64)
            vec_scale = np.abs(f32).max(axis=1, keepdims=True)
            ulp_vec = (np.nextafter(vec_scale, np.float32(np.inf)) - vec_scale).astype(np.float64)
            tol = 4.0 * ulp_el + 4.0 * ulp_vec
            diff = np.abs(out.z - ref)
            violations += int(np.count_nonzero(diff > tol))
            total += diff.size
            with np.errstate(invalid="ignore", divide="ignore"):
                rel = np.where(ulp_el > 0, diff / ulp_el, 0.0)
            sel = np.abs(ref) > 0.01
            worst_rel = max(worst_rel, float(rel[sel].max()))
        report(8, "fixed-point injection ulp", violations == 0,
               f"0/{total} elements outside 4 ulp(el) + 4 ulp(scale); "
               f"worst own-scale distance on non-cancelled elements {worst_rel:.2f} ulp")


class TestCriterion9FormatGroundTruth:
    def test_roundtrip_exhaustive(self):
        mismatches = 0
        for fmt in (FP16, BF16):
            for bits in range(1 << 16):
                s, e, f = split_bits(bits, fmt)
                if compose(s, e, f, fmt).bits != bits:
                    mismatches += 1
                if e != fmt.exp_mask:
                    if decompose(FpScalar(bits, fmt)) != (s, e, f):
                        mismatches += 1
        report(9, "decompose/compose round-trip", mismatches == 0,
               "all 2^16 fp16 and 2^16 bf16 patterns")

    # Fixed per-format seeds: str hashes change with PYTHONHASHSEED.
    PAIR_SEEDS = {"fp32": 9032, "fp16": 9016, "bf16": 9116}

    @pytest.mark.parametrize("fmt", [FP32, FP16, BF16], ids=lambda f: f.name)
    def test_emulated_ops_vs_rational_oracle(self, fmt):
        rng = np.random.default_rng(self.PAIR_SEEDS[fmt.name])
        n_pairs = 1_000_000
        raw = rng.integers(0, 1 << fmt.total_bits, size=int(2.3 * 2 * n_pairs), dtype=np.int64)
        finite = ((raw >> fmt.mant_bits) & fmt.exp_mask) != fmt.exp_mask
        pairs = raw[finite][: 2 * n_pairs].reshape(-1, 2)
        va = bits_to_values(pairs[:, 0], fmt)
        vb = bits_to_values(pairs[:, 1], fmt)
        # the datapath's binary32 carry: a native binary32 op, then the
        # float32 branch of round_array
        a32, b32 = va.astype(np.float32), vb.astype(np.float32)
        with np.errstate(over="ignore"):
            carried = {"add": round_array(a32 + b32, fmt), "mul": round_array(a32 * b32, fmt)}
        mismatches = 0
        for op, res_vals in (("add", round_array(va + vb, fmt)),
                             ("mul", round_array(va * vb, fmt))):
            got = values_to_bits(res_vals, fmt).astype(np.int64)
            assert carried[op].dtype == np.float32
            mismatches += int(np.count_nonzero(values_to_bits(carried[op], fmt) != got))
            for i in range(len(pairs)):
                want = oracle_op_fast(int(pairs[i, 0]), int(pairs[i, 1]), op, fmt)
                if got[i] != want:
                    mismatches += 1
        # the scalar op wrappers ride the same rounding; tie a subsample
        for i in range(0, len(pairs), len(pairs) // 512):
            a = FpScalar(int(pairs[i, 0]), fmt)
            b = FpScalar(int(pairs[i, 1]), fmt)
            assert emu_add(a, b).bits == oracle_op_fast(a.bits, b.bits, "add", fmt)
            assert emu_mul(a, b).bits == oracle_op_fast(a.bits, b.bits, "mul", fmt)
        report(9, f"emulated ops vs exact oracle [{fmt.name}]", mismatches == 0,
               f"{n_pairs} random operand pairs, add and mul, binary64 and binary32 "
               "carry, 0 mismatches")
