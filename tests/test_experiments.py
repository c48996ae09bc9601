import json
import math
from pathlib import Path

import numpy as np
import pytest

from iterl2norm import __version__
from iterl2norm.errors import DataFormatError, RangeOverflowError, UsageError
from iterl2norm.baselines import reference_batch
from iterl2norm.experiments import (
    CONVERGENCE_STEPS,
    OPT_DIMS,
    PRECISION_DIMS,
    ErrorStats,
    ExperimentSpec,
    csv_text,
    run_compare_fisr,
    run_convergence,
    run_latency,
    run_normalize,
    run_precision,
    write_csv,
    _draw_inputs,
)
from iterl2norm.fpformat import BF16, FORMATS, FP16, FP32, round_array
from iterl2norm.norm_core import (
    FixedSteps,
    NormConfig,
    Threshold,
    layernorm_iterl2,
    normalize_batch,
)
from iterl2norm.vecio import read_vectors, write_vectors


def read_sidecar(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def small_spec(kind, **kw):
    defaults = dict(formats=("fp32",), dims=(32,), num_vectors=16, seed=7)
    defaults.update(kw)
    return ExperimentSpec(kind=kind, **defaults)


class TestExperimentSpec:
    def test_default_dims_by_kind(self):
        assert ExperimentSpec(kind="precision").dims == PRECISION_DIMS
        fisr = ExperimentSpec(kind="compare-fisr")
        assert (fisr.formats, fisr.dims, fisr.steps) == (("fp32", "bf16"), OPT_DIMS, (5,))
        assert ExperimentSpec(kind="convergence").dims == (1024,)
        assert ExperimentSpec(kind="convergence").steps == CONVERGENCE_STEPS
        # a step count that equals the default is not the sweep
        assert ExperimentSpec(kind="convergence", steps=(5,)).steps == (5,)

    def test_validation(self):
        with pytest.raises(UsageError):
            ExperimentSpec(kind="nope")
        with pytest.raises(UsageError):
            ExperimentSpec(kind="precision", formats=("fp12",))
        with pytest.raises(UsageError):
            ExperimentSpec(kind="precision", num_vectors=0)
        with pytest.raises(UsageError):
            ExperimentSpec(kind="precision", dims=(0,))
        with pytest.raises(UsageError):
            ExperimentSpec(kind="precision", steps=(3, 5))
        with pytest.raises(UsageError):
            ExperimentSpec(kind="convergence", dims=(256, 1024))
        # normalize is not an experiment: run_normalize takes its own config
        with pytest.raises(UsageError):
            ExperimentSpec(kind="normalize")


class TestErrorStats:
    def test_invariants(self):
        rng = np.random.default_rng(0)
        errs = np.abs(rng.standard_normal((50, 30))) * 1e-4
        st = ErrorStats.from_errors(errs)
        assert st.max_abs_err >= st.avg_abs_err >= 0
        assert (st.avg_abs_err, st.max_abs_err) == (errs.ravel().mean(), errs.max())

    def test_all_zero_errors(self):
        st = ErrorStats.from_errors(np.zeros(10))
        assert st.avg_abs_err == st.max_abs_err == 0.0


class TestDeterminism:
    @pytest.mark.parametrize("runner,kind", [
        (run_precision, "precision"),
        (run_convergence, "convergence"),
        (run_latency, "latency"),
    ])
    def test_byte_identical_reruns(self, runner, kind):
        spec = small_spec(kind, steps=(1, 2) if kind == "convergence" else (5,))
        a = csv_text(runner(spec))
        b = csv_text(runner(spec))
        assert a == b

    def test_seed_changes_output(self):
        a = csv_text(run_precision(small_spec("precision")))
        b = csv_text(run_precision(small_spec("precision", seed=8)))
        assert a != b


class TestPrecision:
    def test_rows_and_stats(self):
        spec = small_spec("precision", formats=("fp32", "fp16"), dims=(16, 32))
        res = run_precision(spec)
        assert res.columns == ("format", "d", "avg_abs_err", "max_abs_err")
        assert [r[:2] for r in res.rows] == [("fp32", 16), ("fp32", 32),
                                             ("fp16", 16), ("fp16", 32)]
        for fmt, d, avg, mx in res.rows:
            assert 0 <= avg <= mx

    def test_histogram_concentration_at_d384(self):
        # the worst cases are marginal: under 1% of elements err at or above
        # a tenth of the output scale (|z| peaks near sqrt(3))
        from iterl2norm.baselines import reference_batch
        from iterl2norm.fpformat import FORMATS
        from iterl2norm.norm_core import normalize_batch

        spec = ExperimentSpec(kind="precision", formats=("fp32", "fp16", "bf16"),
                              dims=(384,), num_vectors=300, seed=0)
        res = run_precision(spec)
        rng = np.random.default_rng(123)
        assert [r[0] for r in res.rows] == ["fp32", "fp16", "bf16"]
        for name, d, avg, mx in res.rows:
            assert d == 384 and avg <= mx
            fmt = FORMATS[name]
            x = round_array(rng.uniform(-1, 1, (300, 384)), fmt)
            errs = np.abs(normalize_batch(fmt, x).z - reference_batch(fmt, x))
            assert (errs >= 0.1 * math.sqrt(3.0)).mean() < 0.01
            # median well below the max: the bad cases are a thin tail
            assert np.median(errs) <= errs.max() / 10


class TestConvergence:
    def test_rows_per_step(self):
        spec = small_spec("convergence", dims=(64,), steps=(1, 3, 5))
        res = run_convergence(spec)
        assert [r[1] for r in res.rows] == [1, 3, 5]
        errs = [r[2] for r in res.rows]
        assert errs[2] <= errs[0]

    @pytest.mark.parametrize("lam", [None, 2.5])
    def test_one_solve_rows_equal_separate_runs(self, lam):
        # one iteration per format at the largest step count gives each
        # row what its own normalize_batch run gives; lambda = 2.5 diverges
        spec = small_spec("convergence", formats=("fp32", "fp16", "bf16"), dims=(48,),
                          steps=(3, 0, 1, 3), lambda_override=lam)
        want = []
        for name in spec.formats:
            fmt = FORMATS[name]
            x = _draw_inputs(spec, fmt, 48)
            ref = reference_batch(fmt, x)
            for steps in spec.steps:
                z = normalize_batch(fmt, x, config=NormConfig(FixedSteps(steps), lam)).z
                want.append((name, steps, repr(float(np.abs(z - ref).mean()))))
        got = [(name, steps, repr(err)) for name, steps, err in run_convergence(spec).rows]
        assert got == want
        if lam is not None:
            assert not all(math.isfinite(float(e)) for _, _, e in got)


class TestCompareFisr:
    def test_fp16_rejected(self):
        with pytest.raises(UsageError):
            run_compare_fisr(small_spec("compare-fisr", formats=("fp16",)))

    def test_paired_rows_and_notes(self):
        spec = small_spec("compare-fisr", formats=("fp32", "bf16"), dims=(48,))
        res = run_compare_fisr(spec)
        methods = [(r[0], r[2]) for r in res.rows]
        assert ("fp32", "iterl2norm") in methods and ("fp32", "fisr") in methods
        assert ("bf16", "iterl2norm") in methods and ("bf16", "fisr") in methods
        assert any("lambda_sensitivity" in n for n in res.notes)

    def test_d_one_degenerate(self):
        spec = small_spec("compare-fisr", formats=("fp32",), dims=(1,))
        res = run_compare_fisr(spec)
        for _, _, _, avg, mx in res.rows:
            assert avg == 0.0 and mx == 0.0


class TestLatencyRunner:
    def test_rows(self):
        res = run_latency(small_spec("latency", dims=(64, 1024)))
        assert res.rows[0][0] == 64 and res.rows[0][1] == 116
        assert res.rows[1][0] == 1024 and res.rows[1][1] == 227

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            run_latency(small_spec("latency", dims=(2048,)))


class TestCsv:
    @pytest.mark.parametrize("kind,runner", [
        ("precision", run_precision), ("convergence", run_convergence),
        ("compare-fisr", run_compare_fisr), ("latency", run_latency),
    ])
    def test_header_records_numpy_version(self, kind, runner):
        text = csv_text(runner(small_spec(kind, steps=(5,))))
        assert text.splitlines()[0] == f"# iterl2norm v{__version__} {kind} numpy={np.__version__}"

    def test_header_records_spec(self, tmp_path):
        spec = small_spec("precision")
        text = write_csv(run_precision(spec), tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_text() == text
        assert text.startswith("# iterl2norm v")
        assert "seed=7" in text and "rng=philox" in text
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == "format,d,avg_abs_err,max_abs_err"


class TestNormalize:
    def _write_text_vectors(self, path, vectors):
        write_vectors(path, [np.asarray(v, dtype=np.float64) for v in vectors],
                      FP32, binary=False)

    def test_text_roundtrip_with_sidecar(self, tmp_path):
        inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
        self._write_text_vectors(inp, [[1.0, 2.0, 3.0, 4.0], [0.5, -0.5]])
        summary = run_normalize(str(inp), str(out), fmt_name="fp32")
        assert summary.count == 2 and summary.out_path == str(out)
        vecs, fmt = read_vectors(out)
        assert fmt is None and len(vecs) == 2
        assert np.abs(vecs[0] - [-1.34164, -0.44721, 0.44721, 1.34164]).max() < 1e-3
        meta = read_sidecar(summary.sidecar_path)
        assert meta[0]["steps"] == 5
        assert len(meta[0]["a_trajectory"]) == 6
        assert meta[0]["m"] == 5.0

    def test_binary_roundtrip(self, tmp_path):
        inp, out = tmp_path / "in.bin", tmp_path / "out.bin"
        rng = np.random.default_rng(3)
        vecs = [round_array(rng.uniform(-1, 1, 8), FP16) for _ in range(3)]
        write_vectors(inp, vecs, FP16, binary=True)
        summary = run_normalize(str(inp), str(out), NormConfig(FixedSteps(2)))
        assert summary.count == 3
        got, fmt = read_vectors(out)
        assert fmt is FP16 or fmt.name == "fp16"
        assert all(len(v) == 8 for v in got)
        meta = read_sidecar(summary.sidecar_path)
        assert [m["steps"] for m in meta] == [2, 2, 2]

    @pytest.mark.parametrize("fmt,payload", [
        (FP32, np.array([1.0, -2.0, 0.1], dtype="<f4").tobytes()),
        (FP16, np.array([1.0, -2.0, 0.1], dtype="<f2").tobytes()),
        (BF16, bytes([0x80, 0x3F, 0x00, 0xC0, 0xCD, 0x3D])),
    ], ids=["fp32", "fp16", "bf16"])
    def test_binary_payload_bytes(self, tmp_path, fmt, payload):
        path = tmp_path / "v.bin"
        vec = round_array(np.array([1.0, -2.0, 0.1]), fmt)
        write_vectors(path, [vec], fmt, binary=True)
        assert path.read_bytes()[16:] == payload
        got, got_fmt = read_vectors(path)
        assert got_fmt is fmt and np.array_equal(got[0], vec)

    def test_param_file_of_another_format_is_rounded(self, tmp_path):
        # a bf16 input with an fp32 gamma file and a bf16 beta file: gamma is
        # rounded to bf16, the bf16 values are used as they are
        inp, gam, bet, out = (tmp_path / n for n in ("x.bin", "g.bin", "b.bin", "z.bin"))
        rng = np.random.default_rng(5)
        x = round_array(rng.uniform(-1, 1, (3, 16)), BF16)
        gamma = round_array(rng.uniform(0.5, 1.5, 16), FP32)
        beta = round_array(rng.uniform(-0.5, 0.5, 16), BF16)
        assert not np.array_equal(round_array(gamma, BF16), gamma)
        write_vectors(inp, list(x), BF16, binary=True)
        write_vectors(gam, [gamma], FP32, binary=True)
        write_vectors(bet, [beta], BF16, binary=True)
        run_normalize(str(inp), str(out), gamma_path=str(gam), beta_path=str(bet))
        got, _ = read_vectors(out)
        want = normalize_batch(BF16, x, round_array(gamma, BF16), beta).z
        assert np.array_equal(np.array(got), want)

    def test_binary_format_conflict(self, tmp_path):
        inp = tmp_path / "in.bin"
        write_vectors(inp, [np.ones(4)], FP16, binary=True)
        with pytest.raises(UsageError):
            run_normalize(str(inp), str(tmp_path / "o"), fmt_name="fp32")

    def test_threshold_stopping_recorded(self, tmp_path):
        inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
        self._write_text_vectors(inp, [[1.0, 2.0, 3.0, 4.0]])
        summary = run_normalize(str(inp), str(out), NormConfig(Threshold(1e-5)))
        meta = read_sidecar(summary.sidecar_path)
        assert meta[0]["converged"]
        assert meta[0]["steps"] >= 1

    def test_ragged_rows_match_single_vector_path(self, tmp_path):
        # rows of several lengths, shuffled, each with its own gamma
        inp, gam, out = tmp_path / "in.txt", tmp_path / "g.txt", tmp_path / "out.txt"
        rng = np.random.default_rng(17)
        dims = list(rng.permutation([5] * 4 + [16] * 5 + [33] * 3 + [64] * 2))
        vecs = [rng.uniform(-1, 1, d) * 2.0 ** rng.uniform(-4, 4) for d in dims]
        vecs[2] = np.full(dims[2], 0.5)
        gammas = [rng.uniform(0.5, 1.5, d) for d in dims]
        self._write_text_vectors(inp, vecs)
        self._write_text_vectors(gam, gammas)
        run_normalize(str(inp), str(out), NormConfig(Threshold(1e-3)), "bf16",
                      gamma_path=str(gam))
        got, _ = read_vectors(out)
        meta = read_sidecar(str(out) + ".meta.jsonl")
        config = NormConfig(stopping=Threshold(1e-3))
        for i, (x, g) in enumerate(zip(vecs, gammas)):
            want = layernorm_iterl2(BF16, round_array(x, BF16), round_array(g, BF16),
                                    config=config)
            assert np.array_equal(got[i], want.z[0])
            assert meta[i]["index"] == i and meta[i]["d"] == dims[i]
            assert (meta[i]["mean"], meta[i]["m"]) == (want.mean[0], want.m[0])
            assert meta[i]["a_trajectory"] == want.a_trajectory[0].tolist()
            assert meta[i]["steps"] == want.steps_taken == want.steps[0]
            assert meta[i]["converged"] == want.converged[0]
            assert len(meta[i]["a_trajectory"]) == meta[i]["steps"] + 1
        assert len({m["steps"] for m in meta}) > 2

    def test_gamma_length_mismatch(self, tmp_path):
        inp, gam = tmp_path / "in.txt", tmp_path / "g.txt"
        self._write_text_vectors(inp, [[1.0, 2.0, 3.0]])
        self._write_text_vectors(gam, [[1.0, 1.0]])
        with pytest.raises(DataFormatError):
            run_normalize(str(inp), str(tmp_path / "o"), gamma_path=str(gam))

    def test_malformed_text(self, tmp_path):
        inp = tmp_path / "in.txt"
        inp.write_text("1.0,zebra,3.0\n")
        with pytest.raises(DataFormatError):
            run_normalize(str(inp), str(tmp_path / "o"))

    def test_overflow_maps_to_range_error(self, tmp_path):
        inp = tmp_path / "in.txt"
        inp.write_text(",".join(["60000", "-60000"] * 8) + "\n")
        with pytest.raises(RangeOverflowError):
            run_normalize(str(inp), str(tmp_path / "o"), fmt_name="fp16")


class TestInjectionHook:
    def test_exact_a_injection_isolates_datapath_error(self):
        from iterl2norm.baselines import reference_batch
        from iterl2norm.norm_core import normalize_batch, NormConfig, FixedSteps
        rng = np.random.default_rng(5)
        x = round_array(rng.uniform(-1, 1, (64, 96)), FP32)
        ref = reference_batch(FP32, x)
        five = normalize_batch(FP32, x, config=NormConfig(stopping=FixedSteps(5)))
        m = five.m
        injected = normalize_batch(FP32, x, inject_a=1.0 / np.sqrt(m))
        err_inj = np.abs(injected.z - ref).mean()
        err_five = np.abs(five.z - ref).mean()
        assert 0 < err_inj < err_five
