import json

import numpy as np
import pytest

from iterl2norm.cli import main
from iterl2norm.fpformat import FP32, round_array
from iterl2norm.vecio import write_vectors


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_precision_ok(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        code, _, _ = run(capsys, "precision", "--format", "fp32", "--dims", "16",
                         "--num-vectors", "8", "--out", str(out))
        assert code == 0
        assert out.read_text().startswith("# iterl2norm")

    def test_usage_error_is_2(self, capsys):
        code, _, err = run(capsys, "compare-fisr", "--format", "fp16",
                           "--dims", "16", "--num-vectors", "4")
        assert code == 2
        assert "usage error" in err

    def test_latency_out_of_range_is_2(self, capsys):
        code, _, err = run(capsys, "latency", "--dims", "2048")
        assert code == 2

    def test_delta_max_rejected_for_batch_experiments(self, capsys):
        code, _, err = run(capsys, "precision", "--dims", "16",
                           "--num-vectors", "4", "--delta-max", "1e-4")
        assert code == 2
        assert "normalize" in err

    def test_data_error_is_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0,oops\n")
        code, _, err = run(capsys, "normalize", "--input", str(bad),
                           "--out", str(tmp_path / "o"))
        assert code == 3
        assert "data error" in err

    @pytest.mark.parametrize("flag", ["--input", "--gamma", "--beta"])
    def test_unreadable_file_is_3(self, capsys, tmp_path, flag):
        inp = tmp_path / "v.txt"
        inp.write_text("1.0,2.0\n")
        paths = {"--input": str(inp), flag: str(tmp_path / "missing.txt")}
        code, _, err = run(capsys, "normalize", *[a for kv in paths.items() for a in kv],
                           "--out", str(tmp_path / "o"))
        assert code == 3
        assert err.startswith(f"data error: {tmp_path / 'missing.txt'}: ")

    def test_range_error_is_4(self, capsys, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text(",".join(["60000", "-60000"] * 4) + "\n")
        code, _, err = run(capsys, "normalize", "--format", "fp16",
                           "--input", str(big), "--out", str(tmp_path / "o"))
        assert code == 4
        assert "range error" in err

    def test_diverging_threshold_row_is_not_converged(self, capsys, tmp_path):
        # lambda 0.3 on m = 42 drives a to infinity; the row stops there
        inp, out = tmp_path / "v.txt", tmp_path / "z.txt"
        inp.write_text("1,2,3,4,5,6,7,8\n")
        code, _, err = run(capsys, "normalize", "--input", str(inp), "--out", str(out),
                           "--lambda", "0.3", "--delta-max", "1e-5")
        assert code == 0 and err == ""
        meta = json.loads((tmp_path / "z.txt.meta.jsonl").read_text())
        traj = meta["a_trajectory"]
        assert meta["converged"] is False
        assert meta["steps"] == len(traj) - 1
        assert np.isfinite(traj[:-1]).all() and np.isinf(traj[-1])


class TestOutputs:
    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, "latency", "--dims", "64,1024")
        assert code == 0
        assert "64,116" in out and "1024,227" in out

    def test_byte_determinism_through_cli(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "precision", "--format", "bf16", "--dims", "24",
                             "--num-vectors", "10", "--seed", "3", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_convergence_steps_sweep(self, capsys):
        code, out, _ = run(capsys, "convergence", "--format", "fp32", "--dims", "32",
                           "--num-vectors", "6", "--steps", "1,2,3")
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("fp32,")]
        assert len(rows) == 3

    def test_stage_cost_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stage_costs": {"iteration_per_step": 0}}))
        code, out, _ = run(capsys, "latency", "--dims", "64", "--config", str(cfg))
        assert code == 0
        assert "64,56" in out  # 116 - 5*12

    def test_normalize_end_to_end(self, capsys, tmp_path):
        inp, out = tmp_path / "v.txt", tmp_path / "z.txt"
        rng = np.random.default_rng(0)
        write_vectors(inp, [round_array(rng.uniform(-1, 1, 12), FP32)], FP32, binary=False)
        code, msg, _ = run(capsys, "normalize", "--input", str(inp), "--out", str(out))
        assert code == 0
        assert "normalized 1 vectors" in msg
        assert out.exists() and (str(out) + ".meta.jsonl") in msg

    def test_lambda_override_flag(self, capsys):
        code, out, _ = run(capsys, "precision", "--format", "fp32", "--dims", "16",
                           "--num-vectors", "8", "--lambda", "0.02")
        assert code == 0
        assert "lambda=0.02" in out

    def test_repeatable_format_flag(self, capsys):
        code, out, _ = run(capsys, "precision", "--format", "fp32", "--format", "bf16",
                           "--dims", "16", "--num-vectors", "4")
        assert code == 0
        assert any(l.startswith("fp32,") for l in out.splitlines())
        assert any(l.startswith("bf16,") for l in out.splitlines())

    def test_fisr_config_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "fisr.json"
        cfg.write_text(json.dumps({"fisr": {"newton_iters": 0, "fp32_magic": "0x5f3759df"}}))
        kw = ["compare-fisr", "--format", "fp32", "--dims", "32", "--num-vectors", "6"]
        code, base, _ = run(capsys, *kw)
        assert code == 0
        code, raw_seed, _ = run(capsys, *kw, "--config", str(cfg))
        assert code == 0
        # dropping the Newton step degrades the FISR rows
        def fisr_avg(text):
            return float(next(l for l in text.splitlines()
                              if l.startswith("fp32,32,fisr")).split(",")[3])
        assert fisr_avg(raw_seed) > fisr_avg(base)
