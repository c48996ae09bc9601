import contextlib
import io
import json
import os
import stat
import sys

import numpy as np
import pytest

from iterl2norm import cli
from iterl2norm.cli import main
from iterl2norm.experiments import ExperimentSpec, csv_text, run_latency
from iterl2norm.fpformat import BF16, FP16, FP32, round_array
from iterl2norm.vecio import write_vectors


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse(parser, argv):
    """(Namespace or None, exit code or None, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    args = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return args, code, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def one_subcommand_parses_as_all(monkeypatch):
    """Every command line `main` parses in these tests, valid or not, gives
    the same Namespace, exit code and output from the parser `main` builds
    as from the parser of every subcommand."""
    build = cli.build_parser

    def checked_build(command=None):
        parser = build(command)

        def parse_args(argv):
            got = _parse(build(command), argv)
            assert got == _parse(build(), argv)
            args, code, out, err = got
            print(out, end="")
            print(err, end="", file=sys.stderr)
            if code is not None:
                raise SystemExit(code)
            return args

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli, "build_parser", checked_build)


def strict_json(text):
    """json.loads that rejects the non-JSON tokens NaN and +-Infinity."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


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
        assert "unrecognized arguments: --delta-max" in err

    @pytest.mark.parametrize("argv", [
        ["normalize", "--seed", "9"],
        ["normalize", "--dims", "7"],
        ["normalize", "--num-vectors", "3"],
        ["normalize", "--config", "c.json"],
        ["normalize", "--steps", "2", "--delta-max", "1e-5"],
        ["normalize", "--steps", "5", "--delta-max", "1e-5"],
        ["normalize", "--steps", "2,3"],
        ["precision", "--config", "c.json"],
        ["precision", "--delta-max", "1e-5"],
        ["convergence", "--config", "c.json"],
        ["convergence", "--delta-max", "1e-5"],
        ["latency", "--num-vectors", "3"],
        ["latency", "--lambda", "0.3"],
        ["latency", "--format", "fp32"],
        ["compare-fisr", "--delta-max", "1e-5"],
        ["precision", "--format", "fp8"],
    ], ids=lambda a: "_".join(a).replace("--", ""))
    def test_unread_flag_is_2(self, capsys, tmp_path, argv):
        # every flag a subcommand accepts is read; the rest are usage errors
        inp, out = tmp_path / "v.txt", tmp_path / "z.txt"
        inp.write_text("1,2,3,4\n")
        if argv[0] == "normalize":
            argv = argv + ["--input", str(inp), "--out", str(out)]
        code, _, err = run(capsys, *argv)
        assert code == 2 and "error:" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["precision", "--dims", ""],
        ["precision", "--dims", ","],
        ["convergence", "--steps", ","],
        ["latency", "--steps", ""],
    ], ids=lambda a: "_".join(a).replace("--", ""))
    def test_empty_int_list_is_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"argument {argv[1]}: expected a comma-separated list of integers" in err

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["precison"], ["-h", "precision"], ["precision", "-h"],
        ["normalize", "--help"], ["latency", "--bogus"], ["--", "latency"],
    ], ids=lambda a: "_".join(a).replace("-", "") or "empty")
    def test_help_and_unknown_command(self, capsys, argv):
        # parsed by both parsers in the autouse fixture; help exits 0, the
        # rest are usage errors
        code, out, err = run(capsys, *argv)
        help_asked = any(a in ("-h", "--help") for a in argv)
        assert code == (0 if help_asked else 2)
        assert (out if help_asked else err).startswith("usage: iterl2norm")
        if argv in ([], ["-h"], ["precison"]):
            assert "{precision,convergence,compare-fisr,latency,normalize}" in out + err

    def test_normalize_needs_out(self, capsys, tmp_path):
        inp = tmp_path / "v.txt"
        inp.write_text("1,2,3,4\n")
        code, _, err = run(capsys, "normalize", "--input", str(inp))
        assert code == 2 and "--out" in err

    @pytest.mark.parametrize("cfg,key", [
        ({"stage_cost": {"control_fixed": 30}}, "stage_cost"),
        ({"control_fixed": 30}, "control_fixed"),
        ({"fisr": {"newton_iter": 0}}, "newton_iter"),
        ({"stage_costs": {"warp_drive": 1}}, "warp_drive"),
        # no stage reads a block latency: iteration_per_step holds the budget
        ({"stage_costs": {"mul_latency": 50}}, "mul_latency"),
        ({"stage_costs": {"add_latency": 9}}, "add_latency"),
        # an unread key is a usage error whatever its value
        ({"stage_costs": {"warp_drive": 1.5}}, "warp_drive"),
    ], ids=["top-level", "bare-mapping", "fisr", "stage-cost", "mul-latency", "add-latency",
            "stage-cost-float"])
    @pytest.mark.parametrize("command", ["latency", "compare-fisr"])
    def test_unread_config_key_is_2(self, capsys, tmp_path, cfg, key, command):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, command, "--dims", "64", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and repr(key) in err

    def test_data_error_is_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0,oops\n")
        code, _, err = run(capsys, "normalize", "--input", str(bad),
                           "--out", str(tmp_path / "o"))
        assert code == 3
        assert "data error" in err

    def test_lone_carriage_return_ends_a_line(self, capsys, tmp_path):
        inp = tmp_path / "v.txt"
        inp.write_bytes(b"1,2\r,3,4\n")
        code, _, err = run(capsys, "normalize", "--input", str(inp),
                           "--out", str(tmp_path / "o"))
        assert (code, err) == (3, f"data error: {inp}:2: could not convert string to float: ''\n")

    @pytest.mark.parametrize("flag", ["--input", "--gamma", "--beta"])
    def test_unreadable_file_is_3(self, capsys, tmp_path, flag):
        inp = tmp_path / "v.txt"
        inp.write_text("1.0,2.0\n")
        paths = {"--input": str(inp), flag: str(tmp_path / "missing.txt")}
        code, _, err = run(capsys, "normalize", *[a for kv in paths.items() for a in kv],
                           "--out", str(tmp_path / "o"))
        assert code == 3
        assert err.startswith(f"data error: {tmp_path / 'missing.txt'}: ")

    @pytest.mark.parametrize("flag", ["--input", "--gamma", "--beta", "--config"])
    def test_non_utf8_file_is_3(self, capsys, tmp_path, flag):
        # "1,2" behind the byte 0xff, which starts no UTF-8 sequence
        bad, inp = tmp_path / "bad.txt", tmp_path / "v.txt"
        bad.write_bytes(b"\xff1,2\n")
        inp.write_text("1.0,2.0\n")
        if flag == "--config":
            argv = ["latency", "--dims", "64", "--config", str(bad)]
        else:
            paths = {"--input": str(inp), flag: str(bad)}
            argv = ["normalize", *[a for kv in paths.items() for a in kv],
                    "--out", str(tmp_path / "o")]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("data error: ") and f"{bad}: " in err

    @pytest.mark.parametrize("fmt", [FP32, FP16, BF16], ids=["fp32", "fp16", "bf16"])
    def test_truncated_binary_payload_is_3(self, capsys, tmp_path, fmt):
        inp = tmp_path / "v.bin"
        write_vectors(inp, [np.ones(4), np.zeros(4)], fmt, binary=True)
        inp.write_bytes(inp.read_bytes()[:-1])
        code, _, err = run(capsys, "normalize", "--input", str(inp),
                           "--out", str(tmp_path / "o"))
        assert code == 3
        assert err.startswith("data error: ") and "payload holds" in err

    @pytest.mark.parametrize("cfg", [
        {"fisr": {"fp32_magic": "zz"}},
        {"fisr": {"newton_iters": "two"}},
        {"fisr": []},
        {"stage_costs": [1]},
        # a value that is not an integer is not truncated, and true is not 1
        {"fisr": {"newton_iters": 2.7}},
        {"fisr": {"fp32_magic": 1597463007.9}},
        {"fisr": {"newton_iters": True}},
        {"fisr": {"bf16_magic": None}},
        {"stage_costs": {"control_fixed": True}},
        {"stage_costs": {"control_fixed": 30.0}},
        {"stage_costs": {"iteration_per_step": "12"}},
    ], ids=["magic", "newton_iters", "fisr-list", "stage_costs-list", "newton-float",
            "magic-float", "newton-true", "magic-null", "cost-true", "cost-float",
            "cost-string"])
    def test_malformed_config_is_3(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "compare-fisr", "--format", "fp32", "--dims", "16",
                             "--num-vectors", "4", "--config", str(path))
        assert (code, out) == (3, "")
        assert err.startswith(f"data error: {path}: ")
        section = next(iter(cfg))
        if isinstance(cfg[section], dict):  # the message names the key
            assert f"{section}.{next(iter(cfg[section]))} " in err

    @pytest.mark.parametrize("cfg", [
        {"fisr": {"newton_iters": -1}},
        {"fisr": {"fp32_magic": 2 ** 32}},
        {"stage_costs": {"control_fixed": -1}},
    ], ids=["newton-negative", "magic-too-large", "cost-negative"])
    def test_out_of_range_config_is_2(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "compare-fisr", "--format", "fp32", "--dims", "16",
                             "--num-vectors", "4", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ")

    @pytest.mark.parametrize("command,where", [
        ("normalize", "missing-dir"), ("normalize", "directory"), ("normalize", "sidecar-dir"),
        ("precision", "missing-dir"), ("precision", "directory")])
    def test_unwritable_out_is_3(self, capsys, tmp_path, where, command):
        inp = tmp_path / "v.txt"
        inp.write_text("1.0,2.0,4.0\n")
        dest = tmp_path / "missing" / "z.txt" if where == "missing-dir" else tmp_path
        unwritable = dest
        if where == "sidecar-dir":
            # only the sidecar cannot be written: the output goes too
            dest, unwritable = tmp_path / "z.txt", tmp_path / "z.txt.meta.jsonl"
            unwritable.mkdir()
        argv = (["normalize", "--input", str(inp)] if command == "normalize" else
                ["precision", "--format", "fp32", "--dims", "16", "--num-vectors", "4"])
        code, out, err = run(capsys, *argv, "--out", str(dest))
        strerror = "No such file or directory" if where == "missing-dir" else "Is a directory"
        assert (code, out, err) == (3, "", f"data error: cannot write {unwritable}: {strerror}\n")
        if where == "sidecar-dir":
            assert not dest.exists()

    @pytest.mark.parametrize("command", ["normalize", "precision"])
    def test_infinite_lambda_is_2(self, capsys, tmp_path, command):
        inp, dest = tmp_path / "v.txt", tmp_path / "z.txt"
        inp.write_text("1.0,2.0,4.0\n")
        argv = (["normalize", "--input", str(inp)] if command == "normalize" else
                ["precision", "--format", "fp32", "--dims", "16", "--num-vectors", "4"])
        code, out, err = run(capsys, *argv, "--lambda", "inf", "--out", str(dest))
        assert (code, out) == (2, "")
        assert err == "usage error: lambda override must be positive and finite\n"
        assert not dest.exists()

    def test_range_error_is_4(self, capsys, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text(",".join(["60000", "-60000"] * 4) + "\n")
        code, _, err = run(capsys, "normalize", "--format", "fp16",
                           "--input", str(big), "--out", str(tmp_path / "o"))
        assert code == 4
        assert "range error" in err

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_3(self, capsys, tmp_path, token):
        inp, out = tmp_path / "v.txt", tmp_path / "z.txt"
        # rows 1 (d=2) and 2 (d=3) are bad; the d=3 batch comes first
        inp.write_text(f"1,2,3\n4,{token}\n1,{token},2\n{token},0,0\n")
        code, _, err = run(capsys, "normalize", "--input", str(inp), "--out", str(out))
        assert (code, err) == (3, "data error: vector 1: non-finite value\n")
        assert not out.exists()

    def test_non_finite_binary_value_is_3(self, capsys, tmp_path):
        inp = tmp_path / "v.bin"
        write_vectors(inp, [np.ones(4), np.array([1.0, np.nan, 0.0, 2.0])], BF16, binary=True)
        code, _, err = run(capsys, "normalize", "--input", str(inp), "--out", str(tmp_path / "o"))
        assert (code, err) == (3, "data error: vector 1: non-finite value\n")

    def test_overflow_names_first_file_row(self, capsys, tmp_path):
        # rows 1 (d=3) and 2 (d=4) overflow fp16; the d=4 batch comes first
        inp, out = tmp_path / "v.txt", tmp_path / "z.txt"
        inp.write_text("1,2,3,4\n300,-300,1\n300,-300,1,2\n1,2,3\n")
        code, _, err = run(capsys, "normalize", "--format", "fp16", "--input", str(inp),
                           "--out", str(out))
        assert (code, err) == (4, "range error: vector 1: squared norm overflowed fp16\n")
        assert not out.exists()

    @pytest.mark.parametrize("row,message", [
        ("1,2,3,70000", "value out of range for fp16"),
        ("300,-300,1,2", "squared norm overflowed fp16"),
    ], ids=["element", "squared-norm"])
    def test_range_error_names_its_cause(self, capsys, tmp_path, row, message):
        # 70000 is finite but rounds to infinity in fp16; 300^2 + 300^2 is
        # in range only before the squared norm
        inp, out = tmp_path / "v.txt", tmp_path / "z.txt"
        inp.write_text(f"1,2,3,4\n{row}\n")
        code, _, err = run(capsys, "normalize", "--format", "fp16", "--input", str(inp),
                           "--out", str(out))
        assert (code, err) == (4, f"range error: vector 1: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("token", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--gamma", "--beta"])
    def test_non_finite_param_is_3(self, capsys, tmp_path, flag, token):
        inp, par, out = tmp_path / "v.txt", tmp_path / "p.txt", tmp_path / "z.txt"
        inp.write_text("1,2,3,4\n")
        par.write_text(f"1,{token},1,1\n")
        code, _, err = run(capsys, "normalize", "--input", str(inp), flag, str(par),
                           "--out", str(out))
        assert (code, err) == (3, f"data error: {par}: vector 0: non-finite value\n")
        assert not out.exists()

    def test_param_out_of_range_is_3(self, capsys, tmp_path):
        # finite in the file, infinite once rounded to fp16; one vector per row
        inp, par, out = tmp_path / "v.txt", tmp_path / "g.txt", tmp_path / "z.txt"
        inp.write_text("1,2,3,4\n5,6,7,9\n")
        par.write_text("1,1,1,1\n1,1,70000,1\n")
        code, _, err = run(capsys, "normalize", "--format", "fp16", "--input", str(inp),
                           "--gamma", str(par), "--out", str(out))
        assert (code, err) == (3, f"data error: {par}: vector 1: non-finite value\n")
        assert not out.exists()

    def test_diverging_threshold_row_is_not_converged(self, capsys, tmp_path):
        # lambda 0.3 on m = 42 drives a to infinity; the row stops there
        inp, out = tmp_path / "v.txt", tmp_path / "z.txt"
        inp.write_text("1,2,3,4,5,6,7,8\n")
        code, _, err = run(capsys, "normalize", "--input", str(inp), "--out", str(out),
                           "--lambda", "0.3", "--delta-max", "1e-5")
        assert code == 0 and err == ""
        meta = strict_json((tmp_path / "z.txt.meta.jsonl").read_text())
        traj = meta["a_trajectory"]
        assert meta["converged"] is False
        assert meta["steps"] == len(traj) - 1
        assert np.isfinite(traj[:-1]).all() and traj[-1] is None

    def test_diverging_fixed_steps_row_is_not_converged(self, capsys, tmp_path):
        # the same row under --steps 8 ends with a NaN `a` and NaN outputs
        inp, out = tmp_path / "v.txt", tmp_path / "z.txt"
        inp.write_text("1,2,3,4,5,6,7,8\n")
        code, _, err = run(capsys, "normalize", "--input", str(inp), "--out", str(out),
                           "--lambda", "0.3", "--steps", "8")
        assert code == 0 and err == ""
        meta = strict_json((tmp_path / "z.txt.meta.jsonl").read_text())
        traj = meta["a_trajectory"]
        assert meta["converged"] is False
        assert (meta["steps"], len(traj), meta["m"]) == (8, 9, 42.0)
        assert traj[0] == 0.125 and traj[-1] is None


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

    def test_convergence_single_step_count(self, capsys):
        code, out, _ = run(capsys, "convergence", "--format", "fp32", "--dims", "32",
                           "--num-vectors", "6", "--steps", "5")
        assert code == 0
        assert " steps=5 " in out
        assert [l.split(",")[:2] for l in out.splitlines() if l.startswith("fp32,")] \
            == [["fp32", "5"]]

    def test_latency_output_ignores_unused_flags(self, capsys, tmp_path):
        # the cycle model reads only the lengths and the step count
        base = ["latency", "--dims", "64,1024", "--steps", "4"]
        code, want, _ = run(capsys, *base)
        assert code == 0
        assert want.splitlines()[1] == "# dims=64,1024 steps=4"
        code, got, _ = run(capsys, *base, "--seed", "9")
        assert (code, got) == (0, want)
        spec = ExperimentSpec(kind="latency", formats=("fp16",), dims=(64, 1024),
                              steps=(4,), num_vectors=5)
        assert csv_text(run_latency(spec)) == want

    def test_stage_cost_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stage_costs": {"iteration_per_step": 0}}))
        code, out, _ = run(capsys, "latency", "--dims", "64", "--config", str(cfg))
        assert code == 0
        assert "64,56" in out  # 116 - 5*12

    def test_latency_header_records_stage_costs(self, capsys, tmp_path):
        # the header names each overridden cost, as a --config that
        # reproduces the file
        cfg, again = tmp_path / "cfg.json", tmp_path / "again.json"
        cfg.write_text(json.dumps({"stage_costs": {"control_fixed": 30, "iteration_per_step": 0,
                                                   "mean_mul_fixed": 2}}))
        code, want, _ = run(capsys, "latency", "--dims", "64,1024", "--config", str(cfg))
        assert code == 0
        line = want.splitlines()[2]
        assert line == '# stage_costs={"control_fixed": 30, "iteration_per_step": 0}'
        again.write_text(json.dumps({"stage_costs": json.loads(line.split("=", 1)[1])}))
        code, got, _ = run(capsys, "latency", "--dims", "64,1024", "--config", str(again))
        assert (code, got) == (0, want)

    def test_normalize_end_to_end(self, capsys, tmp_path):
        inp, out = tmp_path / "v.txt", tmp_path / "z.txt"
        rng = np.random.default_rng(0)
        write_vectors(inp, [round_array(rng.uniform(-1, 1, 12), FP32)], FP32, binary=False)
        code, msg, _ = run(capsys, "normalize", "--input", str(inp), "--out", str(out))
        assert code == 0
        assert "normalized 1 vectors" in msg
        assert out.exists() and (str(out) + ".meta.jsonl") in msg

    def test_integer_minus_zero_row(self, capsys, tmp_path):
        inp, out = tmp_path / "v.txt", tmp_path / "z.txt"
        inp.write_text("-0,1,2,3\n")
        code, _, _ = run(capsys, "normalize", "--input", str(inp), "--out", str(out))
        assert code == 0
        assert out.read_bytes() == (b"-1.341533899307251,-0.4471779763698578,"
                                    b"0.4471779763698578,1.341533899307251\n")
        meta = json.loads((tmp_path / "z.txt.meta.jsonl").read_bytes())
        assert (meta["mean"], meta["m"]) == (1.5, 5.0)

    @pytest.mark.parametrize("kind", ["text", "binary", "csv"])
    def test_rerun_overwrites_longer_outputs(self, capsys, tmp_path, kind):
        # an existing, longer `<out>`, sidecar or CSV keeps its inode and
        # ends up holding exactly the new bytes
        inp = tmp_path / "v.in"
        if kind == "binary":
            write_vectors(inp, [np.array([1.0, 2.0, 3.0, 4.0])], FP16, binary=True)
        else:
            inp.write_text("1,2,3,4\n0.5,-0.5\n")
        argv = (["latency", "--dims", "64"] if kind == "csv" else
                ["normalize", "--input", str(inp)])

        def files(out):
            return [out] if kind == "csv" else [out, tmp_path / f"{out.name}.meta.jsonl"]

        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        for path in files(reused):
            path.write_bytes(b"stale,\n" * 20000)
        inodes = [path.stat().st_ino for path in files(reused)]
        for out in (fresh, reused):
            code, _, err = run(capsys, *argv, "--out", str(out))
            assert (code, err) == (0, "")
        assert [path.stat().st_ino for path in files(reused)] == inodes
        for want, got in zip(files(fresh), files(reused), strict=True):
            assert got.read_bytes() == want.read_bytes()

    def test_out_to_a_character_device(self, capsys):
        # a character device takes the output like a file (ftruncate on it
        # would fail with EINVAL)
        code, _, err = run(capsys, "precision", "--format", "fp32", "--dims", "16",
                           "--num-vectors", "4", "--out", os.devnull)
        assert (code, err) == (0, "")

    def test_out_keeps_its_mode_and_follows_a_symlink(self, capsys, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"stale\n" * 1000)
        target.chmod(0o640)
        link.symlink_to(target)
        before = target.stat()
        code, want, _ = run(capsys, "latency", "--dims", "64")
        assert code == 0
        code, _, _ = run(capsys, "latency", "--dims", "64", "--out", str(link))
        assert code == 0 and link.is_symlink()
        after = target.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
        assert target.read_text() == want

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
