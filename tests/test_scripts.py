"""The scripts under scripts/ run end to end on small inputs, so a change to
the package API they use fails here."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def test_run_paper_experiments(tmp_path):
    proc = run_script("run_paper_experiments.py", "--num-vectors", "8",
                      "--outdir", str(tmp_path / "results"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    expected = {"precision.csv": 3 * 5, "convergence.csv": 3 * 10,
                "compare_fisr.csv": 2 * 9 * 2, "latency.csv": 16}
    for name, rows in expected.items():
        lines = (tmp_path / "results" / name).read_text().splitlines()
        assert lines[0].startswith("# iterl2norm v")
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 1 + rows, name  # column names, then the rows
    assert [l.split()[0] for l in proc.stdout.splitlines()] \
        == ["precision", "convergence", "compare-fisr", "latency"]


def test_sweep_lambda(tmp_path):
    proc = run_script("sweep_lambda.py", "--d", "64", "--num-vectors", "8", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # per format: a summary line, the column names, the default and 8 targets
    assert [l.split()[0] for l in lines[::11]] == ["fp32", "fp16", "bf16"]
    assert len(lines) == 3 * 11
    for block in range(3):
        rows = lines[block * 11 + 2:block * 11 + 11]
        assert rows[0].split()[0] == "default"
        assert all(float(r.split()[-1]) > 0 for r in rows)


def test_ab_passes_of_the_tree_against_itself(tmp_path):
    proc = run_script("ab_passes.py", "--a", str(ROOT), "--b", str(ROOT),
                      "--workload", "file_bin", "--rounds", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "outputs: same" in lines[0]
    # one line per op, one op per format and d: its medians and their ratio
    ops = [line.split() for line in lines[1:-2]]
    assert [op[1] for op in ops] == [f"{f}_d{d}" for f in ("fp32", "fp16", "bf16")
                                     for d in (64, 1024)]
    for op in ops:
        assert op[0] == "op" and op[2::2] == ["a", "b", "ratio"]
        a, b, ratio = map(float, op[3::2])
        assert a > 0 and b > 0 and ratio == pytest.approx(b / a, rel=0.01)  # printed rounded
    # each tree's faults over the rounds it ran first, then second: in one
    # round A ran first and B second
    faults = lines[-2].split()
    assert faults[:3] == ["minflt", "per", "pass"]
    assert faults[3::5] == ["a", "b"] and faults[4::5] == ["first", "first"]
    assert faults[6::5] == ["second", "second"]
    assert int(faults[5]) >= 0 and faults[7] == "-"
    assert faults[10] == "-" and int(faults[12]) >= 0
    ratio = lines[-1].split()
    assert ratio[0] == "ratio" and float(ratio[1]) > 0 and ratio[-1] in ("0/1", "1/1")


def test_ab_passes_fails_on_a_leaked_thread(tmp_path):
    # tree B's CLI starts a thread that outlives each call
    leaky = tmp_path / "leaky"
    shutil.copytree(ROOT / "src", leaky / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(leaky / "src" / "iterl2norm" / "cli.py", "a") as f:
        f.write("\n\nimport threading\n_main = main\n\n\ndef main(argv=None):\n"
                "    threading.Thread(target=threading.Event().wait, daemon=True).start()\n"
                "    return _main(argv)\n")
    proc = run_script("ab_passes.py", "--a", str(ROOT), "--b", str(leaky),
                      "--workload", "file_bin", "--rounds", "1", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("b: ") and "threads alive after a pass" in proc.stderr


def test_ab_passes_compares_the_sidecars(tmp_path):
    # tree B writes the same outputs, but one byte of each sidecar differs
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(other / "src" / "iterl2norm" / "vecio.py", "a") as f:
        f.write("\n\n_write_sidecar = write_sidecar\n\n\ndef write_sidecar(path, batches):\n"
                "    _write_sidecar(path, batches)\n"
                "    text = Path(path).read_bytes()\n"
                "    Path(path).write_bytes(text.replace(b'\"index\": 0,', b'\"index\": 9,', 1))\n")
    proc = run_script("ab_passes.py", "--a", str(ROOT), "--b", str(other),
                      "--workload", "file_bin", "--rounds", "1", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "outputs: DIFFER" in proc.stdout.splitlines()[0]


def test_ab_passes_setup_of_the_tree_against_itself(tmp_path):
    proc = run_script("ab_passes.py", "--a", str(ROOT), "--b", str(ROOT),
                      "--setup", "--rounds", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "setup  rounds: 2" in lines[0]
    times = lines[-2].split()
    assert times[:2] == ["import", "ms"] and times[2::2] == ["a", "b"]
    assert all(float(t) > 0 for t in times[3::2])
    ratio = lines[-1].split()
    assert ratio[0] == "ratio" and float(ratio[1]) > 0
    assert ratio[-1] in ("0/2", "1/2", "2/2")


CODE_LINES_FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment

# a comment line


@staticmethod
def f(a,
      b):
    """Docstring."""
    s = """a string
over two lines"""
    return s


class C:
    "a one-line docstring"

    x = 1
'''


def test_code_lines(tmp_path):
    # code: import; decorator, the def's two lines, the string's two lines
    # and the return; class and x = 1.  Another module in a subdirectory
    # holds one line.
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "mod.py").write_text(CODE_LINES_FIXTURE)
    (tmp_path / "pkg" / "sub" / "one.py").write_text("# header\n\nx = (1 +\n     2)  # two\n")
    proc = run_script("code_lines.py", "pkg", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["9", str(Path("pkg", "mod.py"))], ["6", "f"], ["2", "C"],
        ["2", str(Path("pkg", "sub", "one.py"))],
        ["11", "total"]]


def test_code_lines_stops_quietly_when_its_reader_does(tmp_path):
    # one output line per def: far more than a pipe holds, so the script
    # is still writing when the reader closes its end, as `| head -1` does
    (tmp_path / "many.py").write_text("".join(f"def f{i}(): pass\n" for i in range(20000)))
    with subprocess.Popen([sys.executable, str(ROOT / "scripts" / "code_lines.py"), "many.py"],
                          cwd=tmp_path, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().split() == ["20000", "many.py"]
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == ""
