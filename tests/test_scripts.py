"""The scripts under scripts/ run end to end on small inputs, so a change to
the package API they use fails here."""

import os
import subprocess
import sys
from pathlib import Path

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
