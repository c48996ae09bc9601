"""One short run of each of two benchmark workloads in perfbench/: at seed
0 it checks the output digest recorded in perfbench/digests.json, the
tracer's targets, the traced row count and the workload's own checks
against the kernels (`normalize_batch` and `reference_batch`; on
`paper_battery` also the convergence steps and `fisr_batch`), so a change
that breaks any of them fails here.

The run works on a copy of perfbench/ beside a link to src/, so its scratch
files and results land in the test's temporary directory."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["file_bin", "paper_battery"])
def test_seed0_traced_run_is_correct(tmp_path, workload):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *_, context, last = proc.stdout.splitlines()
    result = json.loads(last)
    context = json.loads(context)
    assert result["correct"] is True, (context["problems"], context["failures"])
    assert result["failed"] == 0 and result["attempted"] > 0
