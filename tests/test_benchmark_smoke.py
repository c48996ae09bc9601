"""One short run of the benchmark in perfbench/: at seed 0 it checks the
output digest recorded in perfbench/digests.json, the tracer's targets, the
traced row count and the workload's own `normalize_batch` and
`reference_batch` checks, so a change that breaks any of them fails here.

The run works on a copy of perfbench/ beside a link to src/, so its scratch
files and results land in the test's temporary directory."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_file_bin_seed0_traced_run_is_correct(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "file_bin",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *_, context, last = proc.stdout.splitlines()
    result = json.loads(last)
    context = json.loads(context)
    assert result["correct"] is True, (context["problems"], context["failures"])
    assert result["failed"] == 0 and result["attempted"] > 0
