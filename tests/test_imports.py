"""What each import loads, in a fresh interpreter: the package's top level
loads no submodule, and the CLI loads every module of the package, so a
module that only tests read cannot sit in the package unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = {f"iterl2norm.{p.stem}" for p in (SRC / "iterl2norm").glob("*.py")
           if p.stem != "__init__"}


def loaded_by(module: str) -> set[str]:
    """The `iterl2norm` modules loaded after `import <module>`, from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (f"import sys, {module}\n"
            f"assert sys.modules['iterl2norm'].__file__.startswith({str(SRC)!r})\n"
            "print(*(n for n in sys.modules if n.partition('.')[0] == 'iterl2norm'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_top_level_loads_no_submodule():
    assert loaded_by("iterl2norm") == {"iterl2norm"}


def test_cli_loads_every_module():
    assert loaded_by("iterl2norm.cli") == {"iterl2norm"} | MODULES
