"""What each import loads, in a fresh interpreter: the package's top level
loads no submodule, and the CLI loads every module of the package, so a
module that only tests read cannot sit in the package unnoticed.  The CLI
loads no `dataclasses`: the value types are named tuples, whose classes
cost a fraction of a generated dataclass's at import.  Nor does it load
`orjson`, whose import loads `zoneinfo` and `uuid`: `vecio` imports it
where a decimal is first read or written.  Nor `concurrent.futures`, whose
import loads `logging`: the error tables import their thread pool where
they run."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = {f"iterl2norm.{p.stem}" for p in (SRC / "iterl2norm").glob("*.py")
           if p.stem != "__init__"}


def loaded_by(module: str) -> set[str]:
    """The modules loaded after `import <module>`, from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (f"import sys, {module}\n"
            f"assert sys.modules['iterl2norm'].__file__.startswith({str(SRC)!r})\n"
            "print(*sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def package_modules(names: set[str]) -> set[str]:
    return {n for n in names if n.partition(".")[0] == "iterl2norm"}


def test_top_level_loads_no_submodule():
    assert package_modules(loaded_by("iterl2norm")) == {"iterl2norm"}


def test_cli_loads_every_module():
    assert package_modules(loaded_by("iterl2norm.cli")) == {"iterl2norm"} | MODULES


def test_cli_loads_no_dataclasses():
    assert "dataclasses" not in loaded_by("iterl2norm.cli")


def test_cli_loads_no_orjson():
    assert "orjson" not in loaded_by("iterl2norm.cli")


def test_cli_loads_no_thread_pool():
    assert "concurrent.futures" not in loaded_by("iterl2norm.cli")
