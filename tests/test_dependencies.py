"""Every runtime dependency that pyproject.toml declares is importable at a
version it allows, so a machine without one fails here, by name."""

import importlib
import importlib.metadata
from pathlib import Path

import pytest
from packaging.requirements import Requirement

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
DEPENDENCIES = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]


@pytest.mark.parametrize("spec", DEPENDENCIES)
def test_declared_dependency_is_installed(spec):
    requirement = Requirement(spec)
    importlib.import_module(requirement.name)
    version = importlib.metadata.version(requirement.name)
    assert requirement.specifier.contains(version), f"{requirement.name} {version} is installed"
