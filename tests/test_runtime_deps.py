"""The package runs on numpy alone: scipy is a test-only dependency."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_scipy():
    probe = "import sys, thermotrack; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"


def test_no_scipy_import_in_package():
    pattern = re.compile(r"^\s*(import scipy\b|from scipy\b)", re.MULTILINE)
    sources = sorted((SRC / "thermotrack").rglob("*.py"))
    assert sources
    assert [str(p) for p in sources if pattern.search(p.read_text())] == []


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert "scipy>=1.10" in project["optional-dependencies"]["test"]
