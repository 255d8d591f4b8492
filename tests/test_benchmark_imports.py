"""The benchmark's modules import against the library as it stands.

``perfbench/bench.py`` imports ``layers`` and the rest at its top, so a name
that only they import, removed from ``src/``, breaks every benchmark run;
this test fails on it first."""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("bench", "layers", "workloads", "checks", "tracing", "timing")


@pytest.mark.parametrize("name", MODULES)
def test_benchmark_module_imports(name, monkeypatch):
    for path in (ROOT / "src", ROOT / "perfbench"):
        monkeypatch.syspath_prepend(str(path))
    module = importlib.import_module(name)
    assert Path(module.__file__).parent == ROOT / "perfbench"
