"""Every test module imports. Tier-1 runs pytest with
--continue-on-collection-errors, so without this a module that stops
importing would drop out of the run and leave no failing test."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path.stem for path in (*ROOT.glob("tests/test_*.py"),
                                        ROOT / "bench" / "test_bench.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)  # raises the module's own import error
