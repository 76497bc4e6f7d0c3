"""Every public name resolves, and every example imports, warning-free.

A name listed in an ``__all__`` that no longer exists, or an example
that imports a deleted name, fails here rather than at a user's import.
"""

from __future__ import annotations

import importlib
import pkgutil
import runpy
import warnings
from pathlib import Path

import pytest

import repro

MODULES = sorted(
    ["repro"]
    + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
)
EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        runpy.run_path(str(path), run_name="not_main")


def test_examples_found():
    assert len(EXAMPLES) >= 10


def test_simulators_import_from_repro_sim():
    from repro.sim import ClassicalSimulator  # noqa: F401

    with pytest.raises(AttributeError, match="no attribute"):
        repro.ClassicalSimulator
