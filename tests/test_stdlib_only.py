"""The runtime imports only the standard library: every absolute import in
``src/invrel/*.py`` names a top-level module in ``sys.stdlib_module_names``
(or ``__future__``); relative imports stay inside the package."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "invrel").glob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the absolute imports in ``source`` that are not the standard library's."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    allowed = sys.stdlib_module_names | {"__future__"}
    return [name for name in names if name.split(".")[0] not in allowed]


def test_sources_found():
    assert {"__init__.py", "families.py", "kernels.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_runtime_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []


def test_a_third_party_import_is_caught():
    source = """
from __future__ import annotations
import os.path, numpy as np
from . import kernels
from .numerics import power
from scipy.special import gamma

def late():
    import mpmath
"""
    assert foreign_imports(source) == ["numpy", "scipy.special", "mpmath"]
