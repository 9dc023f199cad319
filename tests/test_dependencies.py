"""Dependency guard: the package imports nothing but the standard library,
numpy and itself, as the README's "runtime dependency: numpy" promises."""

import ast
import sys
from pathlib import Path

import pytest

import boostcap

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "boostcap"}
SOURCES = sorted(Path(boostcap.__file__).parent.glob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """Top-level modules that ``source`` imports from outside ALLOWED."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] not in ALLOWED]


def test_guard_flags_a_foreign_import():
    source = "import math\nfrom . import errors\nimport numpy.linalg\nfrom scipy import special\n"
    assert foreign_imports(source) == ["scipy"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text()) == []
