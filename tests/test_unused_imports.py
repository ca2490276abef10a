"""Every name a foldylax module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

import foldylax

MODULES = sorted(p for p in Path(foldylax.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names bound by the import statements of source that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_the_scan_finds_an_unread_import():
    assert unread_imports("import os\nimport sys as system\nfrom math import pi, tau\n"
                          "print(system.argv, tau)\n") == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unread_imports(path.read_text()) == []
