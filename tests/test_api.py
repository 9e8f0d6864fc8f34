"""Every public name the package declares resolves to an object."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sqfluor

MODULES = sorted(info.name for info in pkgutil.iter_modules(sqfluor.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_all_names_resolve(module):
    mod = importlib.import_module(f"sqfluor.{module}")
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mod, name)] == []


def test_package_names_resolve():
    tree = ast.parse(Path(sqfluor.__file__).read_text())
    names = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    assert [name for name in names if getattr(sqfluor, name, None) is None] == []
