"""Every public name the package declares resolves to an object, and every module reads what it imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sqfluor

MODULES = sorted(info.name for info in pkgutil.iter_modules(sqfluor.__path__))
SRC = Path(sqfluor.__file__).parent
TRACER = Path(__file__).resolve().parent.parent / "sweepbench" / "trace_layers.py"

# Imports a module never reads that sweepbench's layer tracer wraps or
# subclasses on that module by name, so they stay while it does.
READ_BY_THE_TRACER = {
    "cli": {"ThreadPoolExecutor", "matched_classical_pulsed", "schmidt_decompose"},
}
# Names bound to None only because the tracer wraps them by name and never
# calls them; each goes once the tracer stops naming it.
NAMED_FOR_THE_TRACER = {"excitation": {"quad_kernel_smooth"}}


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


def unread_imports(module: str) -> set[str]:
    """The names `module` binds by a top-level import and never reads."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return bound - read


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    # MODULES leaves out __init__, whose imports are its re-exports.
    allowed = READ_BY_THE_TRACER.get(module, set())
    assert unread_imports(module) == allowed
    tracer = TRACER.read_text()
    assert [name for name in allowed if f"{module}.{name}" not in tracer] == []


@pytest.mark.parametrize(
    "module, name",
    sorted((module, name) for module, names in NAMED_FOR_THE_TRACER.items() for name in names),
)
def test_placeholder_names_are_none_and_named_by_the_tracer(module, name):
    assert getattr(importlib.import_module(f"sqfluor.{module}"), name, "unbound") is None
    assert f"{module}.{name}" in TRACER.read_text()
