"""Module boundaries: no agreelab module reaches into another's private names,
and every name a module lists in __all__ exists."""

import ast
import importlib
from pathlib import Path

import agreelab

PACKAGE = Path(agreelab.__file__).parent
ALLOWED_PRIVATE_MODULES = {"_kernels"}


def private_imports(source: str) -> list[str]:
    """`_`-prefixed names that a module imports from agreelab, or reads
    as attributes of an agreelab module it imported."""
    tree, found, modules = ast.parse(source), [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("agreelab")):
            for alias in node.names:
                name = alias.asname or alias.name
                if node.module in (None, "agreelab"):  # `from . import sim`: a module
                    modules.add(name)
                if alias.name.startswith("_") and alias.name not in ALLOWED_PRIVATE_MODULES:
                    found.append(alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_a_private_name():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text()))
    }
    assert offenders == {}


def test_every_public_name_resolves():
    unresolved = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("agreelab" if path.stem == "__init__" else f"agreelab.{path.stem}")
        if names := [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]:
            unresolved[path.name] = names
    assert unresolved == {}


def test_guard_sees_private_imports():
    assert private_imports("from .config import _parse_graph, load_config") == ["_parse_graph"]
    assert private_imports("from agreelab.scenarios import _run_noisy") == ["_run_noisy"]
    assert private_imports("from . import scenarios\nscenarios._load('x')") == ["scenarios._load"]
    assert private_imports("from . import _kernels\n_kernels.affine_path") == []
    assert private_imports("from typing import _T") == []
