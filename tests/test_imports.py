"""Module boundaries: no agreelab module reaches into another's private names,
and every name a module lists in __all__ exists and has a caller."""

import ast
import importlib
from pathlib import Path

import agreelab

PACKAGE = Path(agreelab.__file__).parent
ROOT = PACKAGE.parent.parent
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


def referenced_names(tree: ast.AST, skip: str | None = None) -> set[str]:
    """Names a module reads or imports, leaving out the body of the
    definition named `skip` (an `__all__` entry is a string, not a name)."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_has_a_caller():
    callers = sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    callers += sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in callers}
    uncalled = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("agreelab" if path.stem == "__init__" else f"agreelab.{path.stem}")
        names = [
            n for n in getattr(module, "__all__", [])
            if not any(n in referenced_names(tree, n if other == path else None)
                       for other, tree in trees.items())
        ]
        if names:
            uncalled[path.name] = names
    assert uncalled == {}


def test_guard_sees_uncalled_names():
    tree = ast.parse('__all__ = ["f", "g"]\ndef f():\n    return f()\ndef g():\n    return h()\n')
    assert "f" not in referenced_names(tree, "f")  # calls from its own body do not count
    assert "g" not in referenced_names(tree, "g")  # nor does its __all__ entry
    assert "h" in referenced_names(tree, "h")


def test_guard_sees_private_imports():
    assert private_imports("from .config import _parse_graph, load_config") == ["_parse_graph"]
    assert private_imports("from agreelab.scenarios import _run_noisy") == ["_run_noisy"]
    assert private_imports("from . import scenarios\nscenarios._load('x')") == ["scenarios._load"]
    assert private_imports("from . import _kernels\n_kernels.affine_path") == []
    assert private_imports("from typing import _T") == []


def agreelab_imports(source: str) -> list[str]:
    """Dotted names a script imports from agreelab: `import agreelab.sim`
    gives agreelab.sim, `from agreelab import _kernels` agreelab._kernels
    and `from agreelab.sim import integrate` agreelab.sim.integrate."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name.split(".")[0] == "agreelab"]
        elif isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == "agreelab":
            names += [f"{node.module}.{a.name}" for a in node.names]
    return names


def resolves(name: str) -> bool:
    """`name` is a module, or an attribute of a module that resolves."""
    try:
        importlib.import_module(name)
        return True
    except ModuleNotFoundError:
        parent, _, attr = name.rpartition(".")
        return bool(parent) and resolves(parent) and hasattr(importlib.import_module(parent), attr)


def test_every_agreelab_import_of_the_benchmark_resolves():
    # the benchmark imports modules that Tier-1 may not: a pass would
    # crash on a deleted one while every other test stays green
    imports = {path.name: agreelab_imports(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))}
    assert "agreelab._kernels" in imports["one_pass.py"]
    unresolved = {name: bad for name, found in imports.items() if (bad := [n for n in found if not resolves(n)])}
    assert unresolved == {}


def test_guard_sees_unresolved_imports():
    found = agreelab_imports("import agreelab.sim\nfrom agreelab import _kernels, _gone\nfrom agreelab.sim import nothing")
    assert found == ["agreelab.sim", "agreelab._kernels", "agreelab._gone", "agreelab.sim.nothing"]
    assert [resolves(n) for n in found] == [True, True, False, False]
    assert agreelab_imports("from . import sim\nimport numpy") == []
