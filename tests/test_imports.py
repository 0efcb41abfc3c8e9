"""Every name a `coarseiv` module imports is referenced in that module,
every import sits at module level, where an import cycle fails at once,
every name in a module's `__all__` is defined or imported there, and every
private name the package defines is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coarseiv"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
# The package __init__ imports only to re-export.
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, `from __future__` excepted."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced(tree: ast.Module) -> set[str]:
    """Names loaded anywhere in the module, plus the strings in `__all__`."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | _exported(tree)


def _exported(tree: ast.Module) -> set[str]:
    """The strings in the module's `__all__`."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at module level: imports, definitions and assignments."""
    names = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            )
    return names


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private name -> line of every function, method and class, and of every
    module-level constant; dunders excepted."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                (n.id, node.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            )
    return {
        name: line
        for name, line in names.items()
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    }


def _uses(tree: ast.Module) -> set[str]:
    """Names the module reads, bare or as attributes, and the names it imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unused_private(trees: dict[str, ast.Module]) -> dict[str, list[str]]:
    """Module -> its private names that no module of the package uses."""
    used = set().union(*map(_uses, trees.values()))
    out = {}
    for name, tree in trees.items():
        dead = sorted(set(_private_definitions(tree)) - used)
        if dead:
            out[name] = dead
    return out


def _nested_imports(tree: ast.Module) -> list[int]:
    """Lines of the imports inside a function body."""
    return sorted(
        {
            inner.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
            if isinstance(inner, (ast.Import, ast.ImportFrom))
        }
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _nested_imports(tree), (
        f"{path.name}: imports inside functions at lines {_nested_imports(tree)}"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    referenced = _referenced(tree)
    unused = {
        name: line for name, line in _imported(tree).items() if name not in referenced
    }
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_all_names_only_what_it_defines(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = _exported(tree) - _defined(tree)
    assert not missing, f"{path.name}: __all__ names undefined {sorted(missing)}"


def test_every_private_name_is_used_in_the_package():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in ALL_MODULES}
    dead = _unused_private(trees)
    assert not dead, f"private names nothing in the package uses: {dead}"


def test_checker_flags_an_unused_private_name():
    tree = ast.parse(
        "_LIMIT = 3\n"
        "_SPARE = 4\n"
        "class _Kept:\n"
        "    def __init__(self):\n"
        "        self._helper()\n"
        "    def _helper(self):\n"
        "        return _LIMIT\n"
        "    def _orphan(self):\n"
        "        pass\n"
        "def _used():\n"
        "    return _Kept()\n"
        "def public(k):\n"
        "    k._orphan = None\n"
        "    return _used\n"
    )
    other = ast.parse("from .m import _SPARE\n")
    assert _unused_private({"m.py": tree}) == {"m.py": ["_SPARE", "_orphan"]}
    assert _unused_private({"m.py": tree, "n.py": other}) == {"m.py": ["_orphan"]}


def test_checker_flags_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Sequence, Mapping as M\n"
        "__all__ = ['exported']\n"
        "from .x import exported\n"
        "def f(a: M) -> None:\n"
        "    return os.path.join(a)\n"
    )
    unused = set(_imported(tree)) - _referenced(tree)
    assert unused == {"Sequence"}


def test_checker_flags_an_import_inside_a_function():
    tree = ast.parse(
        "import os\n"
        "class C:\n"
        "    def method(self):\n"
        "        def inner():\n"
        "            from .x import y\n"
        "        return os, inner\n"
    )
    assert _nested_imports(tree) == [5]


def test_checker_flags_an_undefined_export():
    tree = ast.parse(
        "import os\n"
        "from .x import y as z\n"
        "__all__ = ['os', 'z', 'f', 'C', 'K', 'T', 'gone', 'y']\n"
        "def f(): pass\n"
        "class C: pass\n"
        "K = 1\n"
        "T: int = 2\n"
    )
    assert _exported(tree) - _defined(tree) == {"gone", "y"}
