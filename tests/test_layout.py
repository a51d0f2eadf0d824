"""Module layout of the package: no module uses a private name of another.

A ``_``-prefixed name is its module's own business; a module that needs one
from a sibling should get a public name for it instead.  Dunder names such as
``__version__`` are public.  A module uses a sibling's private name by
importing it, or by reading ``x._name`` off an object of a class defined
elsewhere.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contactcheck"


def private_imports(path: Path):
    """``from`` imports of ``_``-prefixed names out of the package in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = "." * node.level + (node.module or "")
        if node.level == 0 and not source.startswith("contactcheck"):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.endswith("__"):
                found.append(f"{path.name}: from {source} import {alias.name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert [line for path in modules for line in private_imports(path)] == []


def own_private_names(tree: ast.AST):
    """The functions, methods and ``__slots__`` entries a module defines."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__" for target in node.targets
        ):
            names.update(
                const.value
                for const in ast.walk(node.value)
                if isinstance(const, ast.Constant) and isinstance(const.value, str)
            )
    return names


def private_attribute_reads(path: Path):
    """``x._name`` in one module, for ``x`` not ``self``/``cls`` and ``_name`` not its own."""
    tree = ast.parse(path.read_text(), str(path))
    own = own_private_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__") or node.attr in own:
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_module_reads_a_private_attribute_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert [line for path in modules for line in private_attribute_reads(path)] == []
