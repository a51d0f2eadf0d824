"""Module layout of the package: no module imports a private name of another.

A ``_``-prefixed name is its module's own business; a module that needs one
from a sibling should get a public name for it instead.  Dunder names such as
``__version__`` are public.
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
