"""Module layout of the package: no module uses a private name of another.

A ``_``-prefixed name is its module's own business; a module that needs one
from a sibling should get a public name for it instead.  Dunder names such as
``__version__`` are public.  A module uses a sibling's private name by
importing it, or by reading ``x._name`` off an object of a class defined
elsewhere.
"""

import ast
import subprocess
import sys
from collections import Counter
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


def imports_of(path: Path, name: str):
    """Imports of the package module ``name`` (or of names out of it) in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            modules = [source] + [f"{source}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(module.split(".")[-1] == name for module in modules):
            found.append(f"{path.name}:{node.lineno}")
    return found


def names_in(path: Path):
    """Every identifier one file defines, reads or imports."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name


def assert_retired(module: str, retired: str) -> None:
    """``module`` defines nothing, nothing imports it, and no file names ``retired``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, definitions)] == []
    root = PACKAGE.parent.parent
    files = sorted([*PACKAGE.glob("*.py"), *(root / "demos").glob("*.py"), *(root / "tests").glob("*.py")])
    assert [line for path in files for line in imports_of(path, module)] == []
    assert [path.name for path in files if retired in set(names_in(path))] == []


def test_ratfunc_defines_nothing_and_nothing_imports_it():
    """The Laurent ring Q(i)[u^±1] is ``MultiPoly``; no second Laurent type grows back."""
    assert_retired("ratfunc", "RationalFunction")


def test_laurent_defines_nothing_and_nothing_imports_it():
    """A chart coefficient is a ``MultiPoly`` over the chart's variables; the
    fiber-only Laurent type does not grow back."""
    assert_retired("laurent", "LaurentPoly")


#: The modules that build ``Fraction``s: the scalar field's own parts.  The
#: sampler draws int pairs, and everything else computes in ``int`` or in Q(i).
FRACTION_MODULES = {"scalars.py"}


def fraction_calls(path: Path):
    """``Fraction(...)`` calls in one module, bare or as ``fractions.Fraction(...)``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "Fraction":
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_the_scalar_and_sampler_modules_build_fractions():
    modules = sorted(PACKAGE.glob("*.py"))
    assert FRACTION_MODULES <= {path.name for path in modules}
    others = [path for path in modules if path.name not in FRACTION_MODULES]
    assert [line for path in others for line in fraction_calls(path)] == []


#: Modules the CLI import must not load: ``dataclasses`` drags in ``inspect``
#: (and with it ``ast``, ``dis``, ``tokenize``), and ``argparse`` is for the
#: argv path alone.  Each costs every verdict start-up time.
HEAVY_IMPORTS = ("dataclasses", "inspect", "argparse")


def test_importing_the_cli_loads_no_heavy_module():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import contactcheck.cli; "
        f"print(sorted(m for m in {HEAVY_IMPORTS!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


def foreign_imports(path: Path):
    """Imports in one module of anything but the standard library and the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            root = module.split(".")[0]
            if root != "contactcheck" and root not in sys.stdlib_module_names:
                found.append(f"{path.name}:{node.lineno}: {module}")
    return found


def test_the_package_imports_only_the_standard_library():
    """``pyproject.toml`` declares ``dependencies = []``; every import keeps to it."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert [line for path in modules for line in foreign_imports(path)] == []


def attribute_guards(path: Path):
    """Classes in one module that define ``__setattr__`` or ``__delattr__``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name in ("__setattr__", "__delattr__"):
                found.append(f"{path.name}: {node.name}.{item.name}")
    return found


def test_only_the_immutable_base_guards_attributes():
    """Value types derive from ``scalars.Immutable``; no class grows a guard of its own."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert [line for path in modules for line in attribute_guards(path)] == [
        "scalars.py: Immutable.__setattr__",
        "scalars.py: Immutable.__delattr__",
    ]


#: Public functions and methods that no code of the package names, and why each stays.
UNCALLED_PUBLIC_NAMES = {
    "rho_height": "the grading tests compare the ad(H_rho) eigenvalues against it",
    "euler_field": "the closed-form reference for the solved Euler field",
    "poisson_function": "demo 04 uses it, and the moment map on the symplectification will call it",
    "cstructure_from_charts": "the library entry point for c-structures built from a user's own charts",
}


def uncalled_public_names():
    """Public functions and methods of the package that no other line of its code
    names: not called, read, passed or imported.  Docstrings are not code."""
    defined, named = Counter(), Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                defined[node.name] += 1
        # names_in counts each definition once too.
        named.update(names_in(path))
    return sorted(name for name in defined if named[name] == defined[name])


def test_every_public_function_is_named_by_the_package_or_kept_for_a_reason():
    assert uncalled_public_names() == sorted(UNCALLED_PUBLIC_NAMES)


#: The modules that compute on the scalars' int triples: the scalar field
#: itself, the sparse-sum kernel of ``linalg`` and the Lie layer's triple
#: products.  Every other module sums through ``linalg`` or the scalar
#: operators, so the triple arithmetic stays behind ``scalars`` and ``linalg``.
TRIPLE_MODULES = {"scalars.py", "linalg.py", "lie.py"}
#: The modules that build scalars from ints, besides those: the sampler's draws.
FROM_TRIPLE_MODULES = TRIPLE_MODULES | {"sampling.py"}


def triple_uses(path: Path):
    """``x.triple`` reads and ``from_triple`` names in one module."""
    reads, builds = [], []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "triple":
            reads.append(f"{path.name}:{node.lineno}")
    if "from_triple" in set(names_in(path)):
        builds.append(path.name)
    return reads, builds


def test_only_the_kernel_modules_work_on_scalar_triples():
    modules = sorted(PACKAGE.glob("*.py"))
    assert FROM_TRIPLE_MODULES <= {path.name for path in modules}
    reads, builds = [], []
    for path in modules:
        found = triple_uses(path)
        reads += [line for line in found[0] if path.name not in TRIPLE_MODULES]
        builds += [name for name in found[1] if name not in FROM_TRIPLE_MODULES]
    assert reads == []
    assert builds == []
