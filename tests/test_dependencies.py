"""The runtime stays dependency-free: the package's modules import only the
standard library and the package itself, and ``pyproject.toml`` declares no
dependencies.  Within the package, modules import each other only downward
through ``LAYERS``."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "medianvoting"
LAYERS = ("errors", "lattice", "preorders", "rules", "verify", "suites", "cli")


def top_level_imports(tree):
    """Absolute module names imported outside any function or class body
    (inside top-level ``if``/``try`` blocks too); relative imports are the
    package's own."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
        elif isinstance(node, (ast.If, ast.Try)):
            pending += node.body + node.orelse + getattr(node, "finalbody", [])
            pending += [n for h in getattr(node, "handlers", []) for n in h.body]


def test_modules_import_only_the_standard_library_and_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    foreign = {}
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in top_level_imports(tree):
            root = name.split(".")[0]
            if root not in sys.stdlib_module_names and root != "medianvoting":
                foreign.setdefault(path.name, []).append(name)
    assert foreign == {}


def test_the_guard_sees_a_foreign_import():
    tree = ast.parse("import os\ntry:\n    import numpy\nexcept ImportError:\n    pass\n"
                     "def f():\n    import scipy\n")
    assert sorted(top_level_imports(tree)) == ["numpy", "os"]


def package_imports(tree):
    """The package modules imported anywhere in a module, relative or
    absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("medianvoting."))
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "medianvoting"):
            module = (node.module or "").removeprefix("medianvoting").lstrip(".")
            if module:
                yield module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_modules_import_only_lower_layers():
    modules = {path.stem: path for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert sorted(modules) == sorted(LAYERS)
    upward = {}
    for name, path in modules.items():
        for imported in package_imports(ast.parse(path.read_text(), filename=str(path))):
            if LAYERS.index(imported) >= LAYERS.index(name):
                upward.setdefault(name, []).append(imported)
    assert upward == {}


def test_the_layer_guard_sees_every_import_form():
    tree = ast.parse("from . import suites\nfrom .rules import tabulate\nimport os\n"
                     "import medianvoting.verify\nfrom medianvoting import errors\n"
                     "def f():\n    from medianvoting.cli import run\n")
    assert sorted(package_imports(tree)) == ["cli", "errors", "rules", "suites", "verify"]


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.S | re.M)
    assert project is not None
    assert re.findall(r"^dependencies\s*=.*$", project.group(1), re.M) == ["dependencies = []"]
