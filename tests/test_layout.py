"""Code that only tests call lives in tests/, not in the package.

Every top-level function and class of src/dqdsim, and every method that is
not a dunder, must be referenced from package code (as a name or as an
attribute) or shown in README's "Library use" block. A package import of
a name (`from .state import ...` in `__init__`) is not a reference.
"""

import ast
from pathlib import Path

from test_readme import _library_use_block

SRC = Path(__file__).resolve().parent.parent / "src" / "dqdsim"


def _names(tree) -> set:
    """Every Name id and Attribute attr in the tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _definitions(tree):
    """(qualified name, name) of the module's functions, classes and methods."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, functions) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{node.name}.{sub.name}", sub.name


def test_every_definition_is_used_by_the_package_or_shown():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    referenced = set().union(*(_names(tree) for tree in trees.values()))
    block = ast.parse(_library_use_block())
    shown = _names(block) | {
        alias.name for node in ast.walk(block) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = [
        f"{module}:{qualified}"
        for module, tree in trees.items()
        for qualified, name in _definitions(tree)
        if name not in referenced and name not in shown
    ]
    assert unused == [], "only tests use these; move them to tests/"
