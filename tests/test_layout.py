"""Code that only tests call lives in tests/, not in the package, and no
package parameter is a knob that nothing sets.

Every top-level function and class of src/dqdsim, and every method that is
not a dunder, must be referenced from package code or shown in README's
"Library use" block: a function or class as a name or an attribute, a
method or property only as an attribute. A package import of a name
(`from .state import ...` in `__init__`) is not a reference.

Every defaulted parameter of a top-level function or method must be set,
by keyword or by position, by some call in package code.
"""

import ast
from pathlib import Path

from test_readme import _library_use_block

SRC = Path(__file__).resolve().parent.parent / "src" / "dqdsim"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# the console-script entry: its caller is the installed script, not src/
KNOB_EXEMPT = {"cli:main.argv"}


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _names(tree) -> set:
    """Every Name id in the tree."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _attributes(tree) -> set:
    """Every Attribute attr in the tree."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _definitions(tree):
    """(qualified name, name, node, method?) of the module's functions,
    classes and methods."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, FUNCTIONS):
                    yield f"{node.name}.{sub.name}", sub.name, sub, True


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_used_by_the_package_or_shown():
    trees = _trees()
    names = set().union(*(_names(tree) for tree in trees.values()))
    attributes = set().union(*(_attributes(tree) for tree in trees.values()))
    block = ast.parse(_library_use_block())
    shown_names = _names(block) | {
        alias.name for node in ast.walk(block) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    shown_attributes = _attributes(block)
    unused = []
    for module, tree in trees.items():
        for qualified, name, _, method in _definitions(tree):
            if method and _is_dunder(name):
                continue
            used = attributes | shown_attributes
            if not method:
                used = used | names | shown_names
            if name not in used:
                unused.append(f"{module}:{qualified}")
    assert unused == [], "only tests use these; move them to tests/"


def _defaulted(node, method: bool):
    """(position or None, name) of each defaulted parameter of a def; the
    position counts the call's positional arguments, so a method's self or
    cls is not counted."""
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in node.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _callee(call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _sets(call, position, name) -> bool:
    """Whether the call passes the parameter, by keyword or by position."""
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > position


def test_every_default_is_set_by_some_package_call():
    trees = _trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    unset = []
    for module, tree in trees.items():
        classes = {sub: node.name for node in tree.body if isinstance(node, ast.ClassDef)
                   for sub in node.body}
        for qualified, name, node, method in _definitions(tree):
            if not isinstance(node, FUNCTIONS):
                continue
            # a class is called by its own name to run __init__
            callee = classes[node] if name == "__init__" else name
            for position, param in _defaulted(node, method):
                key = f"{module[:-3]}:{qualified}.{param}"
                if key in KNOB_EXEMPT:
                    continue
                if not any(_sets(c, position, param) for c in calls.get(callee, [])):
                    unset.append(key)
    assert unset == [], "no package call sets these defaults; drop the parameter"
