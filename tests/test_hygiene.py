"""Source checks that need no numerics."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rotpair"
# The package root imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


# Bases that are caught or subclassed, never raised themselves.
BASE_ERRORS = {"RotPairError", "ValidationError", "NumericalError"}


def raised_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    errors = ast.parse((SRC / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*(raised_names(ast.parse(p.read_text())) for p in MODULES))
    assert sorted(defined - BASE_ERRORS - raised) == []


def private_functions_unused(trees) -> list:
    """Module-level ``_name`` functions that no other top-level statement names.

    A reference from inside the function's own body, such as a recursive
    call, does not count.
    """
    defs, used = [], set()
    for module, tree in trees.items():
        for stmt in tree.body:
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt)
                      if isinstance(node, ast.Attribute)}
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_") \
                    and not stmt.name.startswith("__"):
                defs.append((module, stmt.name, stmt.lineno))
                names.discard(stmt.name)
            used |= names
    return sorted(f"{module}: {name} (line {line})"
                  for module, name, line in defs if name not in used)


def test_every_private_function_is_used():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert private_functions_unused(trees) == []
