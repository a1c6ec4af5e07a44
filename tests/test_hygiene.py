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
