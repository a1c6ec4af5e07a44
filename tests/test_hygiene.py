"""Source checks that need no numerics."""

import ast
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rotpair"
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
    """Error classes raised directly, or passed to ``require`` to raise."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "require" and len(node.args) > 2
              and isinstance(node.args[2], ast.Name)):
            names.add(node.args[2].id)
    return names


def test_raised_names_counts_the_class_passed_to_require():
    tree = ast.parse("raise A('x')\nraise B\nrequire(r, tol.check_tol, C, 'c')\n"
                     "other(r, tol.check_tol, D, 'd')\n")
    assert raised_names(tree) == {"A", "B", "C"}


def test_every_error_class_is_raised():
    errors = ast.parse((SRC / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*(raised_names(ast.parse(p.read_text())) for p in MODULES))
    assert sorted(defined - BASE_ERRORS - raised) == []


def test_every_error_is_a_validation_or_numerical_error():
    """The CLI maps these two kinds to exit codes 1 and 2; there is no third."""
    from rotpair import NumericalError, ValidationError, errors

    concrete = [c for c in vars(errors).values() if isinstance(c, type)
                and c.__module__ == errors.__name__ and c.__name__ not in BASE_ERRORS]
    assert concrete
    assert [c.__name__ for c in concrete
            if not issubclass(c, (ValidationError, NumericalError))] == []


def referenced_names(trees) -> set:
    """Names and attributes that top-level statements reference.

    A reference from inside a function's or class's own definition, such
    as a recursive call, does not count for that function or class.
    """
    used = set()
    for tree in trees:
        for stmt in tree.body:
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt)
                      if isinstance(node, ast.Attribute)}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    return used


def private_functions_unused(trees) -> list:
    """Module-level ``_name`` functions that no other top-level statement names."""
    used = referenced_names(trees.values())
    return sorted(f"{module}: {stmt.name} (line {stmt.lineno})"
                  for module, tree in trees.items() for stmt in tree.body
                  if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_")
                  and not stmt.name.startswith("__") and stmt.name not in used)


def test_every_private_function_is_used():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert private_functions_unused(trees) == []


def exported_names_unused(init: ast.Module, trees) -> list:
    """Names the package root imports that none of ``trees`` references."""
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return sorted(exported - referenced_names(trees))


def test_every_exported_name_has_a_caller():
    """A public name is used by the package itself or by an acceptance criterion."""
    trees = [ast.parse(p.read_text()) for p in MODULES]
    trees.append(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    init = ast.parse((SRC / "__init__.py").read_text())
    assert exported_names_unused(init, trees) == []


def scattered_thresholds(tree: ast.Module) -> list:
    """Threshold rules written out in place rather than named in ``linalg``.

    These are float literals in (0, 1e-3), products of a number with a
    ``residual_tol`` attribute, ``rank_tol`` attributes, and ``finfo``,
    from which thresholds in units of the machine epsilon are built.
    """
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and type(node.value) is float
                and 0 < node.value < 1e-3):
            found.append(f"literal {node.value!r} (line {node.lineno})")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            sides = (node.left, node.right)
            if (any(isinstance(x, ast.Constant) for x in sides)
                    and any(isinstance(x, ast.Attribute) and x.attr == "residual_tol"
                            for x in sides)):
                found.append(f"{ast.unparse(node)} (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr == "rank_tol":
            found.append(f"rank_tol (line {node.lineno})")
        elif (isinstance(node, ast.Attribute) and node.attr == "finfo"
              or isinstance(node, ast.Name) and node.id == "finfo"):
            found.append(f"finfo (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "linalg.py"}),
                         ids=lambda p: p.name)
def test_thresholds_are_defined_in_linalg(path):
    assert scattered_thresholds(ast.parse(path.read_text())) == []


def test_scattered_thresholds_are_found():
    tree = ast.parse("a = 1e-9\nb = 10 * tol.residual_tol\nc = tol.rank_tol\n"
                     "d = 0.5 * x + 2 * y.angle_tol + tol.residual_tol * z\n")
    assert scattered_thresholds(tree) == [
        "literal 1e-09 (line 1)",
        "10 * tol.residual_tol (line 2)",
        "rank_tol (line 3)",
    ]


def test_epsilon_thresholds_are_found():
    # an angle window and the twist gap, each built in place from the
    # machine epsilon
    tree = ast.parse(
        "snap = max(tol.angle_tol, math.sqrt(1024.0 * n * np.finfo(float).eps))\n"
        "gap = n * np.finfo(float).eps / tol.residual_tol\n"
        "eps = finfo(np.float32).eps\n"
        "fine = np.float64(1.0).itemsize\n"
    )
    assert sorted(scattered_thresholds(tree)) == [
        "finfo (line 1)", "finfo (line 2)", "finfo (line 3)",
    ]


TOLERANCE_ATTRS = {"residual_tol", "angle_tol", "check_tol"}


def written_out_verdicts(tree: ast.Module) -> list:
    """Threshold verdicts written out in place rather than passed to ``require``.

    These are ``raise`` statements directly in the body of an ``if``
    whose test compares against a ``residual_tol``, ``angle_tol`` or
    ``check_tol`` attribute.
    """
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.If)
                and any(isinstance(stmt, ast.Raise) for stmt in node.body)
                and any(isinstance(cmp, ast.Compare)
                        and any(isinstance(x, ast.Attribute) and x.attr in TOLERANCE_ATTRS
                                for x in ast.walk(cmp))
                        for cmp in ast.walk(node.test))):
            found.append(f"{ast.unparse(node.test)} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "linalg.py"}),
                         ids=lambda p: p.name)
def test_threshold_verdicts_go_through_require(path):
    assert written_out_verdicts(ast.parse(path.read_text())) == []


def test_written_out_verdicts_are_found():
    tree = ast.parse(
        "if r > tol.residual_tol:\n    raise E('r')\n"
        "if not abs(a) <= 2 * tol.angle_tol:\n    x = 1\n    raise E('a')\n"
        "if r <= tol.check_tol:\n    i += 1\n"
        "if n == 1:\n    raise E('n')\n"
        "if r > tol.check_tol:\n    if n:\n        raise E('nested')\n"
        "require(r, tol.check_tol, E, 'r')\n"
    )
    assert written_out_verdicts(tree) == [
        "r > tol.residual_tol (line 1)",
        "not abs(a) <= 2 * tol.angle_tol (line 3)",
    ]


def schema_literals(tree: ast.Module, families, fields) -> list:
    """Canonical-form schema written out in place rather than read from ``classify``.

    These are string literals equal to a family name, and tuple or list
    literals made only of field names.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in families:
            found.append((node.lineno, node.col_offset, f"family {node.value!r}"))
        elif (isinstance(node, (ast.Tuple, ast.List)) and node.elts
              and all(isinstance(x, ast.Constant) and x.value in fields
                      for x in node.elts)):
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"{text} (line {line})" for line, _, text in sorted(found)]


def schema_names():
    from rotpair.classify import ANGLE_FIELDS, FAMILIES, SIGN_FIELDS

    return {cls.family for cls in FAMILIES}, set(SIGN_FIELDS + ANGLE_FIELDS)


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "classify.py"}),
                         ids=lambda p: p.name)
def test_schema_is_declared_in_classify(path):
    assert schema_literals(ast.parse(path.read_text()), *schema_names()) == []


def test_schema_literals_are_found():
    tree = ast.parse('names = {Dim1: "dim1", Dim4: "dim4"}\nkeys = ("r", "s")\n'
                     'angles = ["alpha", "beta", "theta"]\n'
                     'ok = ("first", "alpha", d), "r", (), f"{name}"\n')
    assert schema_literals(tree, *schema_names()) == [
        "family 'dim1' (line 1)",
        "family 'dim4' (line 1)",
        "('r', 's') (line 2)",
        "['alpha', 'beta', 'theta'] (line 3)",
    ]


def uncertified_blocks(tree: ast.Module) -> list:
    """``InvariantBlock(...)`` calls outside ``_certified_block``.

    Every block the package builds carries its restrictions as certified
    rotations, so ``_certified_block`` is the one place that constructs
    one.
    """
    inside = {id(node) for stmt in ast.walk(tree)
              if isinstance(stmt, ast.FunctionDef) and stmt.name == "_certified_block"
              for node in ast.walk(stmt)}
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and id(node) not in inside
             and (node.func.id if isinstance(node.func, ast.Name)
                  else getattr(node.func, "attr", None)) == "InvariantBlock"]
    return [f"{ast.unparse(node)} (line {node.lineno})"
            for node in sorted(calls, key=lambda node: node.lineno)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_blocks_are_built_only_certified(path):
    assert uncertified_blocks(ast.parse(path.read_text())) == []


def test_uncertified_blocks_are_found():
    tree = ast.parse(
        "def _certified_block(b, d, e):\n    return InvariantBlock(b, d.matrix, e.matrix)\n"
        "def step(b, R):\n    return InvariantBlock(b, R, R)\n"
        "x = decompose.InvariantBlock(basis=b, d_restricted=R, e_restricted=R)\n"
        "y = _certified_block(b, d, e)\n"
    )
    assert uncertified_blocks(tree) == [
        "InvariantBlock(b, R, R) (line 4)",
        "decompose.InvariantBlock(basis=b, d_restricted=R, e_restricted=R) (line 5)",
    ]


# the one function that builds each certified type without its constructor
TRUSTED_BUILDERS = {"Rotation": "_trusted", "NormalForm": "_form", "_SpectralForm": "_form",
                    "InvariantBlock": "_certified_block"}


def untrusted_builds(tree: ast.Module) -> list:
    """``__new__`` calls outside the one builder of the class they build.

    A certified rotation, normal form or block skips its constructor's
    checks, so each type has one builder that may do so
    (``TRUSTED_BUILDERS``); a call that builds any other class, or one
    not named plainly, is found wherever it is.
    """
    owner = {id(node): stmt.name for stmt in ast.walk(tree)
             if isinstance(stmt, ast.FunctionDef) for node in ast.walk(stmt)}
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "__new__"
             and not (node.args and isinstance(node.args[0], ast.Name)
                      and TRUSTED_BUILDERS.get(node.args[0].id) == owner.get(id(node)))]
    return [f"{ast.unparse(node)} (line {node.lineno})"
            for node in sorted(calls, key=lambda node: node.lineno)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_each_certified_type_has_one_trusted_builder(path):
    assert untrusted_builds(ast.parse(path.read_text())) == []


def test_untrusted_builds_are_found():
    tree = ast.parse(
        "def _trusted(m, a):\n    return object.__new__(Rotation)\n"
        "def _form(**fields):\n    return object.__new__(NormalForm)\n"
        "def _certified_block(b, d, e):\n    return object.__new__(InvariantBlock)\n"
        "def _certified(m, a):\n    return object.__new__(Rotation)\n"
        "def _trusted_form():\n    return object.__new__(NormalForm)\n"
        "x = object.__new__(InvariantBlock)\n"
        "def _trusted(m):\n    return cls.__new__(cls)\n"
        "y = _trusted(m, a), _form(angles=())\n"
    )
    assert untrusted_builds(tree) == [
        "object.__new__(Rotation) (line 8)",
        "object.__new__(NormalForm) (line 10)",
        "object.__new__(InvariantBlock) (line 11)",
        "cls.__new__(cls) (line 13)",
    ]


def normal_form_checks(tree: ast.Module, owner: str | None = None) -> list:
    """Comparisons of a ``.normal_form`` attribute with None outside ``owner``.

    Whether a rotation's claimed angle or its certificate is used is
    decided in one function, ``decompose._certify_pair``; every step
    after it sees certified rotations only, so no other code asks
    whether a rotation carries its normal form.
    """
    inside = {id(node) for stmt in ast.walk(tree)
              if isinstance(stmt, ast.FunctionDef) and stmt.name == owner
              for node in ast.walk(stmt)}
    checks = [node for node in ast.walk(tree)
              if isinstance(node, ast.Compare) and id(node) not in inside
              and any(isinstance(x, ast.Attribute) and x.attr == "normal_form"
                      for x in (node.left, *node.comparators))
              and any(isinstance(x, ast.Constant) and x.value is None
                      for x in (node.left, *node.comparators))]
    return [f"{ast.unparse(node)} (line {node.lineno})"
            for node in sorted(checks, key=lambda node: node.lineno)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_claim_or_certificate_is_decided_once(path):
    owner = "_certify_pair" if path.name == "decompose.py" else None
    assert normal_form_checks(ast.parse(path.read_text()), owner) == []


def test_normal_form_checks_are_found():
    tree = ast.parse(
        "def _certify_pair(d, e):\n    return d.normal_form is None\n"
        "def step(r):\n    if r.normal_form is None:\n        return r\n"
        "x = [r for r in p if None != r.normal_form]\n"
        "y = r.normal_form or r.angle is None\n"
    )
    assert normal_form_checks(tree, "_certify_pair") == [
        "r.normal_form is None (line 4)",
        "None != r.normal_form (line 6)",
    ]
    assert normal_form_checks(tree) == ["d.normal_form is None (line 2)",
                                        "r.normal_form is None (line 4)",
                                        "None != r.normal_form (line 6)"]


def tolerance_keywords(tree: ast.Module) -> dict:
    """Keyword -> source of every argument of the ``Tolerance(...)`` calls."""
    return {kw.arg: ast.unparse(kw.value) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Tolerance" for kw in node.keywords}


def test_every_tolerance_field_has_a_cli_flag():
    """Each field of ``Tolerance`` is set from a CLI option with its default.

    A field that no caller sets is a knob nobody can turn; it belongs in
    ``linalg`` as a named constant instead.
    """
    from rotpair import DEFAULT_TOL, Tolerance
    from rotpair.cli import build_parser

    keywords = tolerance_keywords(ast.parse((SRC / "cli.py").read_text()))
    assert sorted(keywords) == sorted(f.name for f in fields(Tolerance))
    defaults = build_parser().parse_args(["check", "pair.json"])
    for name, source in keywords.items():
        assert source.startswith("args."), source
        assert getattr(defaults, source[len("args."):]) == getattr(DEFAULT_TOL, name)


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_failing_property_test_is_reported(tmp_path):
    """A failing hypothesis test fails alone; the test run goes on.

    Reporting a failing example imports modules that warn on import,
    and the suite's warning filters must not turn that into a crash.
    """
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=False,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def angle_reads(tree: ast.Module) -> list:
    """``.angle`` attributes read inside a function.

    The eigenplane search judges each plane against the eigenvalue its
    matrix shows, so ``antilinear`` reads matrices only: a hand-built
    rotation's claimed angle cannot reach it.
    """
    reads = {id(node): node for stmt in ast.walk(tree)
             if isinstance(stmt, ast.FunctionDef) for node in ast.walk(stmt)
             if isinstance(node, ast.Attribute) and node.attr == "angle"}
    return [f"{ast.unparse(node)} (line {node.lineno})"
            for node in sorted(reads.values(), key=lambda node: node.lineno)]


def test_eigenplane_search_reads_no_angle():
    assert angle_reads(ast.parse((SRC / "antilinear.py").read_text())) == []


def test_angle_reads_are_found():
    tree = ast.parse(
        "def plane(d):\n    return np.exp(1j * d.angle) * d.matrix\n"
        "def outer(rs):\n    def inner(r):\n        return r.angle\n"
        "    return [r.angles for r in rs], angle\n"
        "x = d.angle\n"
    )
    assert angle_reads(tree) == ["d.angle (line 2)", "r.angle (line 5)"]


FIELD_CHECKERS = {"_check_sign", "_check_angle"}


def field_checks(tree: ast.Module) -> list:
    """Uses of the form-field checkers outside ``_Form.__post_init__``.

    A canonical form checks its signs and angles once, when it is built,
    so no code that reads a form imports, names or calls a checker.
    """
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "_Form"
              for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
              for node in ast.walk(fn)}
    uses = []
    for node in ast.walk(tree):
        # a node that names something: a plain name, an attribute or an import
        field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
        if field and getattr(node, field) in FIELD_CHECKERS and id(node) not in inside:
            uses.append((node.lineno, getattr(node, field)))
    return [f"{name} (line {line})" for line, name in sorted(uses)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_form_fields_are_checked_only_when_built(path):
    assert field_checks(ast.parse(path.read_text())) == []


def test_field_checks_are_found():
    tree = ast.parse(
        "from .classify import _check_sign\n"
        "class _Form:\n    def __post_init__(self):\n"
        "        check = _check_sign if s else _check_angle\n"
        "def realize(form):\n    return _check_angle(form.alpha, 'alpha')\n"
        "key = classify._check_sign(form.r, 'r')\n"
        "def _check_sign(value, name):\n    return value\n"
    )
    assert field_checks(tree) == [
        "_check_sign (line 1)",
        "_check_angle (line 6)",
        "_check_sign (line 7)",
    ]
