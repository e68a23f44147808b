"""The module graph keeps the formula route and the oracle route apart.

The two routes are compared to check each other, so they may share no
code past the arithmetic layer: ``qnumbers`` is the formula route,
``ordering`` the whole oracle route, and ``verify`` compares what they
return without reaching into the rewrite engine.  The tests' own
arithmetic, ``tests/reference.py``, shares no code with the package.
"""

import ast
import os
import subprocess
import sys

import qexpand
from qexpand import exactarith, freealgebra

PACKAGE = os.path.dirname(qexpand.__file__)
TESTS = os.path.dirname(os.path.abspath(__file__))

# operators no route reached; the tests build their values in reference.py
DELETED = {
    exactarith.IntPolynomial: {"monomial", "__sub__", "__pow__", "__rmul__"},
    exactarith.RationalFunction: {"__sub__", "__neg__"},
    freealgebra.NCPolynomial: {
        "one",
        "__add__",
        "__sub__",
        "__neg__",
        "scale",
        "__rmul__",
    },
}


def _relative_imports(module):
    """{imported module: names} over the ``from .x import`` lines of a module."""
    with open(os.path.join(PACKAGE, f"{module}.py")) as source:
        tree = ast.parse(source.read())
    imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = imports.setdefault(node.module, set())
            names.update(alias.name for alias in node.names)
    return imports


def test_every_module_is_parsed():
    assert set(_relative_imports("verify")) >= {"exactarith", "ordering", "qnumbers"}


def test_the_oracle_route_uses_no_formula_code():
    assert set(_relative_imports("ordering")) <= {"exactarith", "freealgebra"}


def test_the_formula_route_uses_no_oracle_code():
    assert not set(_relative_imports("qnumbers")) & {"ordering", "freealgebra"}


def test_verify_reaches_no_private_name_of_the_engine():
    names = _relative_imports("verify")["ordering"]
    assert not [name for name in names if name.startswith("_")]


def test_cold_import_loads_no_dataclasses_or_inspect():
    # pytest has loaded both already, so only a fresh interpreter can tell
    source = os.path.dirname(PACKAGE)
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    probe = (
        "import sys, qexpand.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.stdout == "[]\n"


def test_only_the_oracle_route_packs():
    # a codec shared with the formula route or the arithmetic layer would
    # let one fault hide in both routes
    packers = set()
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, filename)) as source:
            tree = ast.parse(source.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [n for a in node.names for n in (a.name, a.asname) if n]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            else:
                continue
            if any(name.startswith("kronecker_") for name in names):
                packers.add(filename[: -len(".py")])
    assert packers == {"ordering"}


def test_the_reference_imports_only_the_standard_library():
    # so no package code reaches the tests' expected values; the workflow
    # also runs the file in a fresh interpreter, which sees every path
    with open(os.path.join(TESTS, "reference.py")) as source:
        tree = ast.parse(source.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported
    assert {name.split(".")[0] for name in imported} <= sys.stdlib_module_names


def test_no_deleted_operator_returns():
    # the scalar branches of the kept products are gone too; the value
    # tests check that both raise TypeError
    for cls, names in DELETED.items():
        assert not names & set(vars(cls)), cls.__name__
    assert not hasattr(exactarith, "Q")
