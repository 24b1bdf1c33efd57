"""Static checks on the package source, with the standard library's ast."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "entlab"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_checker_finds_unused_names():
    tree = ast.parse("import os.path\nimport numpy as np\nfrom a import b, c as d\nprint(b, np)")
    assert unused_imports(tree) == ["d", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


# the step sizes and stopping thresholds of search._ascend and its callers
ASCENT_PARAMETERS = {"search.py": {1e-5, 1e-6, 1e-12, 1e-14}}


def stray_tolerances(tree: ast.Module, allowed=frozenset()) -> list[float]:
    """Float literals in (0, 1e-3] that are neither an argument of a
    ``_tol(...)`` call, the one table of thresholds, nor in ``allowed``."""
    registered = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_tol":
            registered.update(map(id, node.args))
    return sorted(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < node.value <= 1e-3
        and id(node) not in registered
        and node.value not in allowed
    )


def test_checker_finds_stray_tolerances():
    tree = ast.parse(
        'A = _tol("A", 1e-9, "x")\n'
        "step, big, floor, gain = 1e-5, 0.01, 1e-12, 1e-3\n"
        "f(1e-9, tol=2e-4)\n"
        'B = _tol("B", max(1e-7, 0.1), "x")'
    )
    # a value inside a _tol argument's expression is not the registered value
    assert stray_tolerances(tree, {1e-12}) == [1e-9, 1e-7, 1e-5, 2e-4, 1e-3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_tolerance_is_in_the_table(path):
    tree = ast.parse(path.read_text())
    assert stray_tolerances(tree, ASCENT_PARAMETERS.get(path.name, set())) == []
