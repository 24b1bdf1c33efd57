"""Static checks on the package source, with the standard library's ast
(and numpy's dtype parser, to tell a string that names a complex dtype)."""

import ast
import warnings
from pathlib import Path

import numpy as np
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
ASCENT_PARAMETERS = {"search.py": {1e-12, 1e-14}}


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


@pytest.mark.parametrize("name", sorted(ASCENT_PARAMETERS))
def test_every_allowed_literal_is_in_the_code(name):
    # an entry the code no longer uses leaves the allowlist with it
    tree = ast.parse((SRC / name).read_text())
    floats = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and type(node.value) is float}
    assert sorted(ASCENT_PARAMETERS[name] - floats) == []


def _name(node: ast.expr):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _unbounded(decorator: ast.expr) -> bool:
    """True for ``cache`` and ``lru_cache(maxsize=None)`` (or
    ``lru_cache(None)``), bare or as attributes of ``functools``."""
    if not isinstance(decorator, ast.Call):
        return _name(decorator) == "cache"
    size = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return _name(decorator.func) == "lru_cache" and any(
        isinstance(v, ast.Constant) and v.value is None for v in size
    )


def unbounded_memos(tree: ast.Module) -> list[str]:
    """Each function with an unbounded memo that has a parameter not
    annotated ``int``.  Such a memo keyed on a float (s, J, g) would grow
    for the life of the process, one entry per value visited."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and any(map(_unbounded, node.decorator_list)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if not all(_name(p.annotation) == "int" for p in params):
                found.append(node.name)
    return sorted(found)


def test_checker_finds_unbounded_memos_off_integers():
    tree = ast.parse(
        "@lru_cache(maxsize=None)\ndef layout(d: int, n: int): pass\n"
        "@lru_cache(maxsize=None)\ndef spectra(n: int, J: float): pass\n"
        "@functools.lru_cache(None)\ndef untyped(n): pass\n"
        "@cache\ndef cached(s: float): pass\n"
        "@lru_cache(maxsize=None)\ndef spread(*sizes: int, **kw: int): pass\n"
        "@lru_cache(maxsize=None)\ndef star(n: int, *rest): pass\n"
        "@lru_cache(maxsize=2)\ndef bounded(n: int, J: float): pass\n"
        "@lru_cache\ndef default(s: float): pass\n"
        "@other(maxsize=None)\ndef unrelated(s: float): pass\n"
    )
    assert unbounded_memos(tree) == ["cached", "spectra", "star", "untyped"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_unbounded_memos_are_keyed_on_integers(path):
    # a memo keyed on floats carries a finite maxsize
    assert unbounded_memos(ast.parse(path.read_text())) == []


# public names no code in src/entlab reads, kept for the tests and entbench
KEPT_UNREAD = {
    "trace_norm": "the trace-norm oracle of criteria 5 and 6 and the operator tests",
    "lambda_functional": "the oracle -i Tr(H [X, log Y]) the closed-form maximum must attain",
}


def _definitions(tree: ast.Module):
    """(name, code) of each module-level function and class and, as
    ``Class.method``, of each method but the dunders.  A class's code is its
    bases, decorators and body less those methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, [node]
        elif isinstance(node, ast.ClassDef):
            methods = [
                m for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
            ]
            yield node.name, [n for n in node.body if n not in methods] + node.bases + node.decorator_list
            for m in methods:
                yield f"{node.name}.{m.name}", [m]


def _reads(nodes) -> set[str]:
    """Names read in ``nodes``, as a variable or as an attribute."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
    return out


def unread_definitions(trees: dict[str, ast.Module], kept=frozenset()) -> list[str]:
    """``module.name`` of each definition (``_definitions``) whose name no
    live code reads.  Module-level code is live, and so is the code of a
    definition that is read or named in ``kept``; a definition's reads of
    itself, or of its own class, do not count."""
    top, reads = set(), {}
    for module, tree in trees.items():
        top |= _reads(n for n in tree.body if not isinstance(n, (ast.FunctionDef, ast.ClassDef)))
        for name, code in _definitions(tree):
            reads[f"{module}.{name}"] = _reads(code) - set(name.split("."))
    live = set(reads)
    while True:
        read = top.union(kept, *(reads[d] for d in live))
        now = {d for d in live if d.rsplit(".", 1)[1] in read}
        if now == live:
            return sorted(set(reads) - live)
        live = now


def test_checker_finds_unread_definitions():
    tree = ast.parse(
        "def used(): return helper()\n"
        "def helper(): return 1\n"
        "def dead(): return Orphan.make()\n"
        "class Orphan:\n"
        "    def make(self): return Orphan()\n"
        "    def __repr__(self): return kept_by_repr()\n"
        "def kept_by_repr(): return 0\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def oracle(): return 0\n"
        "class Kept:\n"
        "    def run(self): pass\n"
        "used()\n"
        "Kept().run()\n"
    )
    # what only dead code reads is dead too; a dunder counts as its class
    assert unread_definitions({"m": tree}, kept={"oracle"}) == [
        "m.Orphan", "m.Orphan.make", "m.dead", "m.kept_by_repr", "m.recursive"
    ]


def _source_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_definition_is_read():
    assert unread_definitions(_source_trees(), KEPT_UNREAD) == []


def test_every_kept_name_is_unread():
    # an entry that live code reads leaves the allowlist
    trees = _source_trees()
    read = [
        name for name in KEPT_UNREAD
        if not any(d.rsplit(".", 1)[1] == name for d in unread_definitions(trees, set(KEPT_UNREAD) - {name}))
    ]
    assert read == []


# numpy's complex scalar types whose names do not say "complex"
COMPLEX_TYPE_NAMES = {"cdouble", "csingle", "clongdouble", "cfloat"}


def _names_complex_dtype(text: str) -> bool:
    """True when numpy reads ``text`` as a complex dtype ("D", "c16", ...)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return np.dtype(text).kind == "c"
        except (TypeError, ValueError, SyntaxError):
            return False


def complex_arithmetic(tree: ast.Module) -> list[str]:
    """Each complex literal, name of a complex type (as a name or an
    attribute) or string numpy reads as a complex dtype, as
    "line: source"."""
    found = []
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        value = node.value if isinstance(node, ast.Constant) else None
        if (
            isinstance(value, complex)
            or (isinstance(value, str) and _names_complex_dtype(value))
            or (name is not None and ("complex" in name.lower() or name in COMPLEX_TYPE_NAMES))
        ):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return sorted(set(found), key=lambda s: int(s.split(":")[0]))


def test_checker_finds_complex_arithmetic():
    tree = ast.parse(
        "a = 1j * r\n"
        "b = np.zeros(3, dtype=complex)\n"
        "c = r.astype(np.complex128)\n"
        'd = r.astype("c16")\n'
        "e = np.cdouble(2.0) + 0.5\n"
        "f = 2.0 + 3.5\n"
        'g = "a docstring that names the complex plane"\n'
        "class T:\n"
        "    def mat(self):\n"
        "        return 1j * self.R\n"
        "    def other(self):\n"
        "        return self.R.astype('D')\n"
    )
    assert complex_arithmetic(tree) == [
        "1: 1j",
        "2: complex",
        "3: np.complex128",
        "4: 'c16'",
        "5: np.cdouble",
        "10: 1j",
        "12: 'D'",
    ]


def test_chains_arithmetic_is_real():
    # chains.py forms no complex number: the transport generator is held as R
    assert complex_arithmetic(ast.parse((SRC / "chains.py").read_text())) == []
