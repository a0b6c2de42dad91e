"""Source hygiene without a linter.  Every imported name in the package and
the tests is used: a name counts as used when it appears as an identifier,
inside a string annotation, or in `__all__`.  The package's imports run one
way: each module imports only from modules before it in LAYER_ORDER, and
at module level (cli alone defers its `checks` import, to keep it out of
start-up).  Every public function, class and method of the package is named
somewhere else in the package (a method as an attribute), except the
KEPT_PUBLIC names.  No module reads a private attribute `x._name`, or
imports a private name `_name`, that only other modules define.  No module
calls `json.dump`/`json.dumps` with an `indent=` keyword: indented JSON comes
from `cli._dumps`, whole or, for the rows of `basis`, as fragments spliced
into each row.  No module
holds an `assert` statement, which `python -O` strips, outside the
ASSERT_ALLOWED internal invariants: an input check raises.  No module but
`halves` calls `pairing_rows` or reads the pivot rows `DegreeBasis.rows`:
the rows stay behind the pivot layer, and other modules pair through
`HalfAlgebra.pair` and `pairing_block`.  No module but `halves` calls
`words_of_degree`: the other layers work on pivot words.  The CLI run under `python -O` gives
the same answers."""
import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qdouble").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))

LAYER_ORDER = (
    "scalar",
    "linalg",
    "cartan",
    "halves",
    "double",
    "braid",
    "lusztig",
    "canbasis",
    "algebra",
    "rst",
    "sl2oracle",
    "checks",
    "cli",
    "__init__",
)
DEFERRED_IMPORTS = {"cli"}

# public names that no package code calls: paper-facing objects and oracle
# entries the tests check, and serialization entry points
KEPT_PUBLIC = {
    "basis_elem",
    "bullet_factored",
    "cheb_product",
    "epsilon_stat",
    "lambda_closed",
    "brace",
    "lambda_act",
    "psi_rescale",
    "reduced_words",
    "module_from_obj",
    "half_to_obj",
    "tri_from_obj",
}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
        ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    src = 'import os\nfrom x import a, b as c\nfrom __future__ import annotations\n__all__ = ["a"]\n'
    assert unused_imports(src) == [(1, "os"), (2, "c")]
    assert unused_imports('from x import T\ndef f(y: "T") -> None:\n    pass\n') == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def package_import_faults(module: str, source: str) -> list:
    """(line, fault) for each relative import of `module` that sits inside a
    function or class, or names a module not before it in LAYER_ORDER."""
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    faults = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        if id(node) not in top and module not in DEFERRED_IMPORTS:
            faults.append((node.lineno, "not at module level"))
        targets = [node.module] if node.module else [alias.name for alias in node.names]
        for target in targets:
            if target not in LAYER_ORDER[: LAYER_ORDER.index(module)]:
                faults.append((node.lineno, f"imports {target}"))
    return faults


def test_layer_order_names_every_module():
    assert sorted(LAYER_ORDER) == sorted(p.stem for p in PACKAGE)


def test_scan_finds_import_faults():
    src = "from .scalar import Rat\nfrom . import linalg\ndef f():\n    from .halves import PLUS\n"
    assert package_import_faults("double", src) == [(4, "not at module level")]
    assert package_import_faults("linalg", src) == [
        (2, "imports linalg"),
        (4, "not at module level"),
        (4, "imports halves"),
    ]
    assert package_import_faults("cli", src) == []
    assert package_import_faults("double", "from .canbasis import CanonicalTables\n") == [(1, "imports canbasis")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_run_one_way(path):
    assert package_import_faults(path.stem, path.read_text()) == []


def unreferenced_public(sources: dict) -> list:
    """(module, name) for each public function, class or method defined in
    `sources` ({module: text}) that no code outside its own body names.  A
    function or class counts as named by an identifier or an attribute, a
    method only by an attribute: a local or a parameter of the same name
    does not call it."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    names: dict = {}
    attrs: dict = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append(node)
    out = []
    for module, tree in trees.items():
        defs = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        methods = [m for c in defs if isinstance(c, ast.ClassDef) for m in c.body if isinstance(m, ast.FunctionDef)]
        for node in defs + methods:
            if node.name.startswith("_"):
                continue
            refs = attrs.get(node.name, []) + ([] if node in methods else names.get(node.name, []))
            inside = set(map(id, ast.walk(node)))
            if all(id(r) in inside for r in refs):
                out.append((module, node.name))
    return sorted(out)


def test_scan_finds_unreferenced_names():
    a = (
        "def f():\n    return g()\n"
        "def g():\n    return 1\n"
        "def h(n):\n    return h(n - 1)\n"
        "class C:\n    def m(self):\n        pass\n    def k(self):\n        pass\n"
        "    def _p(self):\n        pass\n"
        "    def n(self):\n        pass\n"
    )
    b = "from .a import C\nC().m()\n"
    assert unreferenced_public({"a": a, "b": b}) == [("a", "f"), ("a", "h"), ("a", "k"), ("a", "n")]
    assert unreferenced_public({"a": a, "b": b + "C().n()\n"}) == [("a", "f"), ("a", "h"), ("a", "k")]


def test_every_public_name_is_referenced():
    found = unreferenced_public({p.stem: p.read_text() for p in PACKAGE})
    assert [f for f in found if f[1] not in KEPT_PUBLIC] == []
    assert sorted(KEPT_PUBLIC - {name for _, name in found}) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def foreign_private_reads(sources: dict) -> list:
    """(module, line, name) for each read of an attribute `x._name`, or
    import `from .mod import _name`, in `sources` ({module: text}) whose
    `_name` the reading module does not define but another one does: as a
    function, method or class, or as an assigned name or attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = {}
    for module, tree in trees.items():
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
        defined[module] = {name for name in names if _private(name)}
    out = []
    for module, tree in trees.items():
        elsewhere = set().union(*(names for other, names in defined.items() if other != module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                read = [alias.name for alias in node.names]
            else:
                continue
            out += [(module, node.lineno, name) for name in read if name in elsewhere - defined[module]]
    return sorted(out)


def test_scan_finds_foreign_private_reads():
    a = (
        "class A:\n    def __init__(self):\n        self._x = 1\n"
        "    def _m(self):\n        return self._x\n"
    )
    b = "def f(a, o):\n    return a._m(), a._x, o._other, a.__init__\n"
    assert foreign_private_reads({"a": a, "b": b}) == [("b", 2, "_m"), ("b", 2, "_x")]
    assert foreign_private_reads({"a": a, "b": b + "def _m():\n    pass\n"}) == [("b", 2, "_x")]


def test_scan_finds_foreign_private_imports():
    a = "def _f():\n    pass\n_K = {}\ndef g():\n    pass\n"
    b = "from .a import _K, g\nfrom math import gcd as _gcd\nfrom .a import _f as f\n"
    assert foreign_private_reads({"a": a, "b": b}) == [("b", 1, "_K"), ("b", 3, "_f")]
    assert foreign_private_reads({"a": a, "b": b + "_K = 1\n"}) == [("b", 3, "_f")]


def test_no_foreign_private_reads():
    assert foreign_private_reads({p.stem: p.read_text() for p in PACKAGE}) == []


def indented_dumps_calls(source: str) -> list:
    """Lines of the calls `dump(...)`/`dumps(...)`, plain or as an attribute,
    that pass an `indent=` keyword."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
        and any(kw.arg == "indent" for kw in node.keywords)
    )


def test_scan_finds_indented_dumps():
    src = (
        "import json\nfrom json import dumps\n"
        "json.dumps(x, indent=1, sort_keys=True)\n"
        "dumps(x, indent=None)\njson.dump(x, fh, indent=2)\n"
        "json.dumps(x, sort_keys=True)\n_dumps(x)\n"
    )
    assert indented_dumps_calls(src) == [3, 4, 5]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_one_indented_json_writer(path):
    assert indented_dumps_calls(path.read_text()) == []


def callers_outside_halves(sources: dict, name: str) -> list:
    """(module, line) of each call `name(...)`, plain or as an attribute, in
    a module of `sources` ({module: text}) other than halves."""
    return sorted(
        (module, node.lineno)
        for module, text in sources.items()
        if module != "halves"
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
    )


def test_scan_finds_pairing_rows_callers():
    src = "rows = alg.pairing_rows(g)\nbasis.rows[p]\npairing_rows(g)\nf(alg.pairing_rows)\n"
    sources = {"halves": src, "canbasis": src}
    assert callers_outside_halves(sources, "pairing_rows") == [("canbasis", 1), ("canbasis", 3)]


def test_pairing_rows_called_in_halves_only():
    assert callers_outside_halves({p.stem: p.read_text() for p in PACKAGE}, "pairing_rows") == []


def test_scan_finds_words_of_degree_callers():
    src = "ws = half.words_of_degree(g)\nhalf.degree_basis(g).words\nwords_of_degree(g)\nf(half.words_of_degree)\n"
    sources = {"halves": src, "canbasis": src}
    assert callers_outside_halves(sources, "words_of_degree") == [("canbasis", 1), ("canbasis", 3)]


def test_words_of_degree_called_in_halves_only():
    # DCB coordinates are read on pivot words; only halves lists every word
    assert callers_outside_halves({p.stem: p.read_text() for p in PACKAGE}, "words_of_degree") == []


def pivot_rows_readers(sources: dict) -> list:
    """(module, line) of each read of an attribute `rows` (the pivot rows
    `DegreeBasis.rows`) in a module of `sources` ({module: text}) other
    than halves."""
    return sorted(
        (module, node.lineno)
        for module, text in sources.items()
        if module != "halves"
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr == "rows"
    )


def test_scan_finds_pivot_rows_readers():
    src = "basis.rows[p]\nrows = alg.pairing_rows(g)\nf(alg.degree_basis(g).rows)\nbasis.rows = {}\n"
    assert pivot_rows_readers({"halves": src, "canbasis": src}) == [("canbasis", 1), ("canbasis", 3)]


def test_pivot_rows_read_in_halves_only():
    # pair and the twisted form read them through HalfAlgebra.pairing_block
    assert pivot_rows_readers({p.stem: p.read_text() for p in PACKAGE}) == []


# (module, enclosing function) of the `assert` statements that state internal
# invariants, not input checks: the remainder degree of a pseudo-division
ASSERT_ALLOWED = {("scalar", "laurent_gcd")}


def assert_sites(source: str) -> list:
    """(line, qualified name of the enclosing function or class, "" at module
    level) of each `assert` statement."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                out.append((child.lineno, where))
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            visit(child, inner)

    visit(ast.parse(source), "")
    return sorted(out)


def test_scan_finds_asserts():
    src = (
        "assert a\nclass C:\n    def m(self):\n        assert b, 'why'\n"
        "        def inner():\n            if c:\n                assert d\n"
        "def f():\n    return 1\n"
    )
    assert assert_sites(src) == [(1, ""), (4, "C.m"), (7, "C.m.inner")]
    assert assert_sites("def f(x):\n    if not x:\n        raise ValueError(x)\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_assert_outside_the_allowlist(path):
    sites = assert_sites(path.read_text())
    assert [(line, where) for line, where in sites if (path.stem, where) not in ASSERT_ALLOWED] == []


def test_assert_allowlist_names_live_sites():
    live = {(p.stem, where) for p in PACKAGE for _, where in assert_sites(p.read_text())}
    assert ASSERT_ALLOWED <= live


def test_cli_under_optimize():
    # the scan above reads the source; this runs it with asserts stripped
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "QDOUBLE_CACHE_DIR")}
    env["PYTHONPATH"] = str(ROOT / "src")

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-O", "-m", "qdouble.cli", *argv], capture_output=True, text=True, env=env
        )

    verify = cli("verify", "sl2")
    assert verify.returncode == 0 and verify.stdout.endswith("\n8/8 checks passed\n")
    basis = cli("basis", "--preset", "A2", "--height", "1")
    assert basis.returncode == 0
    assert hashlib.sha256(basis.stdout.encode()).hexdigest() == (
        "ff3633646a4932b9be34d05a96eacac70da1595e5caefd2cd12ddc6b63523271"
    )
