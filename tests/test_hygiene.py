"""Source hygiene without a linter: every imported name in the package and
the tests is used.  A name counts as used when it appears as an identifier,
inside a string annotation, or in `__all__`."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qdouble").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
