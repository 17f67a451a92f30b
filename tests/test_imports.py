"""Every module under src/mutlab uses each name it imports.

The package `__init__.py` files are re-export lists and are not checked.
Only the standard library `ast` module is used: a name counts as used when
it appears as a `Name` anywhere in the module, or in its `__all__`.
"""

import ast
from pathlib import Path

import pytest

import mutlab

SRC = Path(mutlab.__file__).parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_unused_import_is_flagged():
    src = "import os\nfrom a import b, c as d\nprint(os, d)\n"
    assert unused_imports(src) == ["line 2: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
