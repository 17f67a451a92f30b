"""Every function, method and class under src/mutlab is named somewhere in
src/mutlab, and every module-level constant is read somewhere in it, so
code that nothing calls and data that nothing reads do not stay behind.

Only the standard library `ast` module is used: a definition counts as used
when its name appears in any module as a `Name` that is read or as an
attribute; a constant's own assignment does not read it. An
`__all__` export list is not a use: a definition that only a package
exports is called by nothing in src/mutlab. Dunder methods are called by
Python itself and are not checked. `USED_OUTSIDE` lists the definitions
that only the tests or the benchmark use.

A module-level import is flagged when nothing in its own module reads the
name it binds, so a stale import does not stay behind either. A package's
`__init__.py` imports to re-export and is not checked.
"""

import ast
from pathlib import Path

import mutlab

SRC = Path(mutlab.__file__).parent
USED_OUTSIDE: set[str] = set()


def definitions(tree: ast.Module):
    """(qualified name, name) of each module-level constant, and of each
    function and class, nested included."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target]):
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name.id
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    child.qualname = f"{node.name}.{child.name}"
            yield getattr(node, "qualname", node.name), node.name


def unused_definitions(sources: list[str]) -> list[str]:
    trees = [ast.parse(src) for src in sources]
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted(qual for tree in trees for qual, name in definitions(tree)
                  if name not in named and qual not in USED_OUTSIDE
                  and not (name.startswith("__") and name.endswith("__")))


def test_unused_definition_is_flagged():
    src = ("READ = 1\nIDLE: int = 2\nPAIR, LEFT = 3, 4\n"
           "class A:\n    def used(self): pass\n    def idle(self): pass\n"
           "    def __repr__(self): pass\n"
           "def f():\n    def inner(): pass\n    return A().used, READ, PAIR\n"
           "def g(): pass\n__all__ = ['g']\n")
    assert unused_definitions([src]) == ["A.idle", "IDLE", "LEFT", "f",
                                         "f.inner", "g"]


def test_no_unused_definitions():
    sources = [p.read_text() for p in sorted(SRC.rglob("*.py"))]
    assert unused_definitions(sources) == []


def unused_imports(src: str) -> list[str]:
    """The names that the module-level imports of `src` bind and that
    nothing in it reads (`from __future__` imports excepted)."""
    tree = ast.parse(src)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store)}
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
    return [name for name in bound if name not in read]


def test_unused_import_is_flagged():
    src = ("from __future__ import annotations\nimport os.path\n"
           "import json as js\nfrom a import (b, c as d, e)\n"
           "def f(x: e):\n    return b(x)\n")
    assert unused_imports(src) == ["os", "js", "d"]


def test_no_unused_imports():
    flagged = {str(p.relative_to(SRC)): unused_imports(p.read_text())
               for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"}
    assert {path: names for path, names in flagged.items() if names} == {}
