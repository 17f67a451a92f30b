"""Every function, method and class under src/mutlab is named somewhere in
src/mutlab, so code that nothing calls does not stay behind.

Only the standard library `ast` module is used: a definition counts as used
when its name appears in any module as a `Name` or as an attribute. An
`__all__` export list is not a use: a definition that only a package
exports is called by nothing in src/mutlab. Dunder methods are called by
Python itself and are not checked. `USED_OUTSIDE` lists the definitions
that only the tests or the benchmark use.
"""

import ast
from pathlib import Path

import mutlab

SRC = Path(mutlab.__file__).parent
USED_OUTSIDE: set[str] = set()


def definitions(tree: ast.Module, prefix: str = ""):
    """(qualified name, name) of each function and class, nested included."""
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
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted(qual for tree in trees for qual, name in definitions(tree)
                  if name not in named and qual not in USED_OUTSIDE
                  and not (name.startswith("__") and name.endswith("__")))


def test_unused_definition_is_flagged():
    src = ("class A:\n    def used(self): pass\n    def idle(self): pass\n"
           "    def __repr__(self): pass\n"
           "def f():\n    def inner(): pass\n    return A().used\n"
           "def g(): pass\n__all__ = ['g']\n")
    assert unused_definitions([src]) == ["A.idle", "f", "f.inner", "g"]


def test_no_unused_definitions():
    sources = [p.read_text() for p in sorted(SRC.rglob("*.py"))]
    assert unused_definitions(sources) == []
