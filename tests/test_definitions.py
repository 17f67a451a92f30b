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
