"""Two lints over the package's use of private names.

No module-level private function is left that only tests use: a `_helper`
defined at the top of a module in `src/leafspan` must be named somewhere in
the package outside its own `def`, as a name, an attribute or an imported
name.  A helper that only the tests call is code the program does not run.

No code writes another object's private attribute: an assignment to
`x._name` is allowed only when x is `self` or `cls`.  An object's private
state then has one writer, its own class.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "leafspan"


def _named(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """`module:name` of each module-level `_private` function in `sources`
    that no code in `sources` names outside the function's own body."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    named = Counter(_named(n) for tree in trees.values() for n in ast.walk(tree))
    return [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and named[node.name] == sum(_named(n) == node.name for n in ast.walk(node))
    ]


def test_the_check_finds_a_helper_nothing_calls():
    source = (
        "import m\n"
        "def _called(): pass\n"
        "def _by_attribute(): pass\n"
        "def _only_itself(): return _only_itself()\n"
        "def __dunder__(): pass\n"
        "def run(): return _called() + m._by_attribute()\n"
    )
    other = "from .m import _imported\n"
    lib = "def _imported(): pass\ndef _dead(): pass\n"
    found = unreferenced_helpers({"m.py": source, "other.py": other, "lib.py": lib})
    assert found == ["m.py:_only_itself", "lib.py:_dead"]


def test_every_private_helper_is_used_by_the_package():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_helpers(sources) == []


def private_writes(sources: dict[str, str]) -> list[str]:
    """`module:line target` of each write in `sources` to an attribute
    starting with `_` on anything but the bare name `self` or `cls`.  Every
    attribute an assignment, augmented or annotated assignment or loop
    target writes is parsed with a `Store` context."""
    return sorted(
        f"{module}:{t.lineno} {ast.unparse(t)}"
        for module, text in sources.items()
        for t in ast.walk(ast.parse(text))
        if isinstance(t, ast.Attribute)
        and isinstance(t.ctx, ast.Store)
        and t.attr.startswith("_")
        and not (isinstance(t.value, ast.Name) and t.value.id in ("self", "cls"))
    )


def test_the_check_finds_a_private_write_from_outside():
    source = (
        "class A:\n"
        "    def f(self, other):\n"
        "        self._own = other.public = 1\n"
        "        other._theirs = 2\n"
        "        other._count += 1\n"
        "        other._typed: int = 3\n"
        "        a, self.child._deep = 4, 5\n"
        "        for other._item in (): pass\n"
        "        return other._theirs\n"
        "    @classmethod\n"
        "    def g(cls):\n"
        "        cls._shared = 6\n"
    )
    assert private_writes({"m.py": source}) == [
        "m.py:4 other._theirs",
        "m.py:5 other._count",
        "m.py:6 other._typed",
        "m.py:7 self.child._deep",
        "m.py:8 other._item",
    ]


def test_no_package_code_writes_another_objects_private_state():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert private_writes(sources) == []
