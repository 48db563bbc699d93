"""No module-level private function of the package is left that only tests use.

A `_helper` defined at the top of a module in `src/leafspan` must be named
somewhere in the package outside its own `def`: as a name, an attribute or
an imported name.  A helper that only the tests call is code the program
does not run.
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
