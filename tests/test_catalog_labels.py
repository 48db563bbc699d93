"""Every step label the engine can plan has a catalog row, and every row but Z0
and the lift's two is planned.

The labels are read from `builder.py`'s source, in the functions that plan
steps and in `_expand`, which commits A1 and A2 without a plan: the first
argument of each `StepPlan(...)` and `_plan(...)` call and the label
argument of each `_commit(g, f, label, ...)`.  A label is a string, a
conditional of labels, a local name bound only to labels, or `lab(...)` of
one, which `_plan_chain` makes the M or N row of a chain sub-case.
Anything else is refused, so no label escapes the check unseen.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import pytest

from leafspan.ledger import TABLE_FLOORS

BUILDER = Path(__file__).resolve().parents[1] / "src" / "leafspan" / "builder.py"
PLANNERS = ("next_step", "_plan_chain", "split_z4", "_expand")


def _called(call: ast.Call) -> str | None:
    return call.func.id if isinstance(call.func, ast.Name) else None


def _label_arg(call: ast.Call) -> ast.expr | None:
    """The label expression of a call that makes a plan or commits a step,
    else None."""
    name, args = _called(call), call.args
    if name in ("StepPlan", "_plan") and args:
        return args[0]
    if name == "_commit" and len(args) >= 3:
        return args[2]
    return None


def _labels(node: ast.expr, bound: dict[str, list[ast.expr]]) -> set[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _labels(node.body, bound) | _labels(node.orelse, bound)
    if isinstance(node, ast.Name) and bound[node.id]:
        return set().union(*(_labels(value, bound) for value in bound[node.id]))
    if isinstance(node, ast.Call) and _called(node) == "lab" and len(node.args) == 1:
        return {kind + case for case in _labels(node.args[0], bound) for kind in "MN"}
    raise ValueError(f"line {node.lineno}: label {ast.unparse(node)} is not resolvable")


def planned_labels(source: str) -> set[str]:
    """Every label the planning functions and `_expand` in `source` can
    give a step."""
    found: set[str] = set()
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in PLANNERS):
            continue
        bound: dict[str, list[ast.expr]] = defaultdict(list)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound[target.id].append(node.value)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and (arg := _label_arg(node)) is not None:
                found |= _labels(arg, bound)
    return found


def test_the_check_reads_every_form_of_label():
    source = (
        "def next_step(g, f):\n"
        "    label = 'Z2.2' if b else 'Z2.1'\n"
        "    if c:\n"
        "        return _plan(label, att)\n"
        "    return StepPlan('Z4', att, du, db)\n"
        "def _plan_chain(g, f, x, kind):\n"
        "    return _plan(lab('4.1.1' if c else '4.1.2'), att)\n"
        "def _expand(g, f):\n"
        "    if a:\n"
        "        label = 'A1'\n"
        "    else:\n"
        "        label = 'A2'\n"
        "    return _commit(g, f, label, att, added, du, db)\n"
        "def not_a_planner():\n"
        "    _commit(g, f, 'Q', att, added, du, db)\n"
        "    return _plan('Q', att)\n"
    )
    assert planned_labels(source) == {
        "A1", "A2", "Z2.1", "Z2.2", "Z4", "M4.1.1", "M4.1.2", "N4.1.1", "N4.1.2",
    }
    with pytest.raises(ValueError, match="label pick\\(\\) is not resolvable"):
        planned_labels("def next_step(g, f):\n    return _plan(pick(), att)\n")
    with pytest.raises(ValueError, match="label pick\\(\\) is not resolvable"):
        planned_labels(
            "def _expand(g, f):\n    return _commit(g, f, pick(), att, added, 1, 0)\n"
        )


def test_an_unknown_label_committed_by_expand_is_caught():
    # the check below, on builder.py with A2's `_commit` renamed to a
    # label that has no row
    source = BUILDER.read_text()
    call = '_commit(g, f, "A2", '
    assert source.count(call) == 1
    planned = planned_labels(source.replace(call, '_commit(g, f, "A9", '))
    assert planned - TABLE_FLOORS.keys() == {"A9"}
    assert TABLE_FLOORS.keys() - planned == {"Z0", "R1-undo", "R2-undo", "A2"}


def test_every_planned_label_has_a_row_and_every_row_is_planned():
    planned = planned_labels(BUILDER.read_text())
    assert planned - TABLE_FLOORS.keys() == set()
    # a Z0 record is logged for each death beyond a row's db, and the lift
    # logs the undo records; neither is planned
    assert TABLE_FLOORS.keys() - planned == {"Z0", "R1-undo", "R2-undo"}
