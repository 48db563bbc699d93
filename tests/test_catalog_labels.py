"""Every step label the engine can plan has a catalog row, every row but Z0
and the lift's two is planned, and `builder.py` reads a row only in
`_commit` and where it makes the shared Z0 record.

The labels are read from `builder.py`'s source, in the functions that plan
steps and in `_expand`, which commits A1 and A2 without a plan: the first
argument of each `StepPlan(...)` call and the label argument of each
`_commit(g, f, label, ...)`.  A label is a string, a conditional of labels,
a local name bound only to labels, or `lab(...)` of one, which
`_plan_chain` makes the M or N row of a chain sub-case.  Anything else is
refused, so no label escapes the check unseen.
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
    if name == "StepPlan" and args:
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
        "        return StepPlan(label, att)\n"
        "    return StepPlan('Z4', tuple(att))\n"
        "def _plan_chain(g, f, x, kind):\n"
        "    return StepPlan(lab('4.1.1' if c else '4.1.2'), att)\n"
        "def _expand(g, f):\n"
        "    if a:\n"
        "        label = 'A1'\n"
        "    else:\n"
        "        label = 'A2'\n"
        "    return _commit(g, f, label, att, added)\n"
        "def not_a_planner():\n"
        "    _commit(g, f, 'Q', att, added)\n"
        "    return StepPlan('Q', att)\n"
    )
    assert planned_labels(source) == {
        "A1", "A2", "Z2.1", "Z2.2", "Z4", "M4.1.1", "M4.1.2", "N4.1.1", "N4.1.2",
    }
    with pytest.raises(ValueError, match="label pick\\(\\) is not resolvable"):
        planned_labels("def next_step(g, f):\n    return StepPlan(pick(), att)\n")
    with pytest.raises(ValueError, match="label pick\\(\\) is not resolvable"):
        planned_labels(
            "def _expand(g, f):\n    return _commit(g, f, pick(), att, added)\n"
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


def row_readers(source: str) -> set[str]:
    """The top-level statements of `source` that name `TABLE_FLOORS`: a
    function or class by its name, an assignment to one name by that name,
    any other statement by its line."""
    found: set[str] = set()
    for stmt in ast.parse(source).body:
        names = (node.id for node in ast.walk(stmt) if isinstance(node, ast.Name))
        if "TABLE_FLOORS" not in names:
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found.add(stmt.name)
        elif isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
            found.add(stmt.targets[0].id)
        else:
            found.add(f"line {stmt.lineno}")
    return found


def test_the_row_check_finds_a_row_read_anywhere():
    source = (
        "from .ledger import TABLE_FLOORS\n"
        "Z0_RECORD = StepRecord.make('Z0', *TABLE_FLOORS['Z0'][:2], 0, 0)\n"
        "_A1_DU, _A1_DB, _ = TABLE_FLOORS['A1']\n"
        "class StepPlan(NamedTuple):\n"
        "    rows = TABLE_FLOORS\n"
        "def _commit(g, f, label, attachments, children):\n"
        "    du, db, floor = TABLE_FLOORS[label]\n"
        "def split_z4(g, f):\n"
        "    if profit < TABLE_FLOORS['Z4'][2]:\n"
        "        raise EngineDefect('split lost potential')\n"
    )
    assert row_readers(source) == {
        "Z0_RECORD", "line 3", "StepPlan", "_commit", "split_z4",
    }


def test_only_commit_reads_a_row():
    # every step takes its du, db and floor from its row in `_commit`; the
    # shared Z0 record is made from Z0's row once
    assert row_readers(BUILDER.read_text()) == {"_commit", "Z0_RECORD"}
