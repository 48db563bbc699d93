"""Every step label the engine can plan has a catalog row, every row but
the lift's two is planned, `builder.py` reads no row, and `ledger.py` reads
one only in its row rule, `row_faults`.

The labels are read from `builder.py`'s source, in the functions that plan
steps and in `_expand`, which commits A1 and A2 without a plan: the first
argument of each `StepPlan(...)` call and the label argument of each
`_commit(g, f, label, ...)`.  A label is a string, a conditional of labels,
a local name bound only to labels, or `lab(...)` of one, which
`_plan_chain` makes the M or N row of a chain sub-case.  Anything else is
refused, so no label escapes the check unseen.

The same source is held to one step contract: the planners return None or
a `StepPlan`, and every `_commit` call passes the graph, the tree, a label
and the attachments.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import pytest

from leafspan.builder import StepPlan
from leafspan.ledger import TABLE_FLOORS

SRC = Path(__file__).resolve().parents[1] / "src" / "leafspan"
BUILDER, LEDGER = SRC / "builder.py", SRC / "ledger.py"
# the functions that make plans, and `_expand`, which commits A1 and A2
# without one
PLAN_MAKERS = ("next_step", "_plan_chain", "split_z4")
PLANNERS = (*PLAN_MAKERS, "_expand")


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
        "    return _commit(g, f, label, att)\n"
        "def not_a_planner():\n"
        "    _commit(g, f, 'Q', att)\n"
        "    return StepPlan('Q', att)\n"
    )
    assert planned_labels(source) == {
        "A1", "A2", "Z2.1", "Z2.2", "Z4", "M4.1.1", "M4.1.2", "N4.1.1", "N4.1.2",
    }
    with pytest.raises(ValueError, match="label pick\\(\\) is not resolvable"):
        planned_labels("def next_step(g, f):\n    return StepPlan(pick(), att)\n")
    with pytest.raises(ValueError, match="label pick\\(\\) is not resolvable"):
        planned_labels(
            "def _expand(g, f):\n    return _commit(g, f, pick(), att)\n"
        )


def test_an_unknown_label_committed_by_expand_is_caught():
    # the check below, on builder.py with A2's `_commit` renamed to a
    # label that has no row
    source = BUILDER.read_text()
    call = '_commit(g, f, "A2", '
    assert source.count(call) == 1
    planned = planned_labels(source.replace(call, '_commit(g, f, "A9", '))
    assert planned - TABLE_FLOORS.keys() == {"A9"}
    assert TABLE_FLOORS.keys() - planned == {"R1-undo", "R2-undo", "A2"}


def test_every_planned_label_has_a_row_and_every_row_is_planned():
    planned = planned_labels(BUILDER.read_text())
    assert planned - TABLE_FLOORS.keys() == set()
    # the lift logs the undo records; they are not planned
    assert TABLE_FLOORS.keys() - planned == {"R1-undo", "R2-undo"}


def row_readers(source: str) -> set[str]:
    """The top-level statements of `source` that name `TABLE_FLOORS`: a
    function or class by its name, an assignment to a name (plain,
    annotated or augmented) by the first name it assigns, any other
    statement by its line."""
    found: set[str] = set()
    for stmt in ast.parse(source).body:
        names = (node.id for node in ast.walk(stmt) if isinstance(node, ast.Name))
        if "TABLE_FLOORS" not in names:
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found.add(stmt.name)
        elif isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
            found.add(stmt.targets[0].id)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) and isinstance(
            stmt.target, ast.Name
        ):
            found.add(stmt.target.id)
        else:
            found.add(f"line {stmt.lineno}")
    return found


def test_the_row_check_finds_a_row_read_anywhere():
    source = (
        "from .ledger import TABLE_FLOORS\n"
        "A1_RECORD = StepRecord.make('A1', *TABLE_FLOORS['A1'][:2], 0, 0)\n"
        "_A1_DU, _A1_DB, _ = TABLE_FLOORS['A1']\n"
        "class StepPlan(NamedTuple):\n"
        "    rows = TABLE_FLOORS\n"
        "def _commit(g, f, label, attachments):\n"
        "    du, db, floor = TABLE_FLOORS[label]\n"
        "def split_z4(g, f):\n"
        "    if profit < TABLE_FLOORS['Z4'][2]:\n"
        "        raise EngineDefect('split lost potential')\n"
        "ROWS: dict = dict(TABLE_FLOORS)\n"
        "ROWS |= {k: r for k, r in TABLE_FLOORS.items()}\n"
        "print(TABLE_FLOORS)\n"
    )
    assert row_readers(source) == {
        "A1_RECORD", "line 3", "StepPlan", "_commit", "split_z4", "ROWS", "line 13",
    }


def test_only_the_row_rule_reads_a_row():
    # `_commit` holds each step to its row through `row_faults`, so the
    # builder names no row; in the ledger, only the table's own definition
    # and its one rule do
    assert row_readers(BUILDER.read_text()) == set()
    assert row_readers(LEDGER.read_text()) == {"TABLE_FLOORS", "row_faults"}


def _returns_a_plan(value: ast.expr | None) -> bool:
    if value is None or (isinstance(value, ast.Constant) and value.value is None):
        return True
    return isinstance(value, ast.Call) and _called(value) in ("StepPlan", "_plan_chain")


def contract_breaches(source: str) -> list[str]:
    """Where `source` breaks the step contract: a `return` of `next_step`,
    `_plan_chain` or `split_z4` that is not None, a `StepPlan(...)` call or
    a `_plan_chain(...)` call, and a `_commit` call that does not pass
    exactly four arguments, a starred one counting as a `StepPlan`'s
    fields (`apply_step` unpacks its plan)."""
    found = []
    module = ast.parse(source)
    for fn in module.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in PLAN_MAKERS:
            for node in ast.walk(fn):
                if isinstance(node, ast.Return) and not _returns_a_plan(node.value):
                    found.append(f"line {node.lineno}: {fn.name} returns a non-plan")
    for node in ast.walk(module):
        if isinstance(node, ast.Call) and _called(node) == "_commit":
            count = len(node.keywords) + sum(
                len(StepPlan._fields) if isinstance(arg, ast.Starred) else 1
                for arg in node.args
            )
            if count != 4:
                found.append(f"line {node.lineno}: _commit takes {count} arguments")
    return found


def test_the_contract_check_finds_every_breach():
    source = (
        "def next_step(g, f):\n"
        "    if a:\n"
        "        return\n"
        "    if b:\n"
        "        return _plan_chain(g, f, x, 'M')\n"
        "    if c:\n"
        "        return StepPlan('A3', att)\n"
        "    return None\n"
        "def split_z4(g, f):\n"
        "    return StepPlan('Z4', tuple(att)), depth + 1\n"
        "def _plan_chain(g, f, x, kind):\n"
        "    return plan\n"
        "def apply_step(g, f, plan):\n"
        "    return _commit(g, f, *plan)\n"
        "def _expand(g, f):\n"
        "    _commit(g, f, 'A1', att, (c,))\n"
        "    _commit(g, f, *plan, added)\n"
        "    return _commit(g, f, label=lab, attachments=att)\n"
        "def not_a_planner():\n"
        "    return 'Z4', 1\n"
    )
    assert contract_breaches(source) == [
        "line 10: split_z4 returns a non-plan",
        "line 12: _plan_chain returns a non-plan",
        "line 16: _commit takes 5 arguments",
        "line 17: _commit takes 5 arguments",
    ]


def test_every_step_keeps_the_one_contract():
    assert contract_breaches(BUILDER.read_text()) == []
