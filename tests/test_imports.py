"""No module of the package imports a name it never uses, and the package
re-exports exactly its public names.

`__init__.py` is left out of the unused-import check: its imports are the
package's public re-exports, which the last tests pin.  The growth engine's
step protocol stays in `leafspan.builder`, where tests and the benchmark's
tracer reach it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from types import ModuleType

import pytest

import leafspan

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "leafspan"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
PUBLIC = [
    "BuildReport",
    "EngineDefect",
    "ExclusionKind",
    "Fifteenths",
    "GenerationError",
    "Graph",
    "Ledger",
    "LedgerAudit",
    "ORACLE_MAX_N",
    "OracleBudgetError",
    "ReductionEvent",
    "SpanningTree",
    "StepRecord",
    "build",
    "check_spanning_tree",
    "classify_exclusion",
    "cost15",
    "degree_counts",
    "exact_u",
    "g8",
    "h_graph",
    "lift_tree_logged",
    "max_leaf_tree",
    "random_connected",
    "reduce_fully",
    "replay",
    "square_of_cycle",
    "table_violations",
    "verify_ledger",
]


def unused_imports(source: str) -> list[str]:
    """The names `source` imports that never appear as a `Name` node."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = "import os, os.path as osp\nfrom .graph import Graph, degrees\nos.sep\nGraph\n"
    assert unused_imports(source) == ["degrees", "osp"]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_the_package_exports_its_public_names():
    assert sorted(leafspan.__all__) == PUBLIC
    for name in leafspan.__all__:
        assert hasattr(leafspan, name), name


def benchmark_reads() -> set[str]:
    """The names the benchmark's code and tests read as `lf.<name>`."""
    paths = sorted((ROOT / "perfbench").glob("*.py"))
    paths += sorted((ROOT / "perfbench" / "tests").glob("*.py"))
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "lf"
    }


def test_every_name_the_benchmark_reads_is_public():
    reads = benchmark_reads()
    assert {"build", "builder", "verify_ledger"} <= reads
    # the tracer reads `builder` as the submodule whose globals it patches
    assert isinstance(leafspan.builder, ModuleType)
    assert reads - {"builder"} <= set(leafspan.__all__)
