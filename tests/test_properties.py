"""Property tests past the exact oracle's 16-vertex limit.

Hypothesis draws (n, dmin, dmax, seed) for `random_connected` with n in
17..120 over the degree regimes `leafspan sweep` cycles through, and the
structured families of conftest.py (grids, tori, hypercubes, complete and
complete bipartite graphs, wheels, circulants, generalized Petersen graphs
and Möbius ladders, n <= 40) add the regular and high-degree graphs the
random draws rarely make.  Every build must return a spanning tree that
meets the bound, with a ledger that verifies and respects the step table
and no swallowed defect.  The autouse audits of conftest.py recount every
engine step and every reduction event of these builds too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafspan import (
    ORACLE_MAX_N,
    GenerationError,
    build,
    exact_u,
    random_connected,
    table_violations,
    verify_ledger,
)
from leafspan.trees import check_spanning_tree

from conftest import structured_families

FAMILIES = structured_families()


@st.composite
def generated_graphs(draw):
    n = draw(st.integers(17, 120))
    dmin, dmax = draw(st.sampled_from([(1, n - 1), (2, n - 1), (3, n - 1), (2, 3), (3, 4)]))
    return n, dmin, dmax, draw(st.integers(0, (1 << 30) - 1))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(generated_graphs())
def test_build_meets_the_bound_with_a_verified_ledger(shape):
    try:
        g = random_connected(*shape)
    except GenerationError:
        return
    report = build(g)
    check_spanning_tree(g, report.spanning_tree)
    assert report.bound_ok
    assert verify_ledger(g, report.ledger, report.spanning_tree).ok
    assert table_violations(report.ledger) == []


@pytest.mark.parametrize("family", FAMILIES)
def test_structured_families_meet_the_bound_with_a_verified_ledger(family):
    for name, g in FAMILIES[family]:
        report = build(g)
        check_spanning_tree(g, report.spanning_tree)
        assert report.bound_ok, name
        assert verify_ledger(g, report.ledger, report.spanning_tree).ok, name
        assert table_violations(report.ledger) == [], name
        assert report.defects == (), name
        if g.n <= ORACLE_MAX_N:
            assert report.leaves <= exact_u(g), name
