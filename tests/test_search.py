"""The multiplier-orbit search behind ``exhaustive_search`` and
``enumerate_all``, against the (0,1)-rooted reference backtracker.

The two walk different trees, so their node counts differ; what must agree
is the verdict, the class of a found set and the listing of the sets that
contain 0 and 1.  A test is parametrized by the oracle function
(``subtree_first`` or ``subtree_all``) that the public call answers to.
"""

import pytest

import search_oracle
from powersum.pds import (
    EnumerationResult,
    PerfectDifferenceSet,
    SearchResult,
    canonical_form,
    enumerate_all,
    exhaustive_search,
    modulus_for_order,
)

ROOT = (0, 1)
LARGE_ORDER_BUDGETS = (0, 1, 2, 7, 100, 1234, 5000, 20000)
PUBLIC = {"subtree_first": exhaustive_search, "subtree_all": enumerate_all}


def _oracle(kind, q, budget):
    return getattr(search_oracle, kind)(modulus_for_order(q), q + 1, ROOT, budget)


def _assert_cut_at(kind, q, budget, whole):
    """The call at `budget` is the whole walk when that fits in the budget,
    and otherwise spends exactly the budget without a verdict."""
    result = PUBLIC[kind](q, budget=budget)
    if budget >= whole.nodes:
        assert result == whole, budget
    elif kind == "subtree_first":
        assert result == SearchResult("BudgetExceeded", None, budget)
    else:
        assert (result.complete, result.nodes) == (False, budget)


@pytest.mark.parametrize("q", range(1, 10))
def test_subtree_first_matches_reference(q):
    status, _, expected = _oracle("subtree_first", q, 10**6)
    actual = exhaustive_search(q)
    if status == search_oracle.EXHAUSTED:
        assert (actual.status, actual.pds) == ("NoneExists", None)
        return
    assert status == search_oracle.FOUND
    assert actual.status == "Found"
    reference = PerfectDifferenceSet.from_residues(expected, q)
    assert canonical_form(actual.pds) == canonical_form(reference)


@pytest.mark.parametrize("q", range(1, 8))
def test_subtree_all_matches_reference(q):
    status, _, expected = _oracle("subtree_all", q, 10**6)
    assert status == search_oracle.EXHAUSTED
    actual = enumerate_all(q)
    assert actual.complete
    assert actual.sets == tuple(expected)


@pytest.mark.parametrize("q", (10, 11, 12, 20))
@pytest.mark.parametrize("kind", ("subtree_first", "subtree_all"))
def test_larger_orders_match_reference_at_small_budgets(kind, q):
    # Budgets that stop the reference at these orders are enough for the
    # orbit search to decide 10, 12 and 20 at its root and to find a set of
    # order 11.
    whole = PUBLIC[kind](q)
    for budget in LARGE_ORDER_BUDGETS:
        status, nodes, _ = _oracle(kind, q, budget)
        assert (status, nodes) == (search_oracle.BUDGET, budget)
        _assert_cut_at(kind, q, budget, whole)
    if q != 11:
        assert whole.nodes == 1
        assert whole in (SearchResult("NoneExists", None, 1),
                         EnumerationResult(True, (), 1))


@pytest.mark.parametrize("q", (2, 3, 4))
@pytest.mark.parametrize("kind", ("subtree_first", "subtree_all"))
def test_every_budget_up_to_the_whole_walk(kind, q):
    whole = PUBLIC[kind](q)
    if kind == "subtree_all":
        assert whole.sets == tuple(_oracle(kind, q, 10**6)[2])
    for budget in range(whole.nodes + 2):
        _assert_cut_at(kind, q, budget, whole)
