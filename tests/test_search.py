"""The bitmask search kernel against the one-candidate-at-a-time reference.

Both walk the depth-first tree rooted at (0, 1) in ascending order, so the
status, the node count and the found set or ordered listing must be equal at
every budget, including budgets that stop the walk inside a run of values
the kernel counts in bulk.
"""

import pytest

import search_oracle
from powersum import _search
from powersum.pds import modulus_for_order

ROOT = (0, 1)
FIRST_BUDGETS = (0, 1, 2, 5, 100, 10**4, 10**6)
ALL_BUDGETS = (0, 1, 5, 50, 1000, 10**6)
LARGE_ORDER_BUDGETS = (0, 1, 2, 7, 100, 1234, 5000, 20000)


def _both(kind, q, budget):
    m = modulus_for_order(q)
    expected = getattr(search_oracle, kind)(m, q + 1, ROOT, budget)
    actual = getattr(_search, kind)(m, q + 1, ROOT, budget)
    return expected, actual


@pytest.mark.parametrize("q", range(1, 10))
def test_subtree_first_matches_reference(q):
    for budget in FIRST_BUDGETS:
        expected, actual = _both("subtree_first", q, budget)
        assert actual == expected, budget


@pytest.mark.parametrize("q", range(1, 8))
def test_subtree_all_matches_reference(q):
    for budget in ALL_BUDGETS:
        expected, actual = _both("subtree_all", q, budget)
        assert actual == expected, budget


@pytest.mark.parametrize("q", (10, 11, 12, 20))
@pytest.mark.parametrize("kind", ("subtree_first", "subtree_all"))
def test_larger_orders_match_reference_at_small_budgets(kind, q):
    for budget in LARGE_ORDER_BUDGETS:
        expected, actual = _both(kind, q, budget)
        assert actual == expected, budget
        assert actual[0] == _search.BUDGET and actual[1] == budget


@pytest.mark.parametrize("q", (2, 3, 4))
@pytest.mark.parametrize("kind", ("subtree_first", "subtree_all"))
def test_every_budget_up_to_the_whole_walk(kind, q):
    m = modulus_for_order(q)
    whole = getattr(search_oracle, kind)(m, q + 1, ROOT, 10**6)[1]
    for budget in range(whole + 2):
        expected, actual = _both(kind, q, budget)
        assert actual == expected, budget
