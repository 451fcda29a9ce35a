"""Reference backtracker for tests of the difference-set search.

It builds a sorted k-subset of Z_m slot by slot, depth first and in
ascending order at every slot, and keeps a bytearray of the differences
already covered; a candidate value is accepted only if none of its
differences to the chosen values is covered yet.  A node is one candidate
value subjected to that check; the budget is a cap on visited nodes.  Rooted
at the prefix (0, 1), it lists every set containing 0 and 1 in sorted order,
which ``powersum.pds.enumerate_all`` must reproduce, and decides existence
at small orders, which ``powersum.pds.exhaustive_search`` must match.

Status codes: 0 = found, 1 = subtree exhausted, 2 = budget exceeded.
"""

FOUND = 0
EXHAUSTED = 1
BUDGET = 2


def _seed_prefix(m, prefix, covered):
    """Mark the prefix's pairwise differences; False on a collision."""
    for i in range(1, len(prefix)):
        v = prefix[i]
        for j in range(i):
            d = v - prefix[j]
            if d < 0:
                d += m
            if covered[d]:
                return False
            covered[d] = 1
            covered[m - d] = 1
    return True


def _place(m, covered, chosen, t, v):
    """Mark the differences v-chosen[j]; undo and report False on a clash.

    Marking must be incremental: two differences of the same candidate can
    collide with each other (d and m-d), not only with earlier marks.  Marks
    are set and cleared in pairs (d, m-d), and d != m-d because m is odd, so
    testing covered[d] alone decides a clash.
    """
    for j in range(t):
        d = v - chosen[j]
        if covered[d]:
            _unplace(m, covered, chosen, j, v)
            return False
        covered[d] = 1
        covered[m - d] = 1
    return True


def _unplace(m, covered, chosen, t, v):
    for j in range(t):
        d = v - chosen[j]
        covered[d] = 0
        covered[m - d] = 0


def _run(m, k, prefix, budget, out):
    covered = bytearray(m)
    if not _seed_prefix(m, prefix, covered):
        return EXHAUSTED, 0, None
    chosen = list(prefix) + [0] * (k - len(prefix))
    nodes = [0]
    status = _rec(m, k, covered, chosen, len(prefix), budget, nodes, out)
    return status, nodes[0], chosen


def _rec(m, k, covered, chosen, t, budget, nodes, out):
    """Depth-first over slot t.  With `out` None the first complete set stops
    the search (FOUND); otherwise each one is appended and the search goes on.
    """
    if t == k:
        if out is None:
            return FOUND
        out.append(tuple(chosen))
        return EXHAUSTED
    lo = chosen[t - 1] + 1 if t else 0
    vmax = m - k + t
    first = chosen[0]
    for v in range(lo, vmax + 1):
        if nodes[0] >= budget:
            return BUDGET
        nodes[0] += 1
        # _place's first test, made inline because most candidates fail it;
        # the candidate still counts as a node.  With t == 0 nothing is
        # covered yet, so the test passes.
        if covered[v - first]:
            continue
        if _place(m, covered, chosen, t, v):
            chosen[t] = v
            r = _rec(m, k, covered, chosen, t + 1, budget, nodes, out)
            if r != EXHAUSTED:
                return r
            _unplace(m, covered, chosen, t, v)
    return EXHAUSTED


def subtree_first(m, k, prefix, budget):
    """Search below `prefix` for one completion to a k-subset of Z_m whose
    pairwise differences are all distinct.

    Returns (status, nodes, solution-or-None).
    """
    status, nodes, chosen = _run(m, k, prefix, budget, None)
    return status, nodes, tuple(chosen) if status == FOUND else None


def subtree_all(m, k, prefix, budget):
    """Collect every completion below `prefix` (same accounting as above).

    Returns (status, nodes, list-of-solutions); status EXHAUSTED means the
    subtree was fully enumerated, BUDGET means the list may be incomplete.
    """
    out = []
    status, nodes, _ = _run(m, k, prefix, budget, out)
    return status, nodes, out
