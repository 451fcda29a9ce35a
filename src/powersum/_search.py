"""Backtracking kernel for the difference-set search.

The search builds a sorted k-subset of Z_m slot by slot, in ascending order
at every slot, and stops at the first complete set or lists them all.  Sets
of residues are Python ints used as bitmasks: ``cov`` has bit d set for every
covered difference d (and with it m-d), ``sel`` has bit c for every chosen
value c and ``rev`` has bit m-c.  They are passed down the recursion, so
backing out of a slot undoes nothing.

A value v is admissible at the next slot iff none of its differences v-c to
the chosen values is covered yet and no two of them clash with each other.
The first test is one mask per slot: v is ruled out iff it lies in
``cov << c`` for some chosen c.  The second is made per candidate that passes
the first: the differences of v are ``(rev << v) >> m`` and their mirrors m-d
are ``sel << (m - v)``; they meet iff 2v = c_i + c_j (mod m), and then two
differences of v would be d and m-d.  Candidates are walked lowest bit
first.

A node is one candidate value tested; the budget is a cap on visited nodes.
Values ruled out by the slot mask are counted in bulk, when the walk reaches
the next admissible value or the end of the slot, and the count stops at the
budget exactly where testing one value at a time would stop.

Status codes: 0 = found, 1 = subtree exhausted, 2 = budget exceeded.
"""

FOUND = 0
EXHAUSTED = 1
BUDGET = 2


def _run(m, k, prefix, budget, out):
    """Depth-first over the slots after `prefix`.  With `out` None the first
    complete set stops the search (FOUND); otherwise each one is appended and
    the search goes on.  Returns (status, nodes, chosen values)."""
    cov = sel = rev = 0
    chosen = []
    for v in prefix:
        for c in chosen:
            d = (v - c) % m
            if cov >> d & 1:
                return EXHAUSTED, 0, None
            cov |= 1 << d | 1 << (m - d)
        chosen.append(v)
        sel |= 1 << v
        rev |= 1 << (m - v)
    nodes = 0

    def rec(cov, sel, rev, t):
        nonlocal nodes
        if t == k:
            if out is None:
                return FOUND
            out.append(tuple(chosen))
            return EXHAUSTED
        lo = chosen[-1] + 1 if chosen else 0
        vmax = m - k + t
        ruled_out = 0
        for c in chosen:
            ruled_out |= cov << c
        cand = ~ruled_out & ((1 << (vmax + 1)) - (1 << lo))
        cursor = lo  # the lowest value not yet counted
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            n = nodes + v - cursor + 1
            if n > budget:
                nodes = budget
                return BUDGET
            nodes = n
            cursor = v + 1
            diffs = (rev << v) >> m
            mirrors = sel << (m - v)
            if diffs & mirrors:
                continue
            chosen.append(v)
            r = rec(cov | diffs | mirrors, sel | low, rev | 1 << (m - v), t + 1)
            if r != EXHAUSTED:
                return r
            chosen.pop()
        n = nodes + vmax + 1 - cursor
        if n > budget:
            nodes = budget
            return BUDGET
        nodes = n
        return EXHAUSTED

    status = rec(cov, sel, rev, len(chosen))
    return status, nodes, chosen


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
