"""Multiplier-orbit kernel for the difference-set search.

Hall's multiplier theorem: a prime p dividing q is a multiplier of every
cyclic difference set D of order q (here lambda = 1 < p), so p*D is a
translate of D.  McFarland-Rice: since gcd(q+1, q^2+q+1) = 1, the translate
whose residues sum to 0 mod m = q^2+q+1 is fixed by every multiplier at once.
That translate is a union of orbits of the group generated by the primes of
q acting on Z_m by multiplication, so searching such unions is complete.

``search`` is the library's one search kernel: it stops at the first such
union for ``pds.exhaustive_search`` and ``pds.feasibility``, or lists every
one for ``pds.enumerate_all``.  Orbit residues do not arrive in ascending
order, so the covered differences are kept as bitmasks over Z_m that are
rotated by each value added.  Pure integer code with no dependency on the
``pds`` types; ``pds`` wraps the result and verifies any set found, and
``pds.canonical_form`` takes its one unit per coset from ``coset_leaders``.
Statuses are the ``SearchResult`` ones: "Found", "NoneExists",
"BudgetExceeded".
"""

from math import gcd
from typing import Optional

from .gf import factorize


def divisors(n: int) -> list[int]:
    result = [1]
    for p, e in factorize(n).items():
        result = [d * p**i for d in result for i in range(e + 1)]
    return sorted(result)


def generated_subgroup(generators, d: int, cap: int) -> Optional[list[int]]:
    """The subgroup of units mod d generated by `generators`, or None once it
    has more than `cap` elements."""
    group = {1 % d}
    frontier = [1 % d]
    while frontier:
        grown = []
        for h in frontier:
            for p in generators:
                x = h * p % d
                if x not in group:
                    group.add(x)
                    grown.append(x)
        if len(group) > cap:
            return None
        frontier = grown
    return sorted(group)


def distinct_differences(residues, d: int) -> bool:
    """True when the pairwise differences of `residues` mod d are all distinct."""
    differences = set()
    for a in residues:
        for b in residues:
            if a != b:
                diff = (a - b) % d
                if diff in differences:
                    return False
                differences.add(diff)
    return True


def coset_leaders(group, d: int) -> list[int]:
    """The least unit u of each coset u*H of the subgroup H = `group` among
    the units mod d, in increasing order."""
    seen = bytearray(d)
    leaders = []
    for u in range(d):
        if not seen[u] and gcd(u, d) == 1:
            leaders.append(u)
            for h in group:
                seen[u * h % d] = 1
    return leaders


def multiplier_orbits(q: int) -> list[tuple[int, ...]]:
    """The orbits of size <= q+1 with no repeated internal difference, under
    multiplication by the primes of q on Z_m, each sorted, in sorted order.

    The orbit of x is x*H, where H is generated by those primes mod
    d = m / gcd(x, m); so each divisor d contributes the cosets u*H of H among
    the units u mod d, scaled by m/d.  Multiplying by a unit mod d permutes the
    differences, so either every coset for d repeats a difference or none does,
    and d contributes nothing when H is too large or repeats one.
    """
    m = q * q + q + 1
    k = q + 1
    primes = sorted(factorize(q))
    orbits = []
    for d in divisors(m):
        group = generated_subgroup(primes, d, k)
        if group is None or not distinct_differences(group, d):
            continue
        scale = m // d
        orbits.extend(tuple(sorted(scale * (u * h % d) for h in group))
                      for u in coset_leaders(group, d))
    orbits.sort()
    return orbits


def _add_orbit(m: int, mask: int, cov: int, sel: int, rev: int, orbit):
    """The state (cov, sel, rev) with the orbit's residues added one by one,
    or None once a difference would be covered twice."""
    for v in orbit:
        diffs = (rev << v | rev >> (m - v)) & mask  # bits v - c
        mirrors = (sel << (m - v) | sel >> v) & mask  # bits c - v
        # cov is closed under d -> m-d, so testing diffs against it suffices;
        # diffs meets mirrors iff 2v = c + c' for chosen c, c'.
        if (cov | mirrors) & diffs:
            return None
        cov |= diffs | mirrors
        sel |= 1 << v
        rev |= 1 << (m - v) % m
    return cov, sel, rev


def search(q: int, budget: int,
           out: Optional[list] = None) -> tuple[str, int, Optional[list[int]]]:
    """Backtrack over unions of multiplier orbits of size q+1 whose
    differences are all distinct, within one node budget for the whole search.

    With `out` None the first such union stops the search (find mode).  Given
    a list, every such union is appended to it as a list of residues and the
    walk goes on to the end (enumerate mode).  A node is one union examined:
    the empty union at the root, and each union formed by adding one orbit
    and checking its differences.  Returns (status, nodes, residues-or-None);
    in enumerate mode the residues are None and a walk that ends within the
    budget reports Found when `out` holds a set, NoneExists otherwise.
    """
    if budget < 1:
        return "BudgetExceeded", 0, None
    m = q * q + q + 1
    k = q + 1
    orbits = multiplier_orbits(q)
    # Bit s of sizes[j] is set when some union of orbits j.. has s residues;
    # an orbit is tried only if the residues still needed after it are such
    # a sum of the orbits after it.
    sizes = [1] * (len(orbits) + 1)
    for j in range(len(orbits) - 1, -1, -1):
        sizes[j] = (sizes[j + 1] | sizes[j + 1] << len(orbits[j])) & ((2 << k) - 1)

    mask = (1 << m) - 1
    nodes = 1
    # The union as bitmasks over Z_m: cov has bit d for each covered
    # difference d, sel has bit c for each chosen residue c and rev has bit
    # -c mod m.  Each pick keeps the state from before its orbit, so backing
    # out of it undoes nothing.
    cov = sel = rev = 0
    picks: list[tuple[int, int, int, int]] = []  # (orbit index, cov, sel, rev)
    j = 0
    while True:
        need = k - sel.bit_count()
        while need and j < len(orbits) and sizes[j] >> need & 1:
            rest = need - len(orbits[j])
            if rest >= 0 and sizes[j + 1] >> rest & 1:
                if nodes >= budget:
                    return "BudgetExceeded", nodes, None
                nodes += 1
                state = _add_orbit(m, mask, cov, sel, rev, orbits[j])
                if state is not None:
                    picks.append((j, cov, sel, rev))
                    cov, sel, rev = state
                    break
            j += 1
        else:  # the union is complete, or no orbit extends it: backtrack
            if not need:
                found = [v for i, *_ in picks for v in orbits[i]]
                if out is None:
                    return "Found", nodes, found
                out.append(found)
            if not picks:
                return ("Found" if out else "NoneExists"), nodes, None
            j, cov, sel, rev = picks.pop()
        j += 1
