"""Multiplier-orbit kernel for the difference-set search.

Hall's multiplier theorem: a prime p dividing q is a multiplier of every
cyclic difference set D of order q (here lambda = 1 < p), so p*D is a
translate of D.  McFarland-Rice: since gcd(q+1, q^2+q+1) = 1, the translate
whose residues sum to 0 mod m = q^2+q+1 is fixed by every multiplier at once.
That translate is a union of orbits of the group generated by the primes of
q acting on Z_m by multiplication, so searching such unions is complete.

Pure integer code with no dependency on the ``pds`` types; ``pds`` wraps the
result and verifies any set found.  Statuses are the ``SearchResult`` ones:
"Found", "NoneExists", "BudgetExceeded".
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
        seen = bytearray(d)
        for u in range(d):
            if seen[u] or gcd(u, d) != 1:
                continue
            coset = [u * h % d for h in group]
            for c in coset:
                seen[c] = 1
            orbits.append(tuple(sorted(scale * c for c in coset)))
    orbits.sort()
    return orbits


def _place_orbit(m: int, covered: bytearray, chosen: list[int], orbit) -> bool:
    """Add the orbit's residues to `chosen`, marking each new difference;
    on a clash undo everything this call marked and report False."""
    start = len(chosen)
    for v in orbit:
        for i, c in enumerate(chosen):
            d = (v - c) % m
            if covered[d]:  # marks come in pairs d, m-d
                _clear_differences(m, covered, v, chosen[:i])
                _unplace_orbit(m, covered, chosen, start)
                return False
            covered[d] = covered[m - d] = 1
        chosen.append(v)
    return True


def _unplace_orbit(m: int, covered: bytearray, chosen: list[int], start: int) -> None:
    """Remove chosen[start:], clearing the differences each one marked."""
    while len(chosen) > start:
        v = chosen.pop()
        _clear_differences(m, covered, v, chosen)


def _clear_differences(m: int, covered: bytearray, v: int, others) -> None:
    for c in others:
        d = (v - c) % m
        covered[d] = covered[m - d] = 0


def search(q: int, budget: int) -> tuple[str, int, Optional[list[int]]]:
    """Backtrack over unions of multiplier orbits of size q+1 whose
    differences are all distinct, within one node budget for the whole search.

    A node is one union examined: the empty union at the root, and each union
    formed by adding one orbit and checking its differences.  Returns
    (status, nodes, residues-or-None).
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

    nodes = 1
    covered = bytearray(m)
    chosen: list[int] = []
    picks: list[tuple[int, int]] = []  # (orbit index, len(chosen) before it)
    j = 0
    while len(chosen) < k:
        size = len(chosen)
        while j < len(orbits) and sizes[j] >> (k - size) & 1:
            rest = k - size - len(orbits[j])
            if rest >= 0 and sizes[j + 1] >> rest & 1:
                if nodes >= budget:
                    return "BudgetExceeded", nodes, None
                nodes += 1
                if _place_orbit(m, covered, chosen, orbits[j]):
                    picks.append((j, size))
                    break
            j += 1
        else:  # no orbit extends this union: backtrack
            if not picks:
                return "NoneExists", nodes, None
            j, start = picks.pop()
            _unplace_orbit(m, covered, chosen, start)
        j += 1
    return "Found", nodes, chosen
