"""Perfect difference sets: verification, Singer construction, canonical
forms, exhaustive search, and order-feasibility tests.

A perfect difference set of order q is a set of q+1 residues modulo
m = q^2 + q + 1 whose q^2 + q ordered pairwise differences hit every nonzero
residue exactly once (equivalently: a cyclic projective plane of order q).
``verify`` checks that property directly, as q+1 translates of the set's
bitmask that must meet pairwise in 0 alone; it shares no code with the
search it checks.  ``PerfectDifferenceSet`` runs it once on construction, so
every instance is a verified set and no consumer checks it again.
``singer_construct`` realizes the property for prime-power q as the zeros of
Singer's linear recurrence over GF(q) (Singer 1938): its terms are the
g^2-coordinates of the powers of a primitive element g of GF(q^3), so a term
vanishes exactly when that power lies on the line spanned by {1, g}.
``canonical_form`` names a set's class under translation and unit scaling:
by Hall's multiplier theorem it needs one unit per coset of the group the
primes of q generate, and a lexicographic scan over their candidates.
``exhaustive_search`` and ``enumerate_all`` share one complete search, over
unions of multiplier orbits (``_orbits``): it is complete by Hall's
multiplier theorem (every prime dividing q is a multiplier) and the
McFarland-Rice theorem (some translate is fixed by every multiplier), and
runs serially under a single node budget.  The search walks twice, through
the unit scaling that ``_orbits`` states, and for ``enumerate_all`` it also
scales each set of its first pass by one unit per coset of the
multipliers' group.  A node is one union of orbits examined, each walk's
root included.
``feasibility`` combines the Bruck-Ryser and Wilbrink nonexistence tests
with ``exhaustive_search``; a verdict that rests on that search carries the
reason ``multiplier-search``.  The factoring it needs, ``prime_power`` and
the two-squares test, lives in ``gf`` with the package's other factoring.
A plain backtracker over the sets containing {0, 1} is kept only in the
tests, as this search's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import NamedTuple, Optional

from . import _orbits
from .gf import (DomainError, checked_int, is_sum_of_two_squares, make_field, prime_power,
                 primitive_element, subfield_recurrence)

DEFAULT_SEARCH_BUDGET = 10**8
MAX_SINGER_ORDER = 32
MAX_SEARCH_ORDER = 3000


def modulus_for_order(q: int) -> int:
    return q * q + q + 1


@dataclass(frozen=True)
class PerfectDifferenceSet:
    """A verified perfect difference set: order q, modulus m = q^2+q+1 and
    its q+1 residues, reduced mod m and sorted.

    The constructor reduces and sorts the residues and runs ``verify`` once.
    Anything else is a ``DomainError``: any other modulus, or an order, a
    modulus or a residue that is not an int (a bool is not one).
    """

    q: int
    m: int
    residues: tuple[int, ...]

    def __post_init__(self):
        q = checked_int(self.q, "order", 1)
        m = modulus_for_order(q)
        if checked_int(self.m, "modulus") != m:
            raise DomainError(f"modulus {self.m} is not q^2+q+1 = {m} for q = {q}")
        residues = tuple(self.residues)
        check = verify(residues, q)  # first: it refuses a residue that is not an int
        if not check.valid:
            raise DomainError(f"not a perfect difference set: {check}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "residues", tuple(sorted(x % m for x in map(index, residues))))

    def to_record(self) -> dict:
        """JSON-ready record; the wire format used by the CLI and fixtures."""
        return {"q": self.q, "m": self.m, "residues": list(self.residues)}

    @staticmethod
    def from_residues(residues, q: int) -> "PerfectDifferenceSet":
        q = checked_int(q, "order", 1)
        return PerfectDifferenceSet(q=q, m=modulus_for_order(q), residues=residues)


@dataclass(frozen=True)
class CanonicalForm:
    """Lex-least class representative under translation and unit scaling."""

    q: int
    m: int
    residues: tuple[int, ...]


class Verification(NamedTuple):
    """Verdict plus a witness residue when the check fails."""

    valid: bool
    reason: Optional[str]
    witness: Optional[int]


def verify(candidate, q: int) -> Verification:
    """Check the defining property: q+1 distinct residues mod q^2+q+1 whose
    differences cover each nonzero residue exactly once.

    With D as a bitmask over Z_m, the translate D - a is D rotated by a, and
    its bits are the differences x - a for x in D.  A nonzero difference
    occurs twice, x - a = y - b with (x, a) != (y, b), exactly when a != b
    and it lies in both D - a and D - b; so the differences are distinct iff
    each translate meets the union of the earlier ones in {0} alone, a test
    of q+1 big-int steps.  It is written here, not shared with the search
    kernel (``_orbits``), because ``verify`` is the independent check on what
    that search returns.

    On failure the witness pins the problem down: a repeated residue, or the
    first difference that is covered twice (scanning pairs in sorted order,
    positive difference before its negative); that pair scan runs only once
    the translate test has failed.  The bitmask is built only for q+1
    residues, and only for q up to ``MAX_SEARCH_ORDER``: past it q+1 residues
    are a ``DomainError`` naming the cap, and so are an order that is not an
    int >= 1 (``checked_int``) and a residue that is not an int, a bool
    among them.
    """
    q = checked_int(q, "order", 1)
    m = modulus_for_order(q)
    try:  # one pass of index, cheaper than checked_int, and a bool goes in as None,
        # which index refuses.  Python ints, since numpy's shift overflows.
        res = [index(None if type(x) is bool else x) % m for x in candidate]
    except TypeError:
        raise DomainError(f"residues {candidate!r} are not all ints") from None
    if len(res) == q + 1 and q > MAX_SEARCH_ORDER:  # its masks would take O(q^2) bytes
        raise DomainError(f"order {q} exceeds the cap {MAX_SEARCH_ORDER} on verifying a set")
    bits = 0
    if len(res) == q + 1:  # a bitmask of any other count is wasted, maybe huge
        for x in res:
            bits |= 1 << x
    if bits.bit_count() == q + 1:  # q+1 distinct residues
        # They give q^2+q = m-1 differences, so distinct ones cover every
        # nonzero residue: nothing can be missing.  A right shift of D
        # next to D + m is a rotation.
        doubled = bits | bits << m
        mask = (1 << m) - 1
        union = 0
        for a in res:
            translate = doubled >> a & mask
            if union & translate > 1:  # bit 0 is in every translate
                break
            union |= translate
        else:
            return Verification(True, None, None)
    res.sort()
    for i in range(1, len(res)):
        if res[i] == res[i - 1]:
            return Verification(False, "duplicate-residue", res[i])
    if len(res) != q + 1:
        return Verification(False, "wrong-size", None)
    covered = bytearray(m)
    for i, a in enumerate(res):
        for b in res[:i]:
            w = a - b
            if covered[w]:
                return Verification(False, "difference-covered-twice", w)
            covered[w] = 1
            w = m - w
            if covered[w]:
                return Verification(False, "difference-covered-twice", w)
            covered[w] = 1
    raise ArithmeticError("the translate test and the pair scan disagree")


def _library_set(residues, q: int, producer: str) -> PerfectDifferenceSet:
    """The set on residues the library computed; failing ``verify`` is a bug."""
    try:
        return PerfectDifferenceSet.from_residues(residues, q)
    except DomainError as exc:
        raise ArithmeticError(f"{producer} produced an invalid set: {exc}") from exc


def is_prime_power(n: int) -> bool:
    return prime_power(n) is not None


def singer_construct(q: int) -> PerfectDifferenceSet:
    """Perfect difference set of prime-power order q from the cyclic action
    of a primitive element on the projective plane over GF(q) (Singer,
    Trans. Amer. Math. Soc. 43 (1938) 377-385).

    GF(q^3) is realized as GF(p^(3e)) for q = p^e, with g its primitive
    element.  The point g^i of the plane lies on the line spanned by {1, g}
    over the subfield GF(q) iff g^i = c0 + c1*g for subfield scalars c0, c1.
    Since g has degree 3 over GF(q), 1, g, g^2 is a GF(q)-basis, so that
    test holds iff s_i = 0, where s_i is the g^2-coordinate of g^i.  The
    coordinate is GF(q)-linear, and with g^3 = c1*g^2 + c2*g + c3 over
    GF(q), g^(i+3) = c1*g^(i+2) + c2*g^(i+1) + c3*g^i; so the s_i follow
    Singer's third-order linear recurrence over GF(q):
    s_0, s_1, s_2 = 0, 0, 1 and s_(i+3) = c1*s_(i+2) + c2*s_(i+1) + c3*s_i.
    It is walked on the codes of GF(q) with the addition and multiplication
    tables of ``subfield_recurrence``, which gives c1, c2 and c3 too, and
    the i mod q^2+q+1 with s_i = 0 form the difference set.
    """
    q = checked_int(q, "order", 1)
    if q > MAX_SINGER_ORDER:  # first: the cap answers a huge order at once
        raise DomainError(f"order {q} exceeds the cap {MAX_SINGER_ORDER}")
    decomposition = prime_power(q)
    if decomposition is None:
        raise DomainError(f"{q} is not a prime power")
    p, e = decomposition
    field = make_field(p, 3 * e)
    add, mul, (c1, c2, c3) = subfield_recurrence(field, primitive_element(field), q)
    row1, row2, row3 = mul[c1], mul[c2], mul[c3]
    m = modulus_for_order(q)

    residues = []
    a, b, c = 0, 0, 1  # s_i, s_(i+1), s_(i+2)
    for i in range(m):
        if a == 0:
            residues.append(i)
        a, b, c = b, c, add[add[row1[c]][row2[b]]][row3[a]]
    # g^m = c3 (the norm of g), so after m steps the state is c3 * (0, 0, 1):
    # the walk has gone once round the plane.
    if (a, b, c) != (0, 0, c3):
        raise ArithmeticError("recurrence did not close after m steps")
    return _library_set(residues, q, "construction")


def canonical_form(pds: PerfectDifferenceSet) -> CanonicalForm:
    """Lex-least sorted representative over all translations and all unit
    multiplications mod m.  Idempotent; equal inputs up to equivalence map to
    the same form.

    Every candidate is translated to start at 0, and some candidate holds both
    0 and 1, so the minimum starts (0, 1, ...).  Each unit image u*D is itself
    a perfect difference set, so the difference 1 occurs in it exactly once,
    at a pair (c, c+1), and only the translate by -c can be the minimum.  That
    pair is u*(a, b) for the one pair of D with b - a = v = u^-1 mod m, so the
    candidate of u is {y : a + y*v in D} (mod m).

    By Hall's multiplier theorem (Duke Math. J. 14 (1947) 1079-1090) every
    prime p of q is a multiplier: p*D is a translate of D, so u*p*D is a
    translate of u*D and has the same candidate.  Candidates are therefore
    constant on the cosets of the group H that the primes of q generate mod
    m, and one unit per coset (``_orbits.multiplier_cosets``) is examined:
    60 of 900 units at q = 32.  The theorem holds only for perfect
    difference sets, and the type guarantees that D is one.

    Two sorted (q+1)-sets compare as the one holding the least element of
    their symmetric difference, so a scan for y = 2, 3, ... drops the
    candidates that miss y whenever some candidate holds it.  It stops when
    one candidate is left or when all q+1 elements are fixed (ties, such as
    the units -1 and 1 at q = 1), and only the winner is sorted.  With a
    membership table of D the cost is O(k^2 + phi(m)) for k = q+1 residues.
    """
    q, m, residues = pds.q, pds.m, pds.residues
    member = bytearray(m)
    for x in residues:
        member[x] = 1
    # start[d] is the a in D with a + d in D; unique for d != 0 in a PDS.
    start = [0] * m
    for a in residues:
        for b in residues:
            start[(b - a) % m] = a
    # (a, v) for one v = u^-1 per coset of H; the inverses of a coset are a coset
    survivors = [(start[v], v) for v in _orbits.multiplier_cosets(q)[1]]
    fixed = 2  # every candidate holds 0 and 1
    y = 1
    while len(survivors) > 1 and fixed <= q:
        y += 1
        holding = [(a, v) for a, v in survivors if member[(a + y * v) % m]]
        if holding:
            survivors = holding
            fixed += 1
    a, v = survivors[0]
    u = pow(v, -1, m)
    return CanonicalForm(q=q, m=m, residues=tuple(sorted(u * (x - a) % m for x in residues)))


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    status: str  # "Found" | "NoneExists" | "BudgetExceeded"
    pds: Optional[PerfectDifferenceSet]
    nodes: int


@dataclass(frozen=True)
class EnumerationResult:
    complete: bool
    sets: tuple[tuple[int, ...], ...]  # all (0,1)-rooted solutions
    nodes: int  # unions of orbits examined over both passes, each root included


def _search_order(q) -> int:
    q = checked_int(q, "order", 1)
    if q > MAX_SEARCH_ORDER:
        raise DomainError(f"order {q} exceeds the search cap {MAX_SEARCH_ORDER}")
    return q


def exhaustive_search(q: int, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchResult:
    """Complete search for one perfect difference set of order q among unions
    of multiplier orbits (Hall's multiplier theorem and McFarland-Rice; see
    ``_orbits``): the two walks of ``enumerate_all``, up to the first set.

    A node is one union of orbits examined, and `budget` caps the nodes of
    the whole search.  A found set is fixed by every multiplier.  NoneExists
    means every union of size q+1 was ruled out, so no set of order q exists;
    BudgetExceeded means exactly `budget` nodes were visited without a
    verdict.  A budget that is not an int >= 0 is a DomainError.
    """
    q = _search_order(q)
    status, nodes, residues = _orbits.search(q, checked_int(budget, "budget", 0))
    return SearchResult(status, _library_set(residues, q, "search") if residues else None, nodes)


def enumerate_all(q: int, budget: int = DEFAULT_SEARCH_BUDGET) -> EnumerationResult:
    """Every perfect difference set of order q containing {0, 1}, sorted.

    The search of ``exhaustive_search`` runs to its end with the whole node
    budget and lists every set fixed by the multipliers (``_orbits.search``).
    Through the unit scaling that ``_orbits`` states, its pass 1 walks the
    unions of orbits that hold H, the orbit of 1, and scales each one by one
    unit per coset of H; pass 2 walks the unions of non-unit orbits, which
    cover the fixed sets without a unit.  A node is one union of orbits
    examined: H alone at the root of pass 1, the empty union at the root of
    pass 2, and each union one orbit larger in either.

    Each set has difference 1 at exactly one pair (a, a+1), and its
    translate by -a is the one that contains 0 and 1; by McFarland-Rice
    every such set is one of these translates.  Several fixed sets can share
    a translate, and a fixed set can be listed more than once, so the
    translates are listed once each, in sorted order, and each has passed
    ``verify``.  Canonicalizing them surveys all classes.  ``complete`` is
    False when the budget ran out, in which case the listing may be partial.
    A budget that is not an int >= 0 is a DomainError.
    """
    q = _search_order(q)
    m = modulus_for_order(q)
    fixed: list[list[int]] = []
    status, nodes, _ = _orbits.search(q, checked_int(budget, "budget", 0), fixed)
    rooted = set()
    for residues in fixed:
        members = set(residues)
        a = next(a for a in residues if (a + 1) % m in members)
        rooted.add(frozenset((x - a) % m for x in residues))
    sets = sorted(_library_set(s, q, "enumeration").residues for s in rooted)
    return EnumerationResult(status != "BudgetExceeded", tuple(sets), nodes)


# ---------------------------------------------------------------------------
# Order feasibility
# ---------------------------------------------------------------------------


def bruck_ryser_excludes(order: int) -> bool:
    """Nonexistence test: order = 1, 2 (mod 4) and not a sum of two squares."""
    if order % 4 not in (1, 2):
        return False
    return not is_sum_of_two_squares(order)


def wilbrink_excludes(order: int) -> bool:
    """Nonexistence test: order >= 6 and order = 3, 6 (mod 9)."""
    return order >= 6 and order % 9 in (3, 6)


@dataclass(frozen=True)
class FeasibilityReport:
    """Combined verdict of the classical tests and the multiplier-orbit search.

    ``exhaustive_result`` is the status of ``exhaustive_search``: Found or
    NoneExists, or NotAttempted when it was not run (prime powers, orders
    above the search cap) or ran out of budget.  The search is complete by
    Hall's multiplier theorem and McFarland-Rice.
    ``reasons`` names the tests the verdict rests on: ``prime-power``,
    ``bruck-ryser``, ``wilbrink`` or ``multiplier-search``.  A completed search
    shows up there only when it is the sole excluder, otherwise it speaks
    through ``exhaustive_result``.
    """

    order: int
    is_prime_power: bool
    bruck_ryser_excludes: bool
    wilbrink_excludes: bool
    exhaustive_result: str
    verdict: str  # "Exists" | "Excluded" | "OpenByTheseTests"
    reasons: tuple[str, ...]
    witness: Optional[PerfectDifferenceSet]

    def to_record(self) -> dict:
        return {
            "order": self.order,
            "is_prime_power": self.is_prime_power,
            "bruck_ryser_excludes": self.bruck_ryser_excludes,
            "wilbrink_excludes": self.wilbrink_excludes,
            "exhaustive_result": self.exhaustive_result,
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "witness": self.witness.to_record() if self.witness else None,
        }


def feasibility(order: int,
                search_budget: int = DEFAULT_SEARCH_BUDGET) -> FeasibilityReport:
    """Existence verdict for perfect difference sets of the given order.

    Prime powers exist by construction (a Singer witness is attached at desk
    scale).  Otherwise ``exhaustive_search``, the multiplier-orbit search,
    runs within ``search_budget`` nodes, alongside the Bruck-Ryser and
    Wilbrink congruence tests.  By Hall's multiplier theorem every prime
    dividing the order is a multiplier, and by McFarland-Rice some translate
    of any set is fixed by all of them, so a search over unions of multiplier
    orbits is complete: its NoneExists excludes the order (reason
    ``multiplier-search``).
    Excluded is never claimed unless at least one test actually fired.  An
    order that is not an int >= 1 is a DomainError (``checked_int``), so is
    a ``search_budget`` that is not an int >= 0, whatever the order, and so
    is an order that needs factoring past the trial-division bound, in
    ``prime_power`` or in the Bruck-Ryser test (``is_sum_of_two_squares``);
    both come from ``gf``, which owns the package's factoring.
    """
    order = checked_int(order, "order", 1)
    search_budget = checked_int(search_budget, "budget", 0)
    pp = is_prime_power(order)
    br = bruck_ryser_excludes(order)
    wb = wilbrink_excludes(order)

    if pp:
        if br or wb:
            raise ArithmeticError(
                f"exclusion test fired on prime power {order}")
        witness = singer_construct(order) if order <= MAX_SINGER_ORDER else None
        return FeasibilityReport(order, True, br, wb, "NotAttempted",
                                 "Exists", ("prime-power",), witness)

    theory = tuple(name for fired, name in
                   ((br, "bruck-ryser"), (wb, "wilbrink")) if fired)
    result = exhaustive_search(order, search_budget) if order <= MAX_SEARCH_ORDER else None
    # a search not run or out of budget reads NotAttempted (the wire format)
    status = result.status if result and result.status != "BudgetExceeded" else "NotAttempted"
    if status == "Found":
        verdict, reasons = "Exists", ("multiplier-search",)
    elif status == "NoneExists" or theory:
        verdict, reasons = "Excluded", theory or ("multiplier-search",)
    else:
        verdict, reasons = "OpenByTheseTests", ()
    return FeasibilityReport(order, False, br, wb, status, verdict, reasons,
                             result.pds if result else None)
