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
runs serially under a single node budget.  ``feasibility`` combines the
Bruck-Ryser and Wilbrink nonexistence tests with ``exhaustive_search``; a
verdict that rests on that search carries the reason ``multiplier-search``.
A plain backtracker over the sets containing {0, 1} is kept only in the
tests, as this search's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import index
from typing import NamedTuple, Optional

from . import _orbits, gf
from .gf import DomainError, factorize, make_field, primitive_element

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
    Anything else, any other modulus or an order below 1 included, is a
    ``DomainError``.
    """

    q: int
    m: int
    residues: tuple[int, ...]

    def __post_init__(self):
        if self.m != modulus_for_order(self.q):
            raise DomainError(
                f"modulus {self.m} is not q^2+q+1 = {modulus_for_order(self.q)} for q = {self.q}")
        object.__setattr__(self, "residues", tuple(sorted(x % self.m for x in self.residues)))
        check = verify(self.residues, self.q)
        if not check.valid:
            raise DomainError(f"not a perfect difference set: {check}")

    def to_record(self) -> dict:
        """JSON-ready record; the wire format used by the CLI and fixtures."""
        return {"q": self.q, "m": self.m, "residues": list(self.residues)}

    @staticmethod
    def from_residues(residues, q: int) -> "PerfectDifferenceSet":
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
    the translate test has failed.  Orders below 1 are rejected.
    """
    if q < 1:
        raise DomainError("order must be >= 1")
    m = modulus_for_order(q)
    res = [x % m for x in map(index, candidate)]  # Python ints: numpy's shift overflows
    bits = 0
    for x in res:
        bits |= 1 << x
    if len(res) == bits.bit_count() == q + 1:  # q+1 distinct residues
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


def _integer_root(n: int, e: int) -> int:
    """floor(n^(1/e)) for n >= 1 and e >= 1, by Newton's method on integers
    from 2^ceil(bits/e), which is at least the root."""
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


# Prime factors up to the largest Miller-Rabin base are found by division.
_SMALL_PRIMES = gf._MILLER_RABIN_BASES


def prime_power(n: int) -> Optional[tuple[int, int]]:
    """(p, e) with n = p^e for prime p, or None.  n = 1 is not a prime power.

    A prime factor p <= 37 is found by division, and then n must be its
    power.  Otherwise every prime factor exceeds 37, so n = r^e needs
    37^e < n.  Those e are tried from the largest down, and the first with
    an exact integer root r decides: r is then no perfect power itself, so
    n is a prime power iff ``gf.is_prime`` accepts r.  That is deterministic
    Miller-Rabin below about 3 * 10^23, so no order below it is factored,
    and a prime's square is decided at e = 2 whatever its size.
    """
    if n < 2:
        return None
    for p in _SMALL_PRIMES:
        if n % p == 0:
            e = 1
            n //= p
            while n % p == 0:
                e += 1
                n //= p
            return (p, e) if n == 1 else None
    top = 1
    while _SMALL_PRIMES[-1] ** (top + 1) < n:
        top += 1
    for e in range(top, 0, -1):
        r = _integer_root(n, e)
        if r ** e == n:  # always so at e = 1
            break
    return (r, e) if gf.is_prime(r) else None


def is_prime_power(n: int) -> bool:
    return prime_power(n) is not None


def _subfield_tables(h: int, q: int, ring: tuple):
    """GF(q) inside the field of the ring (``GfField._quotient``) as integer
    codes, with addition and multiplication tables.

    h, a packed polynomial, generates GF(q)*.  The code of 0 is 0 and the
    code of h^j is j + 1; ``codes`` maps an element's packed polynomial to
    its code.  The powers of h are walked on packed ints, one ``_mulmod``
    each.  Row i + 1 of ``mul`` is 0 followed by the codes of h^i, h^(i+1),
    ... cyclically.  ``add`` comes from Zech logarithms: zech[j] is the code
    of 1 + h^j, which is h^j with its constant slot raised by 1 mod p, and
    h^i + h^j = h^i * (1 + h^(j-i)), so row i + 1 of ``add`` reads row i + 1
    of ``mul`` at the zech codes rotated by i.  Returns (codes, add, mul),
    where add[a][b] and mul[a][b] are the codes of the sum and the product.
    """
    n = q - 1
    p, mask = ring[0], (1 << ring[-1]) - 1  # mask: one slot
    powers = []
    cur = 1
    for _ in range(n):
        powers.append(cur)
        cur = gf._mulmod(cur, h, ring)
    codes = dict(zip(powers, range(1, q)))
    codes[0] = 0
    if cur != 1 or len(codes) != q:
        raise ArithmeticError("subfield reconstruction failed")
    # h has order q - 1 exactly, so {0} and its powers are all of GF(q), and
    # 1 + h^j has a code.
    zech = [codes[gf._shift_slot(x, 0, 1, p, mask)] for x in powers]
    codes_of_powers = list(range(1, q))
    mul = [[0] * q] + [[0] + codes_of_powers[i:] + codes_of_powers[:i] for i in range(n)]
    add = [list(range(q))] + [[i + 1, *map(mul[i + 1].__getitem__, zech[n - i:] + zech[:n - i])]
                              for i in range(n)]
    return codes, add, mul


def _minimal_polynomial(g: int, q: int, ring: tuple):
    """(e1, e2, e3), packed, with g^3 = e1*g^2 - e2*g + e3 for the packed g
    in the field of the ring (``GfField._quotient``).

    They are the elementary symmetric functions of the conjugates g, g^q and
    g^(q^2) of g over GF(q), so x^3 - e1*x^2 + e2*x - e3 is the minimal
    polynomial of g over GF(q) and each e_i is fixed by x -> x^q.  With
    u = g^q * g^(q^2): e1 is the reduced sum of the three conjugates,
    e2 = g * (g^q + g^(q^2)) + u and e3 = g * u = g^(1+q+q^2).
    """
    mulmod = gf._mulmod
    gq = gf._powmod(g, q, ring)
    gqq = gf._powmod(gq, q, ring)
    u = mulmod(gq, gqq, ring)
    e1 = mulmod(g + gq + gqq, 1, ring)
    e2 = mulmod(mulmod(g, gq + gqq, ring) + u, 1, ring)
    return e1, e2, mulmod(g, u, ring)


def singer_construct(q: int) -> PerfectDifferenceSet:
    """Perfect difference set of prime-power order q from the cyclic action
    of a primitive element on the projective plane over GF(q) (Singer,
    Trans. Amer. Math. Soc. 43 (1938) 377-385).

    GF(q^3) is realized as GF(p^(3e)) for q = p^e, with g its primitive
    element.  The point g^i of the plane lies on the line spanned by {1, g}
    over the subfield GF(q) iff g^i = c0 + c1*g for subfield scalars c0, c1.
    Since g has degree 3 over GF(q), 1, g, g^2 is a GF(q)-basis, so that
    test holds iff s_i = 0, where s_i is the g^2-coordinate of g^i.  The
    coordinate is GF(q)-linear, and with x^3 - e1*x^2 + e2*x - e3 the
    minimal polynomial of g, g^(i+3) = e1*g^(i+2) - e2*g^(i+1) + e3*g^i; so
    the s_i follow Singer's third-order linear recurrence over GF(q):
    s_0, s_1, s_2 = 0, 0, 1 and s_(i+3) = e1*s_(i+2) - e2*s_(i+1) + e3*s_i.
    It is walked with GF(q) addition and multiplication tables, and the
    i mod q^2+q+1 with s_i = 0 form the difference set.  The tables are
    built on h = e3 = g^(1+q+q^2) = g^m: GF(q)* is the unique cyclic
    subgroup of index m of GF(q^3)*, so g^m generates it.  The field work
    runs on packed ints (``gf._mulmod``), with no ``GfElement`` past g.
    """
    if q > MAX_SINGER_ORDER:  # first: the cap answers a huge order at once
        raise DomainError(f"order {q} exceeds the cap {MAX_SINGER_ORDER}")
    decomposition = prime_power(q)
    if decomposition is None:
        raise DomainError(f"{q} is not a prime power")
    p, e = decomposition
    field = make_field(p, 3 * e)
    ring = field._quotient
    g = primitive_element(field).packed
    m = modulus_for_order(q)

    e1, e2, e3 = _minimal_polynomial(g, q, ring)
    codes, add, mul = _subfield_tables(e3, q, ring)
    if e1 not in codes or e2 not in codes:
        raise ArithmeticError("minimal polynomial is not over the subfield")
    minus_e2 = mul[codes[e2]][codes[p - 1]]  # the packed constant p - 1 is -1
    row1, row2, row3 = mul[codes[e1]], mul[minus_e2], mul[codes[e3]]

    residues = []
    a, b, c = 0, 0, 1  # s_i, s_(i+1), s_(i+2)
    for i in range(m):
        if a == 0:
            residues.append(i)
        a, b, c = b, c, add[add[row1[c]][row2[b]]][row3[a]]
    # g^m = e3, so after m steps the state is e3 * (0, 0, 1): the walk has
    # gone once round the plane.
    if (a, b, c) != (0, 0, codes[e3]):
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
    m, and one unit per coset (``_orbits.coset_leaders``) is examined: 60 of
    900 units at q = 32.  The theorem holds only for perfect difference
    sets, and the type guarantees that D is one.

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
    group = _orbits.generated_subgroup(sorted(factorize(q)), m, m)
    # (a, v) for one v = u^-1 per coset of H; the inverses of a coset are a coset
    survivors = [(start[v], v) for v in _orbits.coset_leaders(group, m)]
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
    nodes: int


def _validate_search_order(q: int) -> int:
    if q < 1:
        raise DomainError("order must be >= 1")
    if q > MAX_SEARCH_ORDER:
        raise DomainError(f"order {q} exceeds the search cap {MAX_SEARCH_ORDER}")
    return modulus_for_order(q)


def _validate_budget(budget: int) -> None:
    if budget < 0:
        raise DomainError("budget must be >= 0")


def exhaustive_search(q: int, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchResult:
    """Complete search for one perfect difference set of order q among unions
    of multiplier orbits (Hall's multiplier theorem and McFarland-Rice; see
    ``_orbits``).

    A node is one union of orbits examined, and `budget` caps the nodes of
    the whole search.  A found set is fixed by every multiplier.  NoneExists
    means every union of size q+1 was ruled out, so no set of order q exists;
    BudgetExceeded means exactly `budget` nodes were visited without a
    verdict.  A negative budget is a DomainError.
    """
    _validate_search_order(q)
    _validate_budget(budget)
    status, nodes, residues = _orbits.search(q, budget)
    if status != "Found":
        return SearchResult(status, None, nodes)
    return SearchResult("Found", _library_set(residues, q, "search"), nodes)


def enumerate_all(q: int, budget: int = DEFAULT_SEARCH_BUDGET) -> EnumerationResult:
    """Every perfect difference set of order q containing {0, 1}, sorted.

    The search of ``exhaustive_search`` lists every set fixed by the
    multipliers, counting one node per union of orbits examined, with the
    whole node budget.  Each set has difference 1 at exactly one pair
    (a, a+1), and its translate by -a is the one that contains 0 and 1; by
    McFarland-Rice every such set is one of these translates.  Several fixed
    sets can share a translate, so the translates are listed once each, in
    sorted order, and each has passed ``verify``.  Canonicalizing them
    surveys all classes.  ``complete`` is False when the budget ran out, in
    which case the listing may be partial.  A negative budget is a DomainError.
    """
    m = _validate_search_order(q)
    _validate_budget(budget)
    fixed: list[list[int]] = []
    status, nodes, _ = _orbits.search(q, budget, fixed)
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


# Trial division for ``is_sum_of_two_squares`` stops at this bound.
TWO_SQUARES_TRIAL_BOUND = gf.TRIAL_DIVISION_BOUND


def is_sum_of_two_squares(n: int) -> bool:
    """n = a^2 + b^2 for integers a, b, 0 allowed.

    By Fermat and Euler, n >= 1 is such a sum iff every prime = 3 (mod 4)
    divides it to an even power, so the test reads n's factorization.  The
    primes up to ``TWO_SQUARES_TRIAL_BOUND`` are divided out, and one of them
    = 3 (mod 4) to an odd power settles False.  The cofactor c left then has
    no prime factor below the bound.  It is settled False when c = 3 (mod 4),
    and True when it is 1, a square (each prime of which divides it to an
    even power) or a prime.  Any other cofactor would need factoring: that
    is a ``DomainError`` naming the bound, from here or from ``gf.is_prime``
    past its exact range, never a guess and never a long loop.
    """
    if n < 1:
        return n == 0
    whole, f = n, 2
    while f <= TWO_SQUARES_TRIAL_BOUND and f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e % 2 and f % 4 == 3:
            return False
        f += 1 if f == 2 else 2
    # No prime below f divides the cofactor n, so n < f^2 is 1 or a prime.
    # A product of primes = 1 (mod 4) and of even powers is = 1 (mod 4), so
    # an odd n = 3 (mod 4) has a prime = 3 (mod 4) to an odd power.
    if n % 4 == 3:
        return False
    if n < f * f or isqrt(n) ** 2 == n or gf.is_prime(n):
        return True
    raise DomainError(f"cannot tell whether {whole} is a sum of two squares: its cofactor {n} "
                      f"has no prime factor up to the trial-division bound "
                      f"{TWO_SQUARES_TRIAL_BOUND} and needs factoring")


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
    Excluded is never claimed unless at least one test actually fired.  A
    negative ``search_budget`` is a DomainError, whatever the order, and so
    is an order that needs factoring past the trial-division bound, in
    ``gf.is_prime`` or in the Bruck-Ryser test (``is_sum_of_two_squares``).
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    _validate_budget(search_budget)
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
