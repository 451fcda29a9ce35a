"""Difference-set tests: verification, Singer construction, canonical forms,
exhaustive search, and the order-feasibility report.

The verification oracle here recounts differences with a Counter, independent
of the library's bitset; canonical forms are cross-checked against a brute
enumeration of the full transform orbit and against a scan of every translate
of every unit image.
"""

import ast
import hashlib
import inspect
import random
import textwrap
import time
from collections import Counter
from math import gcd, isqrt

import numpy as np
import pytest

import search_oracle
import singer_oracle
import verify_oracle
from powersum import _orbits
from powersum import gf as gf_module
from powersum import pds as pds_module
from powersum.gf import DomainError, factorize, make_field, primitive_element
from powersum.pds import (
    DEFAULT_SEARCH_BUDGET,
    CanonicalForm,
    EnumerationResult,
    PerfectDifferenceSet,
    SearchResult,
    bruck_ryser_excludes,
    canonical_form,
    enumerate_all,
    exhaustive_search,
    feasibility,
    is_prime_power,
    is_sum_of_two_squares,
    modulus_for_order,
    prime_power,
    singer_construct,
    verify,
    wilbrink_excludes,
)

SMALL_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
SINGER_ORDERS = tuple(q for q in range(2, 33) if prime_power(q))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def difference_counter(residues, m):
    return Counter((a - b) % m for a in residues for b in residues if a != b)


def is_pds_by_counter(residues, q):
    m = modulus_for_order(q)
    res = {x % m for x in residues}
    if len(res) != q + 1:
        return False
    counts = difference_counter(res, m)
    return all(counts.get(d, 0) == 1 for d in range(1, m))


def canonical_by_full_orbit(residues, q):
    """Lex-least over every translation and unit multiplication (brute)."""
    m = modulus_for_order(q)
    best = None
    for u in range(1, m):
        if gcd(u, m) != 1:
            continue
        for t in range(m):
            cand = tuple(sorted((u * a + t) % m for a in residues))
            if best is None or cand < best:
                best = cand
    return best


def canonical_by_every_translate(residues, q):
    """Lex-least over every unit image u*D and every translate of it that
    moves one of its elements to 0 (k candidates per unit)."""
    m = modulus_for_order(q)
    best = None
    for u in range(1, m):
        if gcd(u, m) != 1:
            continue
        image = [(u * a) % m for a in residues]
        for base in image:
            cand = tuple(sorted((x - base) % m for x in image))
            if best is None or cand < best:
                best = cand
    return best


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_examples():
    assert verify((0, 1, 3), 2).valid
    bad = verify((0, 1, 2), 2)
    assert not bad.valid
    assert bad.reason == "difference-covered-twice"
    assert bad.witness == 1  # 1-0 and 2-1
    assert verify((0, 1, 3, 9), 3).valid
    assert verify((0, 1, 4, 14, 16), 4).valid


def test_verify_examples_against_counter_oracle():
    for residues, q in [((0, 1, 3), 2), ((0, 1, 2), 2), ((0, 1, 3, 9), 3),
                        ((0, 1, 4, 14, 16), 4), ((0, 2, 3), 2)]:
        assert verify(residues, q).valid == is_pds_by_counter(residues, q)


def test_verify_random_candidates_match_oracle():
    rng = random.Random(424242)
    for q in (2, 3, 4):
        m = modulus_for_order(q)
        for _ in range(300):
            cand = tuple(rng.sample(range(m), q + 1))
            assert verify(cand, q).valid == is_pds_by_counter(cand, q)


def test_verify_matches_its_reference_on_random_candidates():
    """Wrong sizes, repeats and residues outside 0 .. m-1, for q <= 16: the
    same verdict, reason and witness as the reference scan."""
    rng = random.Random(20_001)
    for _ in range(10_000):
        q = rng.randint(1, 16)
        m = modulus_for_order(q)
        size = max(0, q + 1 + rng.choice((-2, -1, 0, 0, 0, 0, 1)))
        cand = [rng.randrange(-m, 2 * m) for _ in range(size)]
        if cand and rng.random() < 0.2:
            cand[rng.randrange(size)] = rng.choice(cand) + rng.choice((0, m, -m))
        assert verify(cand, q) == verify_oracle.verify(cand, q)


@pytest.mark.parametrize("q", SINGER_ORDERS)
def test_verify_matches_its_reference_on_singer_sets_and_their_one_residue_changes(q):
    residues = singer_construct(q).residues
    assert verify(residues, q) == verify_oracle.verify(residues, q) == (True, None, None)
    rng = random.Random(q)
    m = modulus_for_order(q)
    for _ in range(50):
        cand = list(residues)
        cand[rng.randrange(q + 1)] = rng.randrange(m)
        assert verify(cand, q) == verify_oracle.verify(cand, q)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11, 13))
def test_verify_matches_its_reference_on_every_unit_image_of_a_singer_set(q):
    # u*D is a perfect difference set for every unit u, so this is the valid
    # path in bulk; random candidates almost never reach it.
    residues = singer_construct(q).residues
    m = modulus_for_order(q)
    images = [[u * x % m for x in residues] for u in range(1, m) if gcd(u, m) == 1]
    for image in images:
        assert verify(image, q) == verify_oracle.verify(image, q) == (True, None, None)


def test_verify_takes_numpy_integers_like_ints():
    residues = singer_construct(32).residues
    clash = residues[:-1] + (residues[0] + 1,)
    for cand in (residues, clash, residues + (5,)):
        assert verify(np.array(cand), 32) == verify(list(cand), 32)
    with pytest.raises(DomainError, match="are not all ints"):
        verify([0.0, 1.0, 3.0], 2)


def test_verify_refers_to_nothing_in_the_search_kernel():
    # verify checks what _orbits.search returns, so it must not share its code.
    tree = ast.parse(textwrap.dedent(inspect.getsource(pds_module.verify)))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "_orbits" not in names
    for name in names:
        value = getattr(pds_module, name, None)
        assert value is not _orbits, name
        assert getattr(value, "__module__", None) != _orbits.__name__, name


@pytest.mark.parametrize("q", (-1, 0))
def test_verify_rejects_orders_below_one(q):
    with pytest.raises(DomainError, match="order must be >= 1"):
        verify((0,), q)


def test_verify_rejects_duplicates_and_size():
    dup = verify((0, 1, 8), 2)  # 8 = 1 mod 7
    assert not dup.valid and dup.reason == "duplicate-residue" and dup.witness == 1
    short = verify((0, 1), 2)
    assert not short.valid and short.reason == "wrong-size"


def test_verify_checks_the_count_before_building_a_bitmask():
    # a bitmask of either set would need 10^18 bits
    assert verify((0, 1, 10**18 - 1), 10**9) == (False, "wrong-size", None)
    assert verify((5, 5, 10**18 - 1), 10**9) == (False, "duplicate-residue", 5)


def test_verify_refuses_q_plus_one_residues_past_the_cap():
    # the masks of 5001 residues mod 5000^2 + 5000 + 1 would take ~ 40 MB
    for q in (pds_module.MAX_SEARCH_ORDER + 1, 5000):
        with pytest.raises(DomainError, match=f"^order {q} exceeds the cap 3000 on verifying"):
            verify(range(q + 1), q)
    assert not verify(range(3001), 3000).valid


@pytest.mark.parametrize("order", (2.0, 2.5, True, False, "3", None))
@pytest.mark.parametrize("call", (
    lambda q: verify((0, 1, 3), q),
    singer_construct,
    exhaustive_search,
    enumerate_all,
    feasibility,
), ids=("verify", "singer_construct", "exhaustive_search", "enumerate_all", "feasibility"))
def test_an_order_that_is_not_an_int_is_a_domain_error(call, order):
    with pytest.raises(DomainError, match=f"^order {order!r} is not an int$"):
        call(order)


def test_an_integer_order_of_another_type_becomes_an_int():
    q = np.int64(2)
    assert verify((0, 1, 3), q).valid
    assert type(singer_construct(q).q) is int
    assert type(exhaustive_search(q).pds.q) is int
    assert enumerate_all(q).sets == ((0, 1, 3), (0, 1, 5))
    assert type(feasibility(q).order) is int


def test_difference_count_identity():
    # a verified order-q set yields exactly q^2+q = m-1 ordered differences
    for q in (2, 3, 4, 5, 7):
        d = singer_construct(q)
        counts = difference_counter(d.residues, d.m)
        assert sum(counts.values()) == d.m - 1 == q * q + q
        assert set(counts) == set(range(1, d.m))


# ---------------------------------------------------------------------------
# PerfectDifferenceSet holds the invariant
# ---------------------------------------------------------------------------


INVALID_ORDER_2 = (((0, 1, 8), "duplicate-residue"),
                   ((0, 1), "wrong-size"),
                   ((0, 1, 2), "difference-covered-twice"))


@pytest.mark.parametrize("residues, reason", INVALID_ORDER_2,
                         ids=[reason for _, reason in INVALID_ORDER_2])
def test_constructor_and_from_residues_reject_an_invalid_set(residues, reason):
    with pytest.raises(DomainError, match=reason):
        PerfectDifferenceSet(q=2, m=7, residues=residues)
    with pytest.raises(DomainError, match=reason):
        PerfectDifferenceSet.from_residues(residues, 2)


def test_constructor_rejects_a_wrong_modulus():
    # (0, 1, 3) is a valid set of order 2, but only modulo 7.
    with pytest.raises(DomainError, match="modulus 8"):
        PerfectDifferenceSet(q=2, m=8, residues=(0, 1, 3))


def test_constructor_stores_residues_reduced_and_sorted():
    d = PerfectDifferenceSet(q=2, m=7, residues=(10, 0, 8))
    assert d.residues == (0, 1, 3)
    assert d.to_record() == {"q": 2, "m": 7, "residues": [0, 1, 3]}
    assert d == PerfectDifferenceSet.from_residues((3, 1, 0), 2)


@pytest.mark.parametrize("call", [lambda: singer_construct(4),
                                  lambda: exhaustive_search(9),
                                  lambda: enumerate_all(3)],
                         ids=["singer_construct", "exhaustive_search", "enumerate_all"])
def test_an_invalid_set_from_the_library_is_an_internal_error(call, monkeypatch):
    monkeypatch.setattr(
        pds_module, "verify",
        lambda candidate, q: pds_module.Verification(False, "difference-covered-twice", 1))
    with pytest.raises(ArithmeticError, match="produced an invalid set") as excinfo:
        call()
    assert isinstance(excinfo.value.__cause__, DomainError)
    assert str(excinfo.value.__cause__).startswith("not a perfect difference set: ")


# ---------------------------------------------------------------------------
# singer_construct
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", SMALL_PRIME_POWERS)
def test_singer_passes_verify(q):
    d = singer_construct(q)
    assert d.m == q * q + q + 1
    assert len(d.residues) == q + 1
    assert verify(d.residues, q).valid
    assert is_pds_by_counter(d.residues, q)


def test_singer_rejects_non_prime_power():
    with pytest.raises(DomainError, match="^6 is not a prime power$"):
        singer_construct(6)
    with pytest.raises(DomainError, match="^1 is not a prime power$"):
        singer_construct(1)


def test_singer_rejects_oversized_order():
    with pytest.raises(DomainError, match="^order 37 exceeds the cap 32$"):
        singer_construct(37)


def test_singer_checks_the_cap_before_factorizing(monkeypatch):
    # trial division of a prime near 10^18 would run for minutes
    def no_factorizing(n):
        pytest.fail(f"prime_power({n}) called above the cap")
    monkeypatch.setattr(pds_module, "prime_power", no_factorizing)
    with pytest.raises(DomainError, match="exceeds the cap 32"):
        singer_construct(10**18 + 3)


def test_singer_deterministic_and_q2_class():
    a = singer_construct(2)
    b = singer_construct(2)
    assert a == b
    assert canonical_form(a).residues == (0, 1, 3)


def test_singer_largest_supported_order():
    d = singer_construct(32)
    assert verify(d.residues, 32).valid


@pytest.mark.parametrize("q", SINGER_ORDERS)
def test_singer_matches_the_span_oracle(q):
    assert singer_construct(q).residues == singer_oracle.singer_residues(q)


# q -> (modulus of GF(q^3), its primitive element as an integer, sum of the
# Singer residues, sum of their squares).  Recorded once and compared as
# plain numbers, so a fault in the field set-up cannot pass on both sides
# as it can against ``singer_oracle``, which takes the modulus and g from it.
SINGER_FIELDS = {
    2: ((1, 1, 0, 1), 2, 4, 10),
    3: ((1, 2, 0, 1), 3, 13, 91),
    4: ((1, 1, 0, 0, 0, 0, 1), 2, 33, 425),
    5: ((1, 1, 0, 1), 9, 44, 550),
    7: ((2, 0, 0, 1), 22, 209, 8683),
    8: ((1, 1, 0, 0, 0, 0, 0, 0, 0, 1), 7, 310, 16826),
    9: ((2, 1, 0, 0, 0, 0, 1), 3, 249, 10013),
    11: ((4, 1, 0, 1), 11, 730, 68038),
    13: ((2, 0, 0, 1), 15, 1220, 156892),
    16: ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3, 1729, 288925),
    17: ((3, 1, 0, 1), 17, 2088, 395708),
    19: ((2, 0, 0, 1), 29, 3302, 857758),
    23: ((3, 1, 0, 1), 23, 4855, 1564965),
    25: ((2, 1, 0, 0, 0, 0, 1), 5, 7480, 3304342),
    27: ((1, 0, 1, 2, 0, 0, 0, 0, 0, 1), 3, 10860, 5489512),
    29: ((4, 1, 0, 1), 30, 12540, 7589936),
    31: ((3, 0, 0, 1), 34, 14233, 9660235),
    32: ((1, 1) + (0,) * 13 + (1,), 2, 13708, 9275208),
}


def test_singer_residues_are_pinned():
    assert singer_construct(2).residues == (0, 1, 3)
    assert singer_construct(3).residues == (0, 1, 3, 9)
    assert singer_construct(4).residues == (0, 1, 6, 8, 18)
    assert singer_construct(5).residues == (0, 1, 4, 10, 12, 17)
    assert tuple(SINGER_FIELDS) == SINGER_ORDERS
    for q, (modulus, g, total, squares) in SINGER_FIELDS.items():
        p, e = prime_power(q)
        field = make_field(p, 3 * e)
        assert field.modulus_poly == modulus
        assert primitive_element(field) == g
        residues = singer_construct(q).residues
        assert len(residues) == q + 1
        assert (sum(residues), sum(r * r for r in residues)) == (total, squares)


@pytest.mark.parametrize("q", (2, 9, 32))
def test_singer_construct_calls_make_field_and_primitive_element_once(q, monkeypatch):
    # perfbench/tracing.py times the gf layers by wrapping these two names on
    # powersum.pds; a build that went round them would leave those layers at 0.
    calls = Counter()
    for name in ("make_field", "primitive_element"):
        def counted(*args, _inner=getattr(pds_module, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(pds_module, name, counted)
    assert singer_construct(q).residues == singer_oracle.singer_residues(q)
    assert calls == {"make_field": 1, "primitive_element": 1}


def test_singer_field_work_stays_within_its_multiplication_count(monkeypatch):
    # Every GF(p^k) multiplication, power and field set-up goes through
    # gf._mulmod, so its call count over all Singer orders is a deterministic
    # measure of the field work: 1217 calls, against 1494 when the Singer
    # set-up took g^m and the minimal polynomial as GfElement arithmetic, and
    # 4124 when the modulus search took a gcd per Frobenius step and the
    # primitive element a power per prime of p^k - 1.  The modulus search
    # makes 31 Euclid runs (gf._poly_gcd, on coefficient lists) and builds
    # 49 Barrett rings (gf._ring), one per Ben-Or test and one per field.
    # The ceilings are about 10 % above.
    calls = {"_mulmod": 0, "_poly_gcd": 0, "_ring": 0}

    def counting(name, inner):
        def counted(*args):
            calls[name] += 1
            return inner(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(gf_module, name, counting(name, getattr(gf_module, name)))
    for q in SINGER_ORDERS:
        singer_construct(q)
    assert 0 < calls["_mulmod"] <= 1340, calls
    assert 0 < calls["_poly_gcd"] <= 34, calls
    assert 0 < calls["_ring"] <= 54, calls


# ---------------------------------------------------------------------------
# canonical_form
# ---------------------------------------------------------------------------


def test_canonical_form_examples():
    pds = PerfectDifferenceSet.from_residues((1, 2, 4), 2)
    assert canonical_form(pds).residues == (0, 1, 3)
    unit_image = PerfectDifferenceSet.from_residues((0, 2, 6), 2)
    assert canonical_form(unit_image).residues == (0, 1, 3)


def test_canonical_form_idempotent_and_matches_brute_force():
    rng = random.Random(7)
    for q in (2, 3, 4, 5):
        d = singer_construct(q)
        m = d.m
        # random translate+unit image of the Singer set
        units = [u for u in range(1, m) if gcd(u, m) == 1]
        u = rng.choice(units)
        t = rng.randrange(m)
        image = PerfectDifferenceSet.from_residues(
            [(u * a + t) % m for a in d.residues], q)
        cf = canonical_form(image)
        assert cf.residues == canonical_by_full_orbit(d.residues, q)
        assert cf.residues[0] == 0
        again = canonical_form(PerfectDifferenceSet.from_residues(cf.residues, q))
        assert again.residues == cf.residues


@pytest.mark.parametrize("q", [q for q in range(2, 33) if is_prime_power(q)])
def test_canonical_form_matches_every_translate_on_singer_sets(q):
    d = singer_construct(q)
    assert canonical_form(d).residues == canonical_by_every_translate(d.residues, q)


def test_canonical_form_matches_both_oracles_on_random_images():
    rng = random.Random(2006)
    for q in (7, 8, 9, 11, 13):
        d = singer_construct(q)
        m = d.m
        units = [u for u in range(1, m) if gcd(u, m) == 1]
        for _ in range(3):
            u = rng.choice(units)
            t = rng.randrange(m)
            image = PerfectDifferenceSet.from_residues(
                [(u * a + t) % m for a in d.residues], q)
            form = canonical_form(image).residues
            assert form == canonical_by_every_translate(image.residues, q)
            assert form == canonical_by_full_orbit(image.residues, q)


# |H|, the order of the group the primes of q generate mod q^2+q+1: the
# number of units that share one candidate in canonical_form.
MULTIPLIER_GROUP_ORDERS = {16: 12, 25: 6, 27: 9, 31: 3, 32: 15}


@pytest.mark.parametrize("q", sorted(MULTIPLIER_GROUP_ORDERS))
def test_canonical_form_matches_every_translate_on_random_images_with_large_h(q):
    d = singer_construct(q)
    m = d.m
    group, leaders = _orbits.multiplier_cosets(q)
    assert len(group) == MULTIPLIER_GROUP_ORDERS[q]
    assert len(leaders) * len(group) == len([u for u in range(m) if gcd(u, m) == 1])
    rng = random.Random(1947 + q)
    units = [u for u in range(1, m) if gcd(u, m) == 1]
    for _ in range(3):
        u = rng.choice(units)
        t = rng.randrange(m)
        image = PerfectDifferenceSet.from_residues(
            [(u * a + t) % m for a in d.residues], q)
        assert canonical_form(image).residues == canonical_by_every_translate(
            image.residues, q)


def test_canonical_form_order_one():
    # Both units of Z_3 give the candidate (0, 1): the scan ends on a tie.
    for residues in ((0, 1), (0, 2), (1, 2)):
        d = PerfectDifferenceSet.from_residues(residues, 1)
        assert canonical_form(d) == CanonicalForm(q=1, m=3, residues=(0, 1))
        assert canonical_by_full_orbit(residues, 1) == (0, 1)


def test_canonical_form_reduces_an_unsorted_unreduced_input():
    d = PerfectDifferenceSet(q=2, m=7, residues=(10, 0, 8))
    assert canonical_form(d).residues == (0, 1, 3)


def test_canonical_form_matches_every_translate_on_enumerated_sets():
    for q in range(1, 8):
        for s in enumerate_all(q).sets:
            pds = PerfectDifferenceSet.from_residues(s, q)
            assert canonical_form(pds).residues == canonical_by_every_translate(s, q)


def test_canonical_form_rejects_invalid():
    with pytest.raises(DomainError, match="^not a perfect difference set: "):
        canonical_form(PerfectDifferenceSet.from_residues((0, 1, 2), 2))


def test_equivalence_closure_preserves_verification():
    rng = random.Random(99)
    for q in (2, 3, 4, 5, 7):
        d = singer_construct(q)
        m = d.m
        units = [u for u in range(1, m) if gcd(u, m) == 1]
        for _ in range(10):
            u = rng.choice(units)
            t = rng.randrange(m)
            image = [(u * a + t) % m for a in d.residues]
            assert verify(image, q).valid


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------


def test_search_tiny_orders():
    r1 = exhaustive_search(1)
    assert r1.status == "Found" and r1.pds.residues == (0, 1)
    r2 = exhaustive_search(2)
    assert r2.status == "Found"
    assert canonical_form(r2.pds).residues == (0, 1, 3)


def test_search_order6_none_exists():
    r = exhaustive_search(6)
    assert r.status == "NoneExists"
    assert r.nodes > 0


def test_search_budget_exceeded():
    # At the prime 23 the only multiplier is 23, with orbits of size 3, and
    # the search runs far past these budgets.
    for budget in (1, 10, 100, 10**4):
        r = exhaustive_search(23, budget=budget)
        assert r.status == "BudgetExceeded"
        assert r.pds is None
        assert r.nodes == budget  # the whole budget is spent, none is stranded


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_search_found_matches_singer_class(q):
    r = exhaustive_search(q)
    assert r.status == "Found"
    assert canonical_form(r.pds).residues == canonical_form(singer_construct(q)).residues


def test_enumerate_all_uniqueness_small_orders():
    for q in (2, 3, 4, 5):
        e = enumerate_all(q)
        assert e.complete
        assert e.sets  # at least the Singer class appears
        classes = {canonical_form(PerfectDifferenceSet.from_residues(s, q)).residues
                   for s in e.sets}
        assert classes == {canonical_form(singer_construct(q)).residues}


# Node counts and outputs of the reference backtracker's depth-first tree
# rooted at (0, 1).  An oracle that prunes or reorders the tree changes them.
SEARCH_NODES = {2: 2, 3: 8, 4: 145, 5: 118, 6: 39948, 7: 21550, 8: 4714, 9: 604266}
ENUMERATE_NODES = {2: 5, 3: 50, 4: 486, 5: 4465, 6: 39948, 7: 378590}
ENUMERATE_7 = (
    (0, 1, 3, 13, 32, 36, 43, 52), (0, 1, 4, 9, 20, 22, 34, 51),
    (0, 1, 4, 12, 14, 30, 37, 52), (0, 1, 5, 7, 17, 35, 38, 49),
    (0, 1, 5, 27, 34, 37, 43, 45), (0, 1, 6, 15, 22, 26, 45, 55),
    (0, 1, 6, 21, 28, 44, 46, 54), (0, 1, 7, 19, 23, 44, 47, 49),
    (0, 1, 7, 24, 36, 38, 49, 54), (0, 1, 9, 11, 14, 35, 39, 51),
    (0, 1, 9, 20, 23, 41, 51, 53), (0, 1, 13, 15, 21, 24, 31, 53),
)
# Nodes of the multiplier-orbit search: unions of orbits examined in its two
# walks (pass 1 from the orbit of 1, pass 2 over the non-unit orbits), until
# the first set (exhaustive_search) or to the end of both (enumerate_all).  A
# change to the orbits, their order, the passes or the pruning changes them.
ORBIT_SEARCH_NODES = {1: 2, 2: 1, 3: 2, 4: 3, 5: 7, 6: 1, 7: 10, 8: 1, 9: 6, 10: 1,
                      11: 943, 12: 1, 13: 870, 14: 1, 15: 1, 16: 4, 17: 56726,
                      18: 1, 19: 48626}
ORBIT_ENUMERATE_NODES = {1: 4, 2: 2, 3: 3, 4: 5, 5: 11, 6: 1, 7: 121, 8: 2, 9: 13}
# sha256 of repr(enumerate_all(q).sets), recorded when enumerate mode walked
# every union of orbits in one pass (tools/enumerate_digest.py).
ENUMERATE_SHA256 = {
    11: "5e9fff25dc489d8bcd19be8554800db7f2d8b50de53bd1b15050e84de45f3c96",
    13: "dad91edc8b9ac61eaae28eb60c9c9d173e5e98079eb57c53a5d4ee6dfe515873",
    16: "4a99fff073f4a18c7bcd257b0ba2e23d4d9b6d54670911e1f048eced1bb14d02",
    25: "b8db002f194faae1f10d78a8f181a679201123658f7831e3403ec09ccceec065",
    27: "9e0dcc27c6ad06d2cef6a2a9c9f977c8da29e40683969ae8bd594e1c8277c4ad",
    32: "19df53ae981577ade045aafe181cbea0715effae081c0e17a758f7e49ff3469a",
}


# sha256 of repr(exhaustive_search(q).pds.residues), recorded when find mode
# walked every union of orbits from the empty one.  Every other order up to
# 32 has no set, but 23, 29 and 31, left out as the search is slow there.
FOUND_SHA256 = {
    1: "a5cabe61309cbdb1d6a67e597b1659243a076817ce37626014228bde43e86d2d",
    2: "3493d2e9dbc8bdcd3423d6adae2c17258c4d9aa25c282d3bc571dd36ddd5757e",
    3: "3ca5f754ea6c48f5aa83e2c759b029a4e5f9ca9fb29e17995f2e7ff8bfda4830",
    4: "90709084ed301e1ae49598d9c3814b6c7335d4a763e7c56de3917d34d58763ab",
    5: "e74ee854bccf9dc32492dc30e0cd319e45eb4a2f2be90cbcee2aff2cc72c2278",
    7: "783bfdc565fe8cea33d350583bbb12610a6a17de8b7093fa057dca5ff96e661b",
    8: "8f6d1c8508669ef4f5a674426583f8b9c91260f9013661431336b685dfbad58a",
    9: "9bfa9e98412924c59125f776bcce4b531d7e7e33651de02974edc0c721a3400e",
    11: "c79fda8895dcc6965ec4ec2913cb96686fbe196b96db06133144c0a8fcda56cf",
    13: "f986da6d505786abbe09a2617d67d87d2f6ed93908e36b1aef8746721c68e5f3",
    16: "285696d633bcceb5faade4284e51fac5e42d7a435cf8ba711e40c2ca37b80118",
    17: "612a027e4c6a33a2e2fc16e20a92a997d7747d0a1965e9979a2d2142451a6f10",
    19: "57b7770cb11ecfc5b4459691aa531b108e5c37c9ea31fd5cef912fabd615ec1c",
    25: "2f1b85d20a3d355eafa6837dcec03b70d400ea41f8a81330c4ea7a01117b32ac",
    27: "1410978658cf9ca01dc908bab248d085a2c24819afcc736f451a1b49f5b96ad8",
    32: "c9dff1fe84e69ddf925e5de4a6aca9680747a58ce9dfa55676b3e85216f4d004",
}


@pytest.mark.parametrize("q", [q for q in range(1, 33) if q not in (23, 29, 31)])
def test_exhaustive_search_finds_the_same_set(q):
    result = exhaustive_search(q)
    if q not in FOUND_SHA256:
        assert (result.status, result.pds) == ("NoneExists", None)
        return
    assert result.status == "Found"
    digest = hashlib.sha256(repr(result.pds.residues).encode()).hexdigest()
    assert digest == FOUND_SHA256[q]


def _oracle(kind, q, budget=10**6):
    return getattr(search_oracle, kind)(modulus_for_order(q), q + 1, (0, 1), budget)


def test_search_tree_is_pinned():
    first = {q: _oracle("subtree_first", q) for q in SEARCH_NODES}
    assert {q: r[1] for q, r in first.items()} == SEARCH_NODES
    assert first[9][2] == (0, 1, 3, 9, 27, 49, 56, 61, 77, 81)
    every = {q: _oracle("subtree_all", q) for q in ENUMERATE_NODES}
    assert {q: r[1] for q, r in every.items()} == ENUMERATE_NODES
    assert all(r[0] == search_oracle.EXHAUSTED for r in every.values())
    assert tuple(every[7][2]) == ENUMERATE_7
    results = {q: exhaustive_search(q) for q in ORBIT_SEARCH_NODES}
    assert {q: r.nodes for q, r in results.items()} == ORBIT_SEARCH_NODES
    listings = {q: enumerate_all(q) for q in ORBIT_ENUMERATE_NODES}
    assert {q: e.nodes for q, e in listings.items()} == ORBIT_ENUMERATE_NODES
    assert all(e.complete for e in listings.values())
    assert listings[7].sets == ENUMERATE_7


def test_enumerate_all_respects_budget():
    e = enumerate_all(7, budget=5)
    assert e.complete is False
    assert e.nodes == 5


@pytest.mark.parametrize("q", sorted(ENUMERATE_SHA256))
def test_enumerate_all_keeps_every_set(q):
    listing = enumerate_all(q)
    assert listing.complete
    assert hashlib.sha256(repr(listing.sets).encode()).hexdigest() == ENUMERATE_SHA256[q]


@pytest.mark.parametrize("q", range(1, 14))
def test_enumerate_all_is_closed_under_unit_scaling(q):
    # Pass 1 lists only the unions that hold the orbit of 1 and scales them;
    # the listing must still hold every unit image of every set it lists.
    m = modulus_for_order(q)
    sets = enumerate_all(q).sets
    listed = set(sets)
    for s in sets:
        for u in range(1, m):
            if gcd(u, m) == 1:
                image = {u * x % m for x in s}
                a = next(a for a in image if (a + 1) % m in image)
                assert tuple(sorted((x - a) % m for x in image)) in listed, (s, u)


# At q = 7 pass 1 (the unions that hold the orbit of 1) spends nodes 1..59,
# and pass 2 (the unions of non-unit orbits, from the empty union) nodes
# 60..121.  Pass 1 lists every set of order 7; pass 2 adds none.
def test_enumerate_all_runs_out_in_pass_1():
    for budget in (1, 30, 59):  # at 59 the root of pass 2 is not paid for
        listing = enumerate_all(7, budget=budget)
        assert (listing.complete, listing.nodes) == (False, budget)


def test_enumerate_all_runs_out_in_pass_2():
    for budget in (60, 100):  # at 60 only the root of pass 2 is paid for
        listing = enumerate_all(7, budget=budget)
        assert (listing.complete, listing.nodes) == (False, budget)
        assert listing.sets == ENUMERATE_7


def test_search_stops_exactly_at_the_budget():
    # The last node of each walk is spent on the budget's last unit; one unit
    # less stops one node short.
    found = exhaustive_search(17, budget=56726)
    assert (found.status, found.nodes) == ("Found", 56726)
    short = exhaustive_search(17, budget=56725)
    assert (short.status, short.pds, short.nodes) == ("BudgetExceeded", None, 56725)
    listing = enumerate_all(7, budget=121)
    assert listing.complete and listing.nodes == 121
    assert listing.sets == ENUMERATE_7
    cut = enumerate_all(7, budget=120)
    assert cut.complete is False and cut.nodes == 120


@pytest.mark.parametrize("call", (
    lambda: exhaustive_search(10, budget=-5),
    lambda: enumerate_all(3, budget=-1),
    lambda: feasibility(10, search_budget=-5),
    lambda: feasibility(9, search_budget=-1),
), ids=("exhaustive_search", "enumerate_all", "feasibility", "feasibility-prime-power"))
def test_negative_budget_is_rejected(call):
    with pytest.raises(DomainError, match="budget must be >= 0"):
        call()


def test_zero_budget_is_legal():
    assert exhaustive_search(10, budget=0) == SearchResult("BudgetExceeded", None, 0)
    assert enumerate_all(3, budget=0) == EnumerationResult(False, (), 0)


# ---------------------------------------------------------------------------
# multiplier-orbit search (tests/test_search.py holds the oracle comparisons)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", range(2, 10))
def test_multiplier_search_agrees_with_exhaustive_search(q):
    # Find mode stops on the first set of the walk that enumerate mode goes
    # on with, so the set it finds is listed, translated onto (0, 1).
    found = exhaustive_search(q, budget=10**6)
    listing = enumerate_all(q, budget=10**6)
    assert listing.complete
    assert found.status == ("Found" if listing.sets else "NoneExists")
    if found.pds is not None:
        m = found.pds.m
        translates = {tuple(sorted((x - t) % m for x in found.pds.residues))
                      for t in range(m)}
        assert next(s for s in translates if s[:2] == (0, 1)) in listing.sets
        assert found.nodes <= listing.nodes


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 27, 32))
def test_multiplier_search_found_set_is_fixed_by_multipliers(q):
    r = exhaustive_search(q, budget=10**6)
    assert r.status == "Found"
    assert r.nodes <= 10**6
    assert is_pds_by_counter(r.pds.residues, q)
    m = modulus_for_order(q)
    residues = set(r.pds.residues)
    for p in factorize(q):
        assert {p * a % m for a in residues} == residues


@pytest.mark.parametrize("q", range(1, 33))
def test_coset_leaders_lead_a_partition_of_the_units(q):
    # the one coset walk behind the orbits of the search and the units that
    # canonical_form examines
    for d in _orbits.divisors(modulus_for_order(q)):
        group = _orbits.generated_subgroup(sorted(factorize(q)), d, d)
        leaders = _orbits.coset_leaders(group, d)
        assert leaders == sorted(leaders)
        cosets = [{u * h % d for h in group} for u in leaders]
        assert all(len(coset) == len(group) and u == min(coset)
                   for u, coset in zip(leaders, cosets))
        assert sorted(c for coset in cosets for c in coset) == [
            u for u in range(d) if gcd(u, d) == 1]


@pytest.mark.parametrize("q", range(1, 41))
def test_multiplier_orbits_match_a_brute_force_orbit_walk(q):
    # every orbit of Z_m under multiplication by the primes of q, walked
    # element by element, kept when it has at most q+1 residues and its
    # pairwise differences mod m are distinct
    m = modulus_for_order(q)
    primes = sorted(factorize(q))
    seen, expected = set(), []
    for x in range(m):
        if x in seen:
            continue
        orbit, frontier = {x}, {x}
        while frontier:
            frontier = {p * y % m for y in frontier for p in primes} - orbit
            orbit |= frontier
        seen |= orbit
        if len(orbit) > q + 1:
            continue
        differences = [(a - b) % m for a in orbit for b in orbit if a != b]
        if len(differences) == len(set(differences)):
            expected.append(tuple(sorted(orbit)))
    assert _orbits.multiplier_orbits(q) == sorted(expected)


def test_multiplier_search_respects_budget():
    assert exhaustive_search(10, budget=0) == SearchResult("BudgetExceeded", None, 0)
    for q in (1, 4, 6, 10, 11, 13):
        for budget in (1, 2, 5, 50):
            r = exhaustive_search(q, budget)
            assert r.nodes <= budget
            if r.status == "BudgetExceeded":
                assert r.pds is None


def test_search_rejects_bad_orders():
    with pytest.raises(DomainError, match="^order must be >= 1$"):
        exhaustive_search(0)
    with pytest.raises(DomainError, match="^order 5000 exceeds the search cap 3000$"):
        exhaustive_search(5000)


# ---------------------------------------------------------------------------
# order feasibility
# ---------------------------------------------------------------------------


def test_prime_power_decomposition():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(13) == (13, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None
    assert is_prime_power(16) and not is_prime_power(6)


def _prime_power_by_factoring(n):
    factors = factorize(n) if n > 1 else {}
    return next(iter(factors.items())) if len(factors) == 1 else None


def forbid_factoring(monkeypatch):
    def no_factoring(n):
        pytest.fail(f"factorize({n}) called")
    monkeypatch.setattr(gf_module, "factorize", no_factoring)
    monkeypatch.setattr(_orbits, "factorize", no_factoring)  # the search and canonical_form


def test_prime_power_needs_no_factoring(monkeypatch):
    expected = [_prime_power_by_factoring(n) for n in range(10**5)]
    forbid_factoring(monkeypatch)
    assert prime_power(10**18 + 3) == (10**18 + 3, 1)
    assert prime_power(3**37) == (3, 37)
    assert prime_power(41**6) == (41, 6)  # every prime factor past the divisions
    assert prime_power(41**3 * 43**3) is None  # a cube, but not of a prime
    assert prime_power((10**12 + 39) ** 2) == (10**12 + 39, 2)  # past the exact primality range
    assert [prime_power(n) for n in range(10**5)] == expected


def test_feasibility_of_a_huge_prime_order_answers_at_once(monkeypatch):
    forbid_factoring(monkeypatch)
    rep = feasibility(10**18 + 3)
    assert (rep.verdict, rep.reasons, rep.witness) == ("Exists", ("prime-power",), None)


def test_bruck_ryser_examples():
    assert bruck_ryser_excludes(6)  # 6 = 2 mod 4, not a sum of two squares
    assert not bruck_ryser_excludes(10)  # 10 = 1 + 9
    assert not bruck_ryser_excludes(4)  # congruence gate silent


def test_sum_of_two_squares_matches_factorization_rule():
    # n is a sum of two squares iff every prime p = 3 (mod 4) divides n to an
    # even power (classical theorem; independent route from the enumeration).
    from powersum.gf import factorize

    for n in range(1, 500):
        by_rule = all(e % 2 == 0 for p, e in factorize(n).items() if p % 4 == 3)
        assert is_sum_of_two_squares(n) == by_rule, n


def sum_of_two_squares_by_enumeration(n):
    a = 0
    while a * a * 2 <= n:
        b2 = n - a * a
        b = isqrt(b2)
        if b * b == b2:
            return True
        a += 1
    return False


def test_sum_of_two_squares_matches_the_enumeration():
    verdicts = [is_sum_of_two_squares(n) for n in range(-3, 20_001)]
    assert verdicts == [sum_of_two_squares_by_enumeration(n) for n in range(-3, 20_001)]


BIG = gf_module.TRIAL_DIVISION_BOUND
BIG_PRIME_1, BIG_PRIME_3 = 1000033, 1000003  # = 1 and = 3 (mod 4), above the bound


@pytest.mark.parametrize("n, expected", (
    (10**18 + 9, True),  # a prime = 1 (mod 4)
    (2 * 5 * BIG_PRIME_1, True),
    (5 * BIG_PRIME_3, False),  # the cofactor is a prime = 3 (mod 4)
    (2 * BIG_PRIME_3**2, True),  # the cofactor is a prime's square
    ((10**12 + 39) ** 2, True),  # a square past the exact primality range
    (3 * (10**9 + 9) * (10**9 + 21), False),  # an odd power of 3 settles it
    (2 * (10**9 + 7) * (10**9 + 9), False),  # the cofactor is = 3 (mod 4)
))
def test_sum_of_two_squares_of_a_large_n_reads_its_factorization(n, expected):
    assert all(map(gf_module.is_prime, (BIG_PRIME_1, BIG_PRIME_3, 10**9 + 9, 10**9 + 21)))
    assert BIG_PRIME_1 % 4 == 1 and BIG_PRIME_3 % 4 == 3 and BIG_PRIME_3 > BIG
    start = time.perf_counter()
    assert is_sum_of_two_squares(n) is expected
    assert time.perf_counter() - start < 1.0


def test_sum_of_two_squares_past_the_bound_is_a_domain_error_not_a_guess():
    n = (10**9 + 9) * (10**9 + 21)  # = 1 (mod 4): two primes past the bound
    with pytest.raises(DomainError, match=f"trial-division bound {BIG}"):
        is_sum_of_two_squares(n)
    with pytest.raises(DomainError, match=f"trial-division bound {BIG}"):
        feasibility(n)


def test_a_cofactor_past_the_exact_primality_range_names_the_order(monkeypatch):
    # 10^30 + 57 has no factor up to the bound and is past the exact
    # Miller-Rabin range, where gf.is_prime could only repeat the division
    # and raise about the cofactor instead of the order.
    cofactor = 10**30 + 57
    assert cofactor >= gf_module._MILLER_RABIN_EXACT_BELOW
    asked = []

    def recorded(n, _inner=gf_module.is_prime):
        asked.append(n)
        return _inner(n)

    monkeypatch.setattr(gf_module, "is_prime", recorded)
    with pytest.raises(DomainError, match="^cannot tell whether 2000000000000000000000000000114 is "
                                          f"a sum of two squares: .* trial-division bound {BIG}"):
        feasibility(2 * cofactor)
    assert cofactor not in asked


def test_feasibility_of_a_huge_prime_square_is_a_prime_power():
    start = time.perf_counter()
    rep = feasibility((10**12 + 39) ** 2)
    assert time.perf_counter() - start < 2.0
    assert (rep.verdict, rep.reasons, rep.witness) == ("Exists", ("prime-power",), None)


@pytest.mark.parametrize("order", ((10**12 + 39) * (10**12 + 61), 10**30 + 57))
def test_feasibility_past_the_exact_primality_range_is_a_domain_error(order):
    start = time.perf_counter()
    with pytest.raises(DomainError, match=f"trial-division bound {BIG}"):
        feasibility(order)
    assert time.perf_counter() - start < 2.0


def test_feasibility_of_a_huge_order_1_or_2_mod_4_answers_at_once():
    # 10^18 + 2 = 2 * 3 * 17 * 131 * 1427 * 52445056723
    start = time.perf_counter()
    rep = feasibility(10**18 + 2)
    assert time.perf_counter() - start < 0.5
    assert (rep.verdict, rep.reasons) == ("Excluded", ("bruck-ryser", "wilbrink"))
    assert factorize(10**18 + 2) == {2: 1, 3: 1, 17: 1, 131: 1, 1427: 1, 52445056723: 1}


def test_wilbrink_examples():
    assert wilbrink_excludes(6)
    assert not wilbrink_excludes(3)  # below the n >= 6 gate
    assert wilbrink_excludes(12)  # 12 = 3 mod 9


def test_feasibility_prime_power():
    rep = feasibility(5)
    assert rep.verdict == "Exists"
    assert rep.is_prime_power
    assert rep.reasons == ("prime-power",)
    assert rep.witness is not None and verify(rep.witness.residues, 5).valid
    assert rep.exhaustive_result == "NotAttempted"


def test_feasibility_order6_excluded():
    rep = feasibility(6)
    assert rep.verdict == "Excluded"
    assert rep.bruck_ryser_excludes and rep.wilbrink_excludes
    assert rep.exhaustive_result == "NoneExists"
    assert rep.reasons == ("bruck-ryser", "wilbrink")


def test_feasibility_order10_excluded_by_multiplier_search():
    rep = feasibility(10)
    assert rep.verdict == "Excluded"
    assert not rep.is_prime_power
    assert not rep.bruck_ryser_excludes and not rep.wilbrink_excludes
    assert rep.exhaustive_result == "NoneExists"
    assert rep.reasons == ("multiplier-search",)
    assert rep.witness is None


def test_feasibility_order10_open_without_budget():
    rep = feasibility(10, search_budget=0)
    assert rep.verdict == "OpenByTheseTests"
    assert rep.exhaustive_result == "NotAttempted"
    assert rep.reasons == ()


def test_feasibility_order1_exists_via_search():
    rep = feasibility(1)
    assert rep.verdict == "Exists"
    assert rep.exhaustive_result == "Found"
    assert rep.witness.residues == (0, 1)


def test_feasibility_never_excludes_without_a_firing_test():
    for order in range(1, 31):
        rep = feasibility(order, search_budget=2000)
        if rep.verdict == "Excluded":
            assert (rep.bruck_ryser_excludes or rep.wilbrink_excludes
                    or rep.exhaustive_result == "NoneExists")
            if not (rep.bruck_ryser_excludes or rep.wilbrink_excludes):
                assert "multiplier-search" in rep.reasons
        if rep.verdict == "Exists":
            assert rep.is_prime_power or rep.exhaustive_result == "Found"


def test_feasibility_decides_every_order_up_to_100():
    for order in range(2, 101):
        rep = feasibility(order)
        if is_prime_power(order):
            assert rep.verdict == "Exists", order
        else:
            assert rep.verdict == "Excluded", order
            assert rep.exhaustive_result == "NoneExists", order


# (verdict, reasons, exhaustive_result, witness) for orders 1 .. 40 at search
# budget 0 and at budgets 5 and 10^8, which agree at every one of these
# orders.  Budget 0 exhausts the search at once: it reads NotAttempted.
FEASIBILITY_TABLE = """
 1  OpenByTheseTests - NotAttempted none             Exists multiplier-search Found set
 2  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
 3  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
 4  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
 5  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
 6  Excluded bruck-ryser,wilbrink NotAttempted none  Excluded bruck-ryser,wilbrink NoneExists none
 7  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
 8  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
 9  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
10  OpenByTheseTests - NotAttempted none             Excluded multiplier-search NoneExists none
11  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
12  Excluded wilbrink NotAttempted none              Excluded wilbrink NoneExists none
13  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
14  Excluded bruck-ryser NotAttempted none           Excluded bruck-ryser NoneExists none
15  Excluded wilbrink NotAttempted none              Excluded wilbrink NoneExists none
16  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
17  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
18  OpenByTheseTests - NotAttempted none             Excluded multiplier-search NoneExists none
19  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
20  OpenByTheseTests - NotAttempted none             Excluded multiplier-search NoneExists none
21  Excluded bruck-ryser,wilbrink NotAttempted none  Excluded bruck-ryser,wilbrink NoneExists none
22  Excluded bruck-ryser NotAttempted none           Excluded bruck-ryser NoneExists none
23  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
24  Excluded wilbrink NotAttempted none              Excluded wilbrink NoneExists none
25  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
26  OpenByTheseTests - NotAttempted none             Excluded multiplier-search NoneExists none
27  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
28  OpenByTheseTests - NotAttempted none             Excluded multiplier-search NoneExists none
29  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
30  Excluded bruck-ryser,wilbrink NotAttempted none  Excluded bruck-ryser,wilbrink NoneExists none
31  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
32  Exists prime-power NotAttempted set              Exists prime-power NotAttempted set
33  Excluded bruck-ryser,wilbrink NotAttempted none  Excluded bruck-ryser,wilbrink NoneExists none
34  OpenByTheseTests - NotAttempted none             Excluded multiplier-search NoneExists none
35  OpenByTheseTests - NotAttempted none             Excluded multiplier-search NoneExists none
36  OpenByTheseTests - NotAttempted none             Excluded multiplier-search NoneExists none
37  Exists prime-power NotAttempted none             Exists prime-power NotAttempted none
38  Excluded bruck-ryser NotAttempted none           Excluded bruck-ryser NoneExists none
39  Excluded wilbrink NotAttempted none              Excluded wilbrink NoneExists none
40  OpenByTheseTests - NotAttempted none             Excluded multiplier-search NoneExists none
"""


def _table_row(verdict, reasons, search, witness):
    return verdict, () if reasons == "-" else tuple(reasons.split(",")), search, witness == "set"


def test_feasibility_table_for_orders_up_to_40():
    for line in FEASIBILITY_TABLE.strip().splitlines():
        order, *fields = line.split()
        expected = {0: _table_row(*fields[:4]), 5: _table_row(*fields[4:])}
        expected[DEFAULT_SEARCH_BUDGET] = expected[5]
        for budget, row in expected.items():
            rep = feasibility(int(order), budget)
            got = (rep.verdict, rep.reasons, rep.exhaustive_result, rep.witness is not None)
            assert got == row, (order, budget)


def test_feasibility_report_record_shape():
    rec = feasibility(6).to_record()
    assert set(rec) == {"order", "is_prime_power", "bruck_ryser_excludes",
                        "wilbrink_excludes", "exhaustive_result", "verdict",
                        "reasons", "witness"}


def test_pds_json_record():
    d = singer_construct(2)
    assert d.to_record() == {"q": 2, "m": 7, "residues": [0, 1, 3]}
