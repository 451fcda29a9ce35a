"""Finite-field arithmetic tests.

Derived expectations are recomputed here by independent brute-force oracles
(root scans, power enumeration) rather than trusting the library's own code
paths.
"""

import random
import time

import pytest

import mulmod_oracle
from powersum import gf as gf_module
from powersum.gf import (
    DomainError,
    GfElement,
    _mulmod,
    _powmod,
    element_order,
    factorize,
    is_irreducible,
    is_prime,
    make_field,
    primitive_element,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def cubic_is_irreducible_by_roots(poly, p):
    """A monic cubic (or quadratic) over GF(p) is reducible iff it has a root."""
    assert len(poly) in (3, 4)
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    return True


def monic_polys(p, d):
    """Every monic polynomial of degree d over GF(p), constant term first."""
    for code in range(p**d):
        yield [code // p**i % p for i in range(d)] + [1]


def remainder_by_monic(a, b, p):
    """a mod the monic b over GF(p), by long division."""
    a = list(a)
    for top in range(len(a) - 1, len(b) - 2, -1):
        c = a[top]
        for i, bi in enumerate(b):
            a[top - len(b) + 1 + i] = (a[top - len(b) + 1 + i] - c * bi) % p
    return a[:len(b) - 1]


def irreducible_by_trial_division(poly, p):
    """No monic factor of degree 1 .. d/2 divides poly."""
    d = len(poly) - 1
    divides = (not any(remainder_by_monic(poly, f, p))
               for k in range(1, d // 2 + 1) for f in monic_polys(p, k))
    return not any(divides)


def mulmod_by_schoolbook(a, b, mod, p):
    """a * b mod the monic mod over GF(p): every pairwise product, then long
    division."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return [c % p for c in remainder_by_monic(prod, mod, p)]


def multiplicative_order_by_enumeration(a):
    one = a.field.one
    acc = a
    for t in range(1, a.field.order):
        if acc == one:
            return t
        acc = acc * a
    raise AssertionError("element of a field must have finite order")


# ---------------------------------------------------------------------------
# make_field
# ---------------------------------------------------------------------------


def test_make_field_prime_field():
    f = make_field(2, 1)
    assert f.order == 2
    assert f.p == 2 and f.k == 1


def test_make_field_gf8_modulus_is_lex_smallest_irreducible():
    # Oracle: scan all monic cubics over GF(2) in integer-encoding order and
    # keep the first irreducible one (irreducible == no root for cubics).
    expected = None
    for c in range(8):
        poly = [c & 1, (c >> 1) & 1, (c >> 2) & 1, 1]
        if cubic_is_irreducible_by_roots(poly, 2):
            expected = tuple(poly)
            break
    assert expected == (1, 1, 0, 1)  # x^3 + x + 1
    f = make_field(2, 3)
    assert f.modulus_poly == expected
    assert f.order == 8


def test_make_field_rejects_non_prime():
    with pytest.raises(DomainError, match="^4 is not prime$"):
        make_field(4, 1)
    with pytest.raises(DomainError, match="^1 is not prime$"):
        make_field(1, 2)


def test_make_field_rejects_bad_degree():
    with pytest.raises(DomainError, match=r"^degree 0 is not an int in \[1, 15\]$"):
        make_field(2, 0)
    with pytest.raises(DomainError, match=r"^degree 16 is not an int in \[1, 15\]$"):
        make_field(2, 16)


@pytest.mark.parametrize("k", (3.0, 2.5, "3", None, True))
def test_make_field_rejects_a_non_int_degree_with_a_cold_or_warm_cache(k):
    with pytest.raises(DomainError, match=r"^degree .+ is not an int in \[1, 15\]$"):
        make_field(2, k)
    make_field(2, 3)
    make_field(2, 1)
    with pytest.raises(DomainError, match=r"^degree .+ is not an int in \[1, 15\]$"):
        make_field(2, k)


# Recorded with schoolbook tuple arithmetic and Rabin's test, so that the packed
# arithmetic is checked against an independent implementation: for every prime
# p <= 31, the k-th entry is GF(p^k)'s modulus as its integer encoding
# sum(c_i * p^i), leading term included, and its primitive element's to_int(),
# for each k with p^k <= 40000.
FIELD_PINS = {
    2: ((2, 1), (7, 2), (11, 2), (19, 2), (37, 2), (67, 2), (131, 2), (283, 3),
        (515, 7), (1033, 2), (2053, 2), (4105, 3), (8219, 2), (16417, 7), (32771, 2)),
    3: ((3, 2), (10, 4), (34, 3), (86, 3), (250, 3), (734, 3), (2198, 5), (6572, 38),
        (19747, 3)),
    5: ((5, 2), (27, 6), (131, 9), (627, 6), (3146, 10), (15632, 5)),
    7: ((7, 3), (50, 9), (345, 22), (2409, 12), (16817, 9)),
    11: ((11, 2), (122, 15), (1346, 11), (14654, 11)),
    13: ((13, 2), (171, 15), (2199, 15), (28563, 17)),
    17: ((17, 3), (292, 19), (4933, 17)),
    19: ((19, 2), (362, 22), (6861, 29)),
    23: ((23, 5), (530, 25), (12193, 23)),
    29: ((29, 2), (843, 30), (24422, 30)),
    31: ((31, 3), (962, 35), (29794, 34)),
}


def test_moduli_and_primitive_elements_are_pinned():
    assert sorted(FIELD_PINS) == [p for p in range(32) if is_prime(p)]
    for p, pins in FIELD_PINS.items():
        assert p ** len(pins) <= 40000 < p ** (len(pins) + 1)
        for k, (encoding, g) in enumerate(pins, start=1):
            f = make_field(p, k)
            assert sum(c * p**i for i, c in enumerate(f.modulus_poly)) == encoding, (p, k)
            assert primitive_element(f).to_int() == g, (p, k)


def first_irreducible_by_scan(p, k):
    """The first monic degree-k candidate, in the order of the integer
    encoding, that the public is_irreducible accepts."""
    for c in range(p**k):
        candidate = [c // p**i % p for i in range(k)] + [1]
        if is_irreducible(candidate, p):
            return tuple(candidate)


@pytest.mark.parametrize("p", [p for p in range(2, 72) if is_prime(p)])
def test_the_sieved_modulus_search_equals_a_scan_of_is_irreducible(p):
    # Every prime p <= 71, on both sides of _ROOT_SCAN_MAX_P = 64, where the
    # search stops sieving roots per block.
    assert gf_module._ROOT_SCAN_MAX_P == 64
    degrees = [k for k in range(2, 5) if p**k <= 2 * 10**5]
    assert degrees
    for k in degrees:
        assert gf_module._smallest_irreducible(p, k) == first_irreducible_by_scan(p, k), k


def test_make_field_deterministic():
    a = make_field(3, 4)
    b = make_field(3, 4)
    assert a == b
    assert a.modulus_poly == b.modulus_poly


# ---------------------------------------------------------------------------
# element arithmetic
# ---------------------------------------------------------------------------


def test_prime_field_addition():
    f = make_field(7)
    assert (f.from_int(3) + f.from_int(5)) == f.from_int(1)


def test_gf8_multiplication_reduces():
    # Oracle: x * x^2 = x^3 = x + 1 (mod x^3 + x + 1), reduced by hand.
    f = make_field(2, 3)
    x = f.element([0, 1])
    x2 = f.element([0, 0, 1])
    assert (x * x2).coeffs == (1, 1, 0)


def test_inverse_round_trip():
    rng = random.Random(7)
    for p, k in [(2, 1), (7, 1), (2, 3), (3, 2), (5, 3), (13, 1)]:
        f = make_field(p, k)
        for _ in range(20):
            a = f.from_int(rng.randrange(1, f.order))
            assert a * a.inv() == f.one


def test_field_mismatch_rejected():
    a = make_field(3).from_int(1)
    b = make_field(5).from_int(1)
    with pytest.raises(DomainError, match="^elements of different fields: "):
        _ = a + b
    with pytest.raises(DomainError, match="^elements of different fields: "):
        _ = a * b


def test_inverse_of_zero_rejected():
    f = make_field(5)
    with pytest.raises(ZeroDivisionError):
        f.zero.inv()


def test_field_axioms_on_samples():
    rng = random.Random(20240915)
    for p, k in [(2, 3), (3, 2), (5, 2), (7, 1), (2, 5), (2, 1)]:
        f = make_field(p, k)
        for _ in range(25):
            a = f.from_int(rng.randrange(f.order))
            b = f.from_int(rng.randrange(f.order))
            c = f.from_int(rng.randrange(f.order))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a - b == a + (-b)


def test_frobenius_fixes_every_element():
    for p, k in [(2, 3), (3, 2), (5, 2)]:
        f = make_field(p, k)
        for a in f.elements():
            assert a ** f.order == a


@pytest.mark.parametrize("p, k", ((7, 1), (2, 3), (3, 2)))
def test_powers_match_repeated_products(p, k):
    f = make_field(p, k)
    for a in f.elements():
        product = f.one
        for e in range(f.order + 1):
            assert a**e == product
            product = product * a
        if not a.is_zero():
            assert a**-3 == a.inv() ** 3
            assert a**-1 * a == f.one
    assert f.zero**0 == f.one
    with pytest.raises(ZeroDivisionError):
        _ = f.zero**-1


# ---------------------------------------------------------------------------
# is_irreducible
# ---------------------------------------------------------------------------


def test_irreducible_examples():
    assert not is_irreducible([1, 0, 1], 2)  # x^2 + 1 has root 1 over GF(2)
    assert is_irreducible([1, 1, 0, 1], 2)  # x^3 + x + 1
    assert is_irreducible([1, 0, 1], 3)  # x^2 + 1 has no root mod 3
    # cross-check the quadratic/cubic cases against the root-scan oracle
    for p in (2, 3, 5):
        for c0 in range(p):
            for c1 in range(p):
                poly = [c0, c1, 1]
                assert is_irreducible(poly, p) == cubic_is_irreducible_by_roots(poly, p)


# Degrees 2 and 3 are decided by the root scan alone; from degree 4 on, a
# product of the x^(p^j) - x and one gcd decide, over several j from degree 6.
@pytest.mark.parametrize("p, degrees", ((2, range(2, 10)), (3, range(2, 7)), (5, range(2, 5)),
                                        (7, range(2, 4))))
def test_irreducible_matches_trial_division(p, degrees):
    for d in degrees:
        verdicts = [is_irreducible(poly, p) == irreducible_by_trial_division(poly, p)
                    for poly in monic_polys(p, d)]
        assert all(verdicts), d


def test_irreducible_past_the_root_scan_limit_matches_the_oracles():
    # The least prime past the limit takes Ben-Or's j = 1 step in the product.
    p = next(p for p in range(gf_module._ROOT_SCAN_MAX_P + 1, 200) if is_prime(p))
    rng = random.Random(19)
    for _ in range(200):
        cubic = [rng.randrange(p) for _ in range(3)] + [1]
        assert is_irreducible(cubic, p) == cubic_is_irreducible_by_roots(cubic, p), cubic
    quartics = [[rng.randrange(p) for _ in range(4)] + [1] for _ in range(16)]
    verdicts = [is_irreducible(poly, p) for poly in quartics]
    assert verdicts == [irreducible_by_trial_division(poly, p) for poly in quartics]
    assert set(verdicts) == {True, False}


def test_irreducible_at_a_large_prime_costs_log_p_multiplications(monkeypatch):
    # Past the root-scan limit a root is found through x^p, in O(log p)
    # multiplications: a scan of the 2^31 - 1 points would take minutes.
    p = 2**31 - 1
    assert p > gf_module._ROOT_SCAN_MAX_P
    calls = 0

    def counted(a, b, ring, _inner=gf_module._mulmod):
        nonlocal calls
        calls += 1
        return _inner(a, b, ring)

    monkeypatch.setattr(gf_module, "_mulmod", counted)
    start = time.perf_counter()
    for a in (2, 3, 4, 5, 7, p - 1):
        # x^2 - a splits iff a is a square mod p (Euler's criterion).
        assert is_irreducible([-a % p, 0, 1], p) == (pow(a, (p - 1) // 2, p) != 1), a
    assert time.perf_counter() - start < 0.5
    assert calls <= 6 * 2 * p.bit_length()


def test_irreducible_at_a_61_bit_prime_returns_at_once():
    # 2^61 - 1 = 3 mod 4, so -1 is not a square and x^2 + 1 is irreducible.
    start = time.perf_counter()
    assert is_irreducible([1, 0, 1], 2**61 - 1)
    assert make_field(2**61 - 1).order == 2**61 - 1
    assert time.perf_counter() - start < 0.5


def test_the_modulus_search_checks_the_characteristic_once(monkeypatch):
    # GF(3^9) scans 43 candidates; each is monic over GF(3) by construction.
    calls = 0

    def counted(n, _inner=gf_module.is_prime):
        nonlocal calls
        calls += 1
        return _inner(n)

    monkeypatch.setattr(gf_module, "is_prime", counted)
    assert make_field(3, 9).modulus_poly == (1, 0, 1, 2, 0, 0, 0, 0, 0, 1)
    assert calls == 1


def test_irreducible_rejects_non_monic():
    with pytest.raises(DomainError, match="is not a monic nonconstant polynomial over GF"):
        is_irreducible([1, 1, 2], 3)
    with pytest.raises(DomainError, match="is not a monic nonconstant polynomial over GF"):
        is_irreducible([1], 2)


@pytest.mark.parametrize("p", (4, 0, 1, -3, 2.0))
def test_irreducible_rejects_a_non_prime_characteristic(p):
    with pytest.raises(DomainError, match=f"^{p} is not prime$"):
        is_irreducible([1, 0, 1], p)


def test_irreducible_known_quartic():
    # x^4 + x + 1 is irreducible over GF(2); x^4 + x^2 + 1 = (x^2 + x + 1)^2 is not.
    assert is_irreducible([1, 1, 0, 0, 1], 2)
    assert not is_irreducible([1, 0, 1, 0, 1], 2)


# ---------------------------------------------------------------------------
# The packed multiply-mod and power against schoolbook arithmetic
# ---------------------------------------------------------------------------

# GF(q^3) = GF(p^(3e)) for each prime power q = p^e <= 32.
SINGER_PK = [(2, 3), (3, 3), (2, 6), (5, 3), (7, 3), (2, 9), (3, 6), (11, 3), (13, 3),
             (2, 12), (17, 3), (19, 3), (23, 3), (5, 6), (3, 9), (29, 3), (31, 3), (2, 15)]


def check_against_schoolbook(f, a, b):
    ring = f._quotient
    x, y = f.element(a), f.element(b)
    assert (x.coeffs, y.coeffs) == (tuple(a), tuple(b))
    expected = mulmod_by_schoolbook(a, b, f.modulus_poly, f.p)
    assert list(GfElement(f, _mulmod(x.packed, y.packed, ring)).coeffs) == expected
    power = [1] + [0] * (f.k - 1)
    for e in range(6):
        assert list(GfElement(f, _powmod(x.packed, e, ring)).coeffs) == power
        power = mulmod_by_schoolbook(power, a, f.modulus_poly, f.p)


@pytest.mark.parametrize("p, k", SINGER_PK + [(65521, 2), (65521, 3)])
def test_packed_arithmetic_matches_schoolbook(p, k):
    f = make_field(p, k)
    rng = random.Random(p * 100 + k)
    full = [p - 1] * k  # fills every slot of a product the most
    check_against_schoolbook(f, full, full)
    for _ in range(20):
        a = [rng.randrange(p) for _ in range(k)]
        b = [rng.randrange(p) for _ in range(k)]
        check_against_schoolbook(f, a, b)
        check_against_schoolbook(f, full, a)
    x = f.element(full).packed
    assert _powmod(x, f.order - 1, f._quotient) == 1  # Fermat
    assert _powmod(x, f.order, f._quotient) == x


# ---------------------------------------------------------------------------
# The Barrett multiply-mod against the slot loop it replaced
# ---------------------------------------------------------------------------


def check_against_slot_loop(mod, p, triples):
    """For each (a, b, c) of reduced coefficient vectors, ``_mulmod`` gives,
    bit for bit, the slot loop's coefficients repacked at its own width, on
    every operand shape the package passes: a * b, the sums a + b and
    a + b + c alone, a * (p - 1) and a * (b + c)."""
    k = len(mod) - 1
    ring = gf_module._ring(mod, p)
    width = ring[-1]
    old = mulmod_oracle._ring(mod, p, mulmod_oracle._width(p, k))
    old_mulmod = mulmod_oracle._mulmod
    for a, b, c in triples:
        x, y, z = (gf_module._pack(v, width) for v in (a, b, c))
        ox, oy, oz = (mulmod_oracle._pack(v, old[2]) for v in (a, b, c))
        y_plus_z = old_mulmod(oy + oz, 1, old)
        got = (_mulmod(x, y, ring), _mulmod(x + y, 1, ring), _mulmod(x + y + z, 1, ring),
               _mulmod(x, p - 1, ring), _mulmod(x, y + z, ring))
        want = (old_mulmod(ox, oy, old), old_mulmod(ox + oy, 1, old),
                old_mulmod(ox + y_plus_z, 1, old), old_mulmod(ox, p - 1, old),
                old_mulmod(ox, y_plus_z, old))
        assert got == tuple(gf_module._pack(mulmod_oracle.coefficients(w, old), width)
                            for w in want), (mod, p, a, b, c)


@pytest.mark.parametrize("p, k", ((2, 3), (2, 4), (3, 2), (5, 2)))
def test_mulmod_matches_the_slot_loop_on_every_pair(p, k):
    f = make_field(p, k)
    elements = [f.from_int(v).coeffs for v in range(f.order)]
    check_against_slot_loop(f.modulus_poly, p, ((a, b, elements[-1 - i])
                                                for i, a in enumerate(elements)
                                                for b in elements))


# The Singer fields, GF(2^61 - 1), and GF((2^61 - 1)^2) modulo x^2 + 1,
# irreducible since 2^61 - 1 = 3 mod 4.
RANDOM_PAIR_FIELDS = ([(p, make_field(p, k).modulus_poly) for p, k in SINGER_PK]
                      + [(2**61 - 1, (0, 1)), (2**61 - 1, (1, 0, 1))])


@pytest.mark.parametrize("p, mod", RANDOM_PAIR_FIELDS,
                         ids=[f"GF({p}^{len(mod) - 1})" for p, mod in RANDOM_PAIR_FIELDS])
def test_mulmod_matches_the_slot_loop_on_random_pairs(p, mod):
    k = len(mod) - 1
    rng = random.Random(p * 100 + k)
    full = (p - 1,) * k  # fills every slot of a product the most

    def draw():
        return tuple(rng.randrange(p) for _ in range(k))
    triples = [(full, full, full)] + [(draw(), draw(), draw()) for _ in range(1999)]
    check_against_slot_loop(mod, p, triples)


def modulus_with_the_largest_mu(p, k):
    """The monic f of degree k, f_0 = f_1 = 1, whose Barrett constant
    floor(x^(2k-2) / f) has every coefficient below the leading 1 at p - 1.
    Reducible or not, it is a modulus ``_mulmod`` must handle (Ben-Or's test
    builds a ring for every candidate), and with all-(p - 1) operands it
    takes the kernel's slots to their bound V."""
    f = [1] * (k + 1)
    h = [1]  # the coefficients of mu, top first
    for i in range(1, k - 1):
        f[k - i] = (1 - sum(f[k - j] * h[i - j] for j in range(1, i))) % p
        h.append(p - 1)
    return tuple(f)


@pytest.mark.parametrize("p, k", SINGER_PK, ids=[f"GF({p}^{k})" for p, k in SINGER_PK])
def test_mulmod_matches_the_slot_loop_at_its_bound(p, k):
    mod = modulus_with_the_largest_mu(p, k)
    ring = gf_module._ring(mod, p)
    assert ring[2] == gf_module._pack([p - 1] * (k - 2) + [1], ring[-1])
    rng = random.Random(p * 100 + k)
    full = (p - 1,) * k

    def draw():
        return tuple(rng.choice((0, p - 1, rng.randrange(p))) for _ in range(k))
    check_against_slot_loop(mod, p, [(full, full, full)] + [(draw(), draw(), draw())
                                                             for _ in range(199)])


# ---------------------------------------------------------------------------
# primitive_element / element_order
# ---------------------------------------------------------------------------


def test_primitive_element_gf7():
    f = make_field(7)
    g = primitive_element(f)
    assert g.to_int() == 3
    # oracle: 3 really generates all six nonzero residues, 2 does not
    assert multiplicative_order_by_enumeration(f.from_int(3)) == 6
    assert multiplicative_order_by_enumeration(f.from_int(2)) == 3


def test_primitive_element_gf2():
    f = make_field(2)
    assert primitive_element(f) == f.one


def test_primitive_element_gf8_is_x():
    f = make_field(2, 3)
    g = primitive_element(f)
    assert g.coeffs == (0, 1, 0)
    assert multiplicative_order_by_enumeration(g) == 7


def test_primitive_element_has_full_order():
    for p, k in [(2, 3), (3, 2), (5, 2), (13, 1), (2, 6)]:
        f = make_field(p, k)
        g = primitive_element(f)
        assert element_order(g) == f.order - 1


@pytest.mark.parametrize("p, k", ((2, 8), (3, 4), (3, 5), (3, 8), (5, 1), (5, 3), (7, 3),
                                  (11, 2), (13, 2), (19, 2)))
def test_primitive_element_is_the_least_generator_by_enumeration(p, k):
    # Candidates below p^2 are c1*x + c0, whose norm comes from the modulus;
    # the others (in GF(5) and past 9 in GF(3^8)) take a power: both must
    # agree with counting the order.
    f = make_field(p, k)
    g = primitive_element(f).to_int()
    assert multiplicative_order_by_enumeration(f.from_int(g)) == f.order - 1
    assert all(multiplicative_order_by_enumeration(f.from_int(v)) < f.order - 1
               for v in range(1, g))


def test_element_order_examples():
    f7 = make_field(7)
    assert element_order(f7.one) == 1
    assert element_order(f7.from_int(6)) == 2  # (-1)^2 = 1
    f13 = make_field(13)
    assert element_order(f13.from_int(2)) == 12
    assert multiplicative_order_by_enumeration(f13.from_int(2)) == 12


def test_element_order_matches_enumeration():
    rng = random.Random(99)
    for p, k in [(2, 4), (3, 3), (7, 2)]:
        f = make_field(p, k)
        for _ in range(15):
            a = f.from_int(rng.randrange(1, f.order))
            assert element_order(a) == multiplicative_order_by_enumeration(a)


def test_element_order_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        element_order(make_field(5).zero)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-2, 32):
        assert is_prime(n) == (n in primes)


def test_is_prime_agrees_with_factorize():
    assert all(is_prime(n) == (factorize(n) == {n: 1}) for n in range(1, 10**5))
    assert not any(is_prime(n) for n in (561, 1105, 1729))  # Carmichael numbers
    assert is_prime(2**61 - 1) and not is_prime(65537 * (2**61 - 1))
    # a strong pseudoprime to every prime base up to 31; only 37 exposes it
    assert not is_prime(149491 * 747451 * 34233211)


def test_is_prime_miller_rabin_bound_is_the_least_strong_pseudoprime(monkeypatch):
    # Below the bound the twelve bases decide; the bound itself is composite
    # and passes all twelve, so the Miller-Rabin part must stop short of it.
    bound = gf_module._MILLER_RABIN_EXACT_BELOW
    assert bound == 399165290221 * 798330580441
    monkeypatch.setattr(gf_module, "_MILLER_RABIN_EXACT_BELOW", bound + 1)
    assert is_prime(bound)


def test_is_prime_at_or_above_the_bound_divides_up_to_the_trial_division_bound():
    assert not is_prime(41**15)  # past the bound, and no base divides it
    assert 41**15 >= gf_module._MILLER_RABIN_EXACT_BELOW
    assert gf_module.TRIAL_DIVISION_BOUND == 10**6
    assert not is_prime(999983 * (10**18 + 9))  # 999983 is the largest prime below 10^6
    with pytest.raises(DomainError):
        is_prime(1000003 * (10**18 + 9))  # 1000003 is the least prime above it


@pytest.mark.parametrize("n", ((10**12 + 39) ** 2, (10**12 + 39) * (10**12 + 61), 10**30 + 57))
def test_is_prime_past_the_bound_with_no_small_factor_is_a_domain_error(n):
    # No factor up to the bound: settling these would take trial division
    # up to sqrt(n) >= 10^12, or a factoring method past it.
    assert n >= gf_module._MILLER_RABIN_EXACT_BELOW
    start = time.perf_counter()
    with pytest.raises(DomainError, match=f"trial-division bound {gf_module.TRIAL_DIVISION_BOUND}"):
        is_prime(n)
    assert time.perf_counter() - start < 2.0


def test_make_field_of_a_huge_characteristic_is_a_domain_error_at_once():
    start = time.perf_counter()
    with pytest.raises(DomainError, match="trial-division bound"):
        make_field(10**30 + 57)
    assert time.perf_counter() - start < 2.0


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(4095) == {3: 2, 5: 1, 7: 1, 13: 1}
    assert factorize(2**15 - 1) == {7: 1, 31: 1, 151: 1}
