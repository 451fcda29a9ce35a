"""Exact arithmetic in small finite fields GF(p^k).

Elements are polynomials over GF(p) of degree below k, reduced modulo the
smallest monic irreducible polynomial of the requested degree, where
"smallest" compares the integer encoding sum(c_i * p^i).  That choice makes
every downstream construction reproducible: two runs asked for GF(p^k) always
agree on the representation, hence on primitive elements and on the Singer
difference sets built from them.

A polynomial is packed into one Python int (Kronecker substitution), with
coefficient i, in [0, p), in the bit slot [i*W, (i+1)*W); one big-int product
multiplies two polynomials.  ``_mulmod`` reduces the product modulo the
degree-k modulus f by polynomial Barrett reduction (Barrett, CRYPTO '86),
with every slot taken mod p at once through a multiplier (Granlund and
Montgomery, PLDI '94), in a fixed handful of big-int steps whatever k is:

    c = a*b;  t = ((c >> kW) * mu) >> (k-2)W;  q = t mod p;
    r = (c + q*g) mod x^k;  result = r mod p,

where mu = floor(x^(2k-2) / f) mod p and g = -f mod p, whose x^k slot is
p - 1.  For deg c <= 2k - 2 the polynomial Barrett quotient
floor(floor(c / x^k) * mu / x^(k-2)) is floor(c / f) exactly, with no error
term, so c + q*g = c - q*f (mod p) vanishes mod p at x^k and above, and its
k low slots hold the remainder.  A slot-wise v mod p is v - p*floor(v*M / 2^S)
with M = ceil(2^S / p), taken in all slots at once and masked by the pattern
P of the low B bits of each slot: floor(v*M / 2^S) = floor(v / p) exactly for
0 <= v < 2^B when S = B + p.bit_length() + 1, and v*M stays below 2^W for
W = B + S, so no slot spills into the next.

B is the bit length of V = max((k-1)*k*(p-1)^3, (3k-1)*(p-1)^2), the
largest slot value the kernel reduces, for every operand shape the package
passes: reduced a and b; b a sum of two reduced elements; or
b = 1 and a a sum of two reduced elements, or of three when k >= 2
(``_mulmod(a, 1, ring)`` reduces a alone).  With b a sum of two, a slot of
c is at most 2k(p-1)^2, a slot of c's top k - 1 slots times mu at most
(k-1)*k*(p-1)^3, and a slot of c + q*g below x^k at most (3k-1)*(p-1)^2;
reduced operands reach half the second bound and (2k-1)*(p-1)^2.  ``_ring``
precomputes mu, g, M and P once per modulus.

The field set-up and the field work of the Singer construction work on
packed ints, and one multiply-mod (``_mulmod``) and one power (``_powmod``)
serve them all: ``_mulmod`` is the one kernel that reduces packed
polynomials.  ``subfield_recurrence`` does Singer's part and hands out
integer codes of GF(q), so no other module reads a packed polynomial.
Euclid's algorithm divides by a new polynomial at each step, which a
precomputed ring does not serve, so ``_poly_gcd`` works on coefficient
lists.  Set-up is most of the cost of a Singer difference set, so it is kept
to few multiply-mods: ``is_irreducible`` finds linear factors by evaluation
at the points of a small GF(p) and the others with one gcd, and
``primitive_element`` settles the primes of p - 1 through a candidate's norm
to GF(p).  The modulus search takes its candidates in blocks of p that
differ only in the constant term; one evaluation per point of a small GF(p)
crosses off the candidate of the block with a root there
(``_rooted_constants``, which ``is_irreducible`` calls too), so only
root-free candidates reach Ben-Or's test.

Sizes are capped at desk scale.  The largest field the difference-set
constructions ever need is GF(32^3) = GF(2^15), so extension degrees stop
at 15 and orders must fit comfortably in a native integer.

The package's factoring lives here too: ``_trial_division`` is its one
trial-division loop, read by ``is_prime``, ``factorize``, ``prime_power``
and ``is_sum_of_two_squares``, which each stop dividing at
``TRIAL_DIVISION_BOUND`` and settle what is left exactly or raise a
``DomainError``, never a guess and never a long loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from operator import index


class DomainError(ValueError):
    """Input the library does not accept: the caller's fault, not a bug.

    Every check of the package on outside input raises it, and nothing else
    does, so the command line can report it as bad input (exit 2).  A failed
    self-check raises ``ArithmeticError`` or ``RuntimeError`` instead.  Every
    integer argument is checked by ``checked_int``.
    """


def checked_int(value, name: str, least: int | None = None) -> int:
    """`value` as an int: a bool, a value that ``operator.index`` refuses or
    one below `least` is a ``DomainError`` naming it.  A numpy integer, or
    any other with ``__index__``, becomes an int."""
    if type(value) is not int:  # a plain int, the common case, passes as it is
        try:
            if isinstance(value, bool):
                raise TypeError
            value = index(value)
        except TypeError:
            raise DomainError(f"{name} {value!r} is not an int") from None
    if least is not None and value < least:
        raise DomainError(f"{name} must be >= {least}")
    return value


MAX_EXTENSION_DEGREE = 15
MAX_FIELD_ORDER = 1 << 62


# Miller-Rabin with the prime bases 2 .. 37 makes no mistake below this
# bound, the least strong pseudoprime to all twelve of them (Sorenson and
# Webster, Math. Comp. 86 (2017)); it is far above MAX_FIELD_ORDER.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_EXACT_BELOW = 318665857834031151167461


# Trial division stops at this bound: at most about 0.1 s of divisions.
TRIAL_DIVISION_BOUND = 10**6


def _trial_division(n: int, bound: int) -> tuple[dict[int, int], int]:
    """(factors, cofactor): the primes up to `bound` that divide n >= 1,
    {prime: exponent} in increasing order, and the part of n they leave.
    The candidates f are 2 and the odd numbers, while f <= bound and f^2 is
    at most what is left.  Once they stop, no prime below f divides what is
    left, so below f^2 it is 1 or a prime and joins the factors: a cofactor
    above 1 exceeds bound^2 and has no prime factor up to `bound`."""
    factors: dict[int, int] = {}
    f, gap = 2, 1
    while f <= bound and f * f <= n:
        if not n % f:
            e = 0
            while not n % f:
                n //= f
                e += 1
            factors[f] = e
        f += gap
        gap = 2
    if 1 < n < f * f:
        factors[n] = 1
        n = 1
    return factors, n


def is_prime(n: int) -> bool:
    """Exact primality: division by the primes up to 37, then a deterministic
    Miller-Rabin test below ``_MILLER_RABIN_EXACT_BELOW``.  At or above it a
    factor up to ``TRIAL_DIVISION_BOUND`` settles False, and any other n is a
    ``DomainError`` naming the bound, never a guess and never a long loop."""
    if n < 2:
        return False
    exact = n < _MILLER_RABIN_EXACT_BELOW
    factors, _ = _trial_division(n, _MILLER_RABIN_BASES[-1] if exact else TRIAL_DIVISION_BOUND)
    if factors:
        return factors == {n: 1}
    if not exact:
        raise DomainError(f"cannot tell whether {n} is prime: it has no factor up to the "
                          f"trial-division bound {TRIAL_DIVISION_BOUND} and is past the exact "
                          f"Miller-Rabin range")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # a witnesses that n is composite
    return True


def factorize(n: int) -> dict[int, int]:
    """The prime factorization of n >= 1, {prime: exponent} in increasing
    order, by trial division up to ``TRIAL_DIVISION_BOUND``.  The cofactor
    left has no prime factor up to the bound and is taken only when the
    Miller-Rabin test proves it prime; any other is a ``DomainError`` naming
    n, never a guess and never a long loop."""
    if n < 1:
        raise DomainError("factorize expects a positive integer")
    factors, cofactor = _trial_division(n, TRIAL_DIVISION_BOUND)
    if cofactor > 1:
        if cofactor >= _MILLER_RABIN_EXACT_BELOW or not is_prime(cofactor):
            raise DomainError(f"cannot factor {n}: its cofactor {cofactor} has no prime factor "
                              f"up to the trial-division bound {TRIAL_DIVISION_BOUND} and needs "
                              f"factoring")
        factors[cofactor] = 1
    return factors


def _integer_root(n: int, e: int) -> int:
    """floor(n^(1/e)) for n >= 1 and e >= 1, by Newton's method on integers
    from 2^ceil(bits/e), which is at least the root."""
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p^e for prime p, or None.  n = 1 is not a prime power.

    Division by the primes up to 37 settles n when one of them divides it,
    and n below 39^2.  Otherwise every prime factor exceeds 37, so n = r^e
    needs 32^e < n.  Those e are tried from the largest down, and the first
    with an exact integer root r decides: r is then no perfect power itself,
    so n is a prime power iff ``is_prime`` accepts r.  That is deterministic
    Miller-Rabin below about 3 * 10^23, so no order below it is factored,
    and a prime's square is decided at e = 2 whatever its size.
    """
    if n < 2:
        return None
    factors, cofactor = _trial_division(n, _MILLER_RABIN_BASES[-1])
    if factors:
        return factors.popitem() if len(factors) == 1 and cofactor == 1 else None
    for e in range((n.bit_length() - 1) // 5, 0, -1):
        r = _integer_root(n, e)
        if r ** e == n:  # always so at e = 1
            break
    return (r, e) if is_prime(r) else None


def is_sum_of_two_squares(n: int) -> bool:
    """n = a^2 + b^2 for integers a, b, 0 allowed.

    By Fermat and Euler, n >= 1 is such a sum iff every prime = 3 (mod 4)
    divides it to an even power.  The primes up to ``TRIAL_DIVISION_BOUND``
    are divided out, and one of them = 3 (mod 4) to an odd power settles
    False.  The cofactor c left has no prime factor up to the bound: it is
    settled False when c = 3 (mod 4), and True when it is 1, a square or a
    prime.  Any other c would need factoring: that is a ``DomainError``
    naming n and the bound, never a guess and never a long loop; ``is_prime``
    is asked only inside its exact Miller-Rabin range, where it cannot raise.
    """
    if n < 1:
        return n == 0
    factors, cofactor = _trial_division(n, TRIAL_DIVISION_BOUND)
    # A product of primes = 1 (mod 4) and of even powers is = 1 (mod 4), so
    # an odd c = 3 (mod 4) has a prime = 3 (mod 4) to an odd power.
    if cofactor % 4 == 3:
        return False
    for p, e in factors.items():
        if e % 2 and p % 4 == 3:
            return False
    if (cofactor == 1 or isqrt(cofactor) ** 2 == cofactor
            or cofactor < _MILLER_RABIN_EXACT_BELOW and is_prime(cofactor)):
        return True
    raise DomainError(f"cannot tell whether {n} is a sum of two squares: its cofactor "
                      f"{cofactor} has no prime factor up to the trial-division bound "
                      f"{TRIAL_DIVISION_BOUND} and needs factoring")


# ---------------------------------------------------------------------------
# Packed polynomial arithmetic over GF(p), constant term in the lowest slot.
# ---------------------------------------------------------------------------


def _pack(coeffs, width: int) -> int:
    """The packed polynomial with these nonnegative coefficients."""
    value = 0
    for c in reversed(coeffs):
        value = value << width | c
    return value


def _unpack(value: int, count: int, width: int) -> list[int]:
    """The coefficients in the count low slots of the packed value."""
    mask = (1 << width) - 1
    return [value >> s & mask for s in range(0, count * width, width)]


def _pack_digits(value: int, p: int, width: int) -> int:
    """The packed polynomial whose coefficients are the base-p digits of
    value >= 0, least significant first."""
    packed = s = 0
    while value:
        value, c = divmod(value, p)
        packed |= c << s
        s += width
    return packed


def _ring(mod, p: int) -> tuple:
    """What ``_mulmod`` needs to reduce modulo the monic mod, a coefficient
    list of degree k with entries in [0, p): (p, g = -mod, mu, k*W, the shift
    (k-2)*W, S, M, the pattern P, the mask of the k low slots, W).

    mu = floor(x^(2k-2) / mod) mod p comes from the power series of the
    reversed modulus: its coefficients, top first, are h_0 = 1 and
    h_i = -(sum over j = 1 .. i of mod[k-j] * h_(i-j)), each h_i added into
    the sums of the later ones once it is reduced.  For k = 1 the quotient
    of any product is 0, and so is mu.
    """
    k = len(mod) - 1
    b = max((k - 1) * k * (p - 1) ** 3, (3 * k - 1) * (p - 1) ** 2).bit_length()
    s = b + p.bit_length() + 1
    width = b + s
    kw = k * width
    h = [1] + [0] * (k - 2)
    for i in range(k - 1):
        hi = h[i] % p
        h[i] = hi
        if hi:
            for j in range(i + 1, k - 1):
                h[j] -= mod[k - j + i] * hi
    low = (1 << kw) - 1
    ones = low // ((1 << width) - 1)  # 1 in each of the k low slots
    return (p, _pack([-c % p for c in mod], width), _pack(h[::-1], width) if k > 1 else 0,
            kw, max(k - 2, 0) * width, s, -(-(1 << s) // p), ones * ((1 << b) - 1), low, width)


def _mulmod(a: int, b: int, ring: tuple) -> int:
    """a * b modulo the ring's modulus, every coefficient in [0, p); b = 1
    reduces a alone.  Polynomial Barrett reduction, with every slot taken mod
    p at once by the multiplier M (see the module): t is the product's top
    k - 1 slots times mu, shifted down to the quotient's degree; q is t mod
    p, the quotient; c + q*g is c - q*mod mod p slot-wise, and its k low slots
    are the remainder.
    """
    p, g, mu, kw, shift, s, m, pattern, low, _ = ring
    c = a * b
    t = ((c >> kw) * mu) >> shift
    q = t - p * (((t * m) >> s) & pattern)
    r = (c + q * g) & low
    return r - p * (((r * m) >> s) & pattern)


def _powmod(a: int, e: int, ring: tuple) -> int:
    """a^e modulo the ring's modulus, e >= 0, by left-to-right square and multiply."""
    if not e:
        return 1
    result = a
    for bit in bin(e)[3:]:
        result = _mulmod(result, result, ring)
        if bit == "1":
            result = _mulmod(result, a, ring)
    return result


def _shift_slot(a: int, s: int, delta: int, p: int, mask: int) -> int:
    """The packed a with delta added, mod p, to its coefficient at bit offset s."""
    c = a >> s & mask
    return a + (((c + delta) % p - c) << s)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd of a and b, deg b < deg a, as coefficient lists over GF(p):
    constant term first, entries in [0, p), no leading zero, [] for 0.

    Euclid's algorithm: each step clears a's coefficients from the top down
    to deg b with multiples of b, and goes on with b and what is left.
    """
    while b:
        a = a[:]
        db = len(b) - 1
        inv = pow(b[-1], -1, p)
        for top in range(len(a) - 1, db - 1, -1):
            c = a[top] * inv % p
            if c:
                for j in range(db):
                    a[top - db + j] = (a[top - db + j] - c * b[j]) % p
        del a[db:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return a


# Up to this characteristic the p Horner evaluations of ``_rooted_constants``
# cost less than the Frobenius power x^p and the gcd that would find a linear
# factor instead; for root-free cubics and sextics they break even between
# p = 67 and p = 127.  Every field the Singer construction builds has p <= 31.
_ROOT_SCAN_MAX_P = 64


def _rooted_constants(high: list[int], p: int) -> set[int]:
    """The constant terms c_0 for which c_0 + x*h(x) has a root in GF(p),
    where h has the coefficients high, constant term first.

    The root 0 gives c_0 = 0.  For p <= ``_ROOT_SCAN_MAX_P`` one Horner pass
    of h per point r != 0 gives the one c_0 = -r*h(r) with a root at r; for
    a larger p only c_0 = 0 is returned, and Ben-Or's test finds the roots.
    """
    rooted = {0}
    if p <= _ROOT_SCAN_MAX_P:
        top_down = high[::-1]
        for r in range(1, p):
            acc = 0
            for c in top_down:
                acc = acc * r + c
            rooted.add(-acc * r % p)
    return rooted


def is_irreducible(poly: list[int] | tuple[int, ...], p: int) -> bool:
    """Deterministic irreducibility test over GF(p) (Ben-Or's criterion).

    `poly` is a monic nonconstant list of int coefficients, constant term
    first, and p a prime, else ``DomainError`` (``checked_int``).  A poly
    with a root that ``_rooted_constants`` finds is reducible, and the rest
    go on to ``_ben_or``.
    """
    p = checked_int(p, "p")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    mod = [checked_int(c, "coefficient") % p for c in poly]
    if len(mod) < 2 or mod[-1] != 1:
        raise DomainError(f"{list(poly)} is not a monic nonconstant polynomial over GF({p})")
    if len(mod) == 2:
        return True
    return mod[0] not in _rooted_constants(mod[1:], p) and _ben_or(mod, p)


def _ben_or(mod: list[int], p: int) -> bool:
    """Ben-Or's test on a monic coefficient list of degree d >= 2 with every
    entry in [0, p), p prime, constant term first, with no root that
    ``_rooted_constants`` finds.

    A monic f of degree d is reducible iff it has an irreducible factor of
    some degree j <= d/2, that is iff gcd(x^(p^j) - x, f) is not constant for
    some j <= d/2: x^(p^j) - x is the product of the monic irreducibles of
    degree dividing j, and an irreducible f has no root in GF(p^j) for j < d.

    The factors of degree 1 are the roots in GF(p).  For p <=
    ``_ROOT_SCAN_MAX_P`` they are all ruled out, so f of degree <= 3 is
    irreducible and j = 1 is left out below; for a larger p, j = 1 joins the
    product, at O(log p) multiplications.  The remaining x^(p^j) - x,
    j <= d/2, are multiplied together modulo f, the powers x^(p^j) taken one
    Frobenius step at a time, and one gcd with f, on coefficient lists,
    decides: an irreducible factor of f that divides the product divides one
    of its factors.  An irreducible f shares no factor with any of them, so
    the gcd is a constant.
    """
    d = len(mod) - 1
    rootless = p <= _ROOT_SCAN_MAX_P
    if rootless and d <= 3:
        return True
    first = 2 if rootless else 1
    ring = _ring(mod, p)
    width = ring[-1]
    factors = []
    h = 1 << width  # x
    for j in range(1, d // 2 + 1):
        h = _powmod(h, p, ring)  # x^(p^j)
        if j >= first:
            factors.append(_shift_slot(h, width, -1, p, (1 << width) - 1))  # x^(p^j) - x
    product = factors[0]
    for factor in factors[1:]:
        product = _mulmod(product, factor, ring)
    product = _unpack(product, d, width)
    while product and not product[-1]:
        product.pop()
    return len(_poly_gcd(mod, product, p)) == 1  # the gcd is a constant


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k over GF(p) with least integer encoding.

    Candidates x^k + c, with c encoding the low-order coefficients in base p
    (constant term least significant), are scanned in increasing c.  For k = 1
    this yields the polynomial x.

    The scan goes block by block: the p candidates of a block share the
    coefficients c_1 .. c_(k-1) and differ in c_0, so one call of
    ``_rooted_constants`` crosses off the block's candidates with a root it
    finds.  Only the rest reach Ben-Or's test.
    """
    if k == 1:
        return (0, 1)
    for block in range(p ** (k - 1)):
        high = [block // p**i % p for i in range(k - 1)] + [1]  # c_1 .. c_(k-1), 1
        rooted = _rooted_constants(high, p)
        for c0 in range(1, p):
            if c0 not in rooted and _ben_or([c0] + high, p):
                return (c0, *high)
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


# ---------------------------------------------------------------------------
# The field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GfField:
    """The field GF(p^k) with a fixed, deterministic modulus polynomial."""

    p: int
    k: int
    modulus_poly: tuple[int, ...]
    order: int

    @cached_property
    def _quotient(self) -> tuple:
        return _ring(self.modulus_poly, self.p)

    def __repr__(self) -> str:
        return f"GfField(GF({self.order}) = GF({self.p}^{self.k}))"


def make_field(p: int, k: int = 1) -> GfField:
    """Construct GF(p^k) with the deterministic (smallest) modulus polynomial.

    p is a prime and k an int in 1 .. 15, else ``DomainError``.  For k = 1
    the stored modulus is the placeholder x; reducing by it does nothing, so
    products are plain integer products mod p.
    """
    p, k = checked_int(p, "p"), checked_int(k, "degree", 1)
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if k > MAX_EXTENSION_DEGREE:
        raise DomainError(f"degree {k} exceeds the cap {MAX_EXTENSION_DEGREE}")
    order = p**k
    if order > MAX_FIELD_ORDER:
        raise DomainError(f"field order {order} exceeds the native cap")
    return GfField(p=p, k=k, modulus_poly=_smallest_irreducible(p, k), order=order)


def primitive_element(field: GfField) -> int:
    """The least generator of the multiplicative group, as its integer
    encoding v = sum(c_i * p^i), constant term c_0 least significant.

    Elements are scanned in increasing integer encoding; the first with full
    order is returned, so the result is deterministic for a given field.  For
    k > 1 the scan starts at the encoding p: the constants 1 .. p-1 lie in
    GF(p)*, so their order divides p - 1 < p^k - 1 and none of them generates.

    a generates iff a^(n/r) != 1 for every prime r of n = p^k - 1.  For the
    primes r of p - 1 that power is N(a)^((p-1)/r), where the norm
    N(a) = a^(n/(p-1)) lies in GF(p), so integer powers mod p decide them
    all.  The norm is the product of a's conjugates, a(y) over the roots y
    of the modulus f; for a = c1*x + c0 = c1*(x - t) that is (-c1)^k * f(t),
    with no arithmetic in the field, and any other candidate takes one power.
    Each candidate is tested as its packed polynomial.
    """
    p, n = field.p, field.order - 1
    ring = field._quotient
    primes = factorize(n)
    norm_tests = [(p - 1) // r for r in primes if (p - 1) % r == 0]
    field_tests = [n // r for r in primes if (p - 1) % r]
    for v in range(p if field.k > 1 else 1, field.order):
        a = _pack_digits(v, p, ring[-1])
        if norm_tests:
            if p <= v < p * p:  # a = c1*x + c0
                c1, c0 = divmod(v, p)
                t = -c0 * pow(c1, -1, p) % p
                f_t = sum(c * t**i for i, c in enumerate(field.modulus_poly))
                norm = (-c1) ** field.k * f_t % p
            else:
                norm = _powmod(a, n // (p - 1), ring)  # in GF(p): its packed int is its value
            if any(pow(norm, e, p) == 1 for e in norm_tests):
                continue
        if all(_powmod(a, e, ring) != 1 for e in field_tests):
            return v
    raise RuntimeError("no primitive element found (impossible for a field)")


def subfield_recurrence(field: GfField, g: int, q: int) -> tuple[list, list, tuple[int, int, int]]:
    """GF(q) inside field = GF(q^3) on the codes 0 .. q-1, and Singer's
    recurrence over it: (add, mul, (c1, c2, c3)), where add[a][b] and
    mul[a][b] are the codes of a sum and a product and g^3 = c1*g^2 + c2*g
    + c3, for g a generator of the multiplicative group, as the integer
    encoding ``primitive_element`` returns.  A q whose cube is not the
    field's order is a ``DomainError``.

    With u = g^q * g^(q^2), e1 = g + g^q + g^(q^2), e2 = g*(g^q + g^(q^2))
    + u and e3 = g*u, the elementary symmetric functions of the conjugates
    of g over GF(q), g^3 = e1*g^2 - e2*g + e3; c2 is read from the tables as
    e2 times the packed constant p - 1, which is -1.  h = e3 = g^(1+q+q^2)
    generates GF(q)*, the cyclic subgroup of index 1+q+q^2 of GF(q^3)*.  The
    code of 0 is 0 and that of h^j is j + 1, so row i + 1 of ``mul`` is 0
    and the codes of h^i, h^(i+1), ... cyclically.  ``add`` comes from Zech
    logarithms: zech[j], the code of 1 + h^j, is h^j with its constant slot
    raised by 1 mod p, and h^i + h^j = h^i * (1 + h^(j-i)), so row i + 1 of
    ``add`` reads row i + 1 of ``mul`` at the zech codes rotated by i.  It
    takes one ``_mulmod`` per power of h; e1 or e2 off the subfield, or a
    subfield of other than q elements, is an ``ArithmeticError``.
    """
    q = checked_int(q, "order")
    if q**3 != field.order:
        raise DomainError(f"GF({q}) is not a subfield of index 3 of {field!r}")
    ring = field._quotient
    p, mask = field.p, (1 << ring[-1]) - 1  # mask: one slot
    g = _pack_digits(g, p, ring[-1])
    gq = _powmod(g, q, ring)
    gqq = _powmod(gq, q, ring)
    u = _mulmod(gq, gqq, ring)
    e1 = _mulmod(g + gq + gqq, 1, ring)
    e2 = _mulmod(_mulmod(g, gq + gqq, ring) + u, 1, ring)
    h = _mulmod(g, u, ring)  # e3
    n = q - 1
    powers = []
    cur = 1
    for _ in range(n):
        powers.append(cur)
        cur = _mulmod(cur, h, ring)
    codes = dict(zip(powers, range(1, q)))
    codes[0] = 0
    if cur != 1 or len(codes) != q:
        raise ArithmeticError("subfield reconstruction failed")
    if e1 not in codes or e2 not in codes:
        raise ArithmeticError("minimal polynomial is not over the subfield")
    # h has order q - 1 exactly, so {0} and its powers are all of GF(q), and
    # 1 + h^j has a code.
    zech = [codes[_shift_slot(x, 0, 1, p, mask)] for x in powers]
    codes_of_powers = list(range(1, q))
    mul = [[0] * q] + [[0] + codes_of_powers[i:] + codes_of_powers[:i] for i in range(n)]
    add = [list(range(q))] + [[i + 1, *map(mul[i + 1].__getitem__, zech[n - i:] + zech[:n - i])]
                              for i in range(n)]
    return add, mul, (codes[e1], mul[codes[e2]][codes[p - 1]], codes[h])
