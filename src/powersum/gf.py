"""Exact arithmetic in small finite fields GF(p^k).

Elements are polynomials over GF(p) of degree below k, reduced modulo the
smallest monic irreducible polynomial of the requested degree, where
"smallest" compares the integer encoding sum(c_i * p^i).  That choice makes
every downstream construction reproducible: two runs asked for GF(p^k) always
agree on the representation, hence on primitive elements and on the Singer
difference sets built from them.

A polynomial is packed into one Python int (Kronecker substitution), with
coefficient i, in [0, p), in the bit slot [i*B, (i+1)*B); one big-int product
multiplies two polynomials.  A product's slot is a sum of at most k terms
c*c' <= (p-1)^2, and reducing its k - 1 slots above the modulus's degree adds
at most k - 1 more, so no slot can overflow the least width that holds
(2k-1) * (p-1)^2, B = ((2k-1) * (p-1)^2).bit_length().  One multiply-mod
(``_mulmod``) and one power (``_powmod``) serve both the field elements and
the field set-up, which works on packed ints and makes a ``GfElement`` only
for what it returns.  Set-up is most of the cost of a Singer difference
set, so it is kept to few multiply-mods: ``is_irreducible`` finds linear
factors by evaluation at the points of a small GF(p) and the others with
one gcd, and ``primitive_element`` settles the primes of p - 1 through a
candidate's norm to GF(p).

Sizes are capped at desk scale.  The largest field the difference-set
constructions ever need is GF(32^3) = GF(2^15), so extension degrees stop
at 15 and orders must fit comfortably in a native integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


class DomainError(ValueError):
    """Input the library does not accept: the caller's fault, not a bug.

    Every check of the package on outside input raises it, and nothing else
    does, so the command line can report it as bad input (exit 2).  A failed
    self-check raises ``ArithmeticError`` or ``RuntimeError`` instead.
    """


MAX_EXTENSION_DEGREE = 15
MAX_FIELD_ORDER = 1 << 62


# Miller-Rabin with the prime bases 2 .. 37 makes no mistake below this
# bound, the least strong pseudoprime to all twelve of them (Sorenson and
# Webster, Math. Comp. 86 (2017)); it is far above MAX_FIELD_ORDER.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_EXACT_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Exact primality: a deterministic Miller-Rabin test below
    ``_MILLER_RABIN_EXACT_BELOW``, trial division (``factorize``) at or above it."""
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    if n >= _MILLER_RABIN_EXACT_BELOW:
        return factorize(n) == {n: 1}
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
    """Prime factorization by trial division (desk-scale inputs)."""
    if n < 1:
        raise DomainError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


# ---------------------------------------------------------------------------
# Packed polynomial arithmetic over GF(p), constant term in the lowest slot.
# ---------------------------------------------------------------------------


def _width(p: int, k: int) -> int:
    """Slot width B for products modulo a degree-k polynomial over GF(p)."""
    return ((2 * k - 1) * (p - 1) ** 2).bit_length()


def _pack(coeffs, width: int) -> int:
    """The packed polynomial with these nonnegative coefficients."""
    value = 0
    for c in reversed(coeffs):
        value = value << width | c
    return value


def _pack_digits(value: int, p: int, width: int) -> int:
    """The packed polynomial whose coefficients are the base-p digits of
    value >= 0, least significant first."""
    packed = s = 0
    while value:
        value, c = divmod(value, p)
        packed |= c << s
        s += width
    return packed


def _ring(mod, p: int, width: int) -> tuple:
    """What ``_mulmod`` needs to reduce modulo the monic mod (a coefficient
    list of degree k): (p, the packed x^k - mod, the slot width, k * width,
    the shifts of the slots 0 .. k-1, the mask of one slot)."""
    kw = (len(mod) - 1) * width
    return (p, _pack([-c % p for c in mod[:-1]], width), width, kw, range(0, kw, width),
            (1 << width) - 1)


def _mulmod(a: int, b: int, ring: tuple) -> int:
    """a * b modulo the ring's modulus, every coefficient in [0, p); b = 1
    reduces a alone.  Each slot from the product's top down to slot k is
    cleared and its value mod p, times x^k - mod, added k slots lower; then
    the k low slots are taken mod p.
    """
    p, neg, width, kw, low, mask = ring
    c = a * b
    for s in range((c.bit_length() - 1) // width * width, kw - 1, -width):
        top = c >> s
        c ^= top << s
        c += (top % p * neg) << (s - kw)
    result = 0
    for s in low:
        result |= ((c >> s & mask) % p) << s
    return result


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


def _poly_gcd(a: int, b: int, p: int, width: int) -> int:
    """A gcd of the packed a and b, deg b < deg a <= k, in slots of a width
    that holds a degree-k modulus (``_width``).

    Each Euclid step reduces a modulo b with ``_mulmod``, b standing in for a
    ring's modulus: b's leading term is x^db * lead, so x^db is replaced by
    -(b - lead * x^db) / lead, every coefficient in [0, p).  A slot so gains
    at most deg a - deg b + 1 <= k terms below (p - 1)^2, within the width.
    """
    mask = (1 << width) - 1
    while b:
        db = (b.bit_length() - 1) // width * width
        neg_inv_lead = p - pow(b >> db, -1, p)
        low = range(0, db, width)
        neg = 0
        for s in low:
            neg |= (b >> s & mask) * neg_inv_lead % p << s
        a, b = b, _mulmod(a, 1, (p, neg, width, db, low, mask))
    return a


def _has_root(mod: list[int], p: int) -> bool:
    """Whether the polynomial with these coefficients, constant term first,
    vanishes at some point of GF(p), by Horner's rule at each point."""
    top_down = mod[::-1]
    for r in range(p):
        acc = 0
        for c in top_down:
            acc = acc * r + c
        if acc % p == 0:
            return True
    return False


# Up to this characteristic the p Horner evaluations of ``_has_root`` cost
# less than the Frobenius power x^p and the gcd that would find a linear
# factor instead; for root-free cubics and sextics they break even between
# p = 67 and p = 127.  Every field the Singer construction builds has p <= 31.
_ROOT_SCAN_MAX_P = 64


def is_irreducible(poly: list[int] | tuple[int, ...], p: int) -> bool:
    """Deterministic irreducibility test over GF(p) (Ben-Or's criterion).

    `poly` is a monic coefficient list, constant term first; p must be a
    prime and poly monic and nonconstant, else ``DomainError``.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise DomainError(f"{p} is not prime")
    mod = [c % p for c in poly]
    if len(mod) < 2 or mod[-1] != 1:
        raise DomainError(f"{list(poly)} is not a monic nonconstant polynomial over GF({p})")
    return _ben_or(mod, p)


def _ben_or(mod: list[int], p: int) -> bool:
    """Ben-Or's test on a monic coefficient list of degree d >= 1 with every
    entry in [0, p), p prime, constant term first.

    A monic f of degree d is reducible iff it has an irreducible factor of
    some degree j <= d/2, that is iff gcd(x^(p^j) - x, f) is not constant for
    some j <= d/2: x^(p^j) - x is the product of the monic irreducibles of
    degree dividing j, and an irreducible f has no root in GF(p^j) for j < d.

    The factors of degree 1 are the roots in GF(p).  For p <=
    ``_ROOT_SCAN_MAX_P`` they are found by evaluating f at each point, with no
    power and no gcd, and a root-free f of degree <= 3 is irreducible; for a
    larger p the scan would cost O(p), so j = 1 joins the product below,
    at O(log p) multiplications.  The remaining x^(p^j) - x, j <= d/2, are
    multiplied together modulo f, the powers x^(p^j) taken one Frobenius step
    at a time, and one gcd with f decides: an irreducible factor of f that
    divides the product divides one of its factors.  An irreducible f shares
    no factor with any of them, so the gcd is a constant.
    """
    d = len(mod) - 1
    if d == 1:
        return True
    first = 1
    if p <= _ROOT_SCAN_MAX_P:
        if _has_root(mod, p):
            return False
        if d <= 3:
            return True
        first = 2
    width = _width(p, d)
    ring = _ring(mod, p, width)
    factors = []
    h = x = 1 << width
    for j in range(1, d // 2 + 1):
        h = _powmod(h, p, ring)  # x^(p^j)
        if j >= first:
            factors.append(_shift_slot(h, width, -1, p, ring[-1]))  # x^(p^j) - x
    product = factors[0]
    for factor in factors[1:]:
        product = _mulmod(product, factor, ring)
    return _poly_gcd(_pack(mod, width), product, p, width) < x  # the gcd is a constant


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k over GF(p) with least integer encoding.

    Candidates x^k + c, with c encoding the low-order coefficients in base p
    (constant term least significant), are scanned in increasing c.  For k = 1
    this yields the polynomial x.
    """
    if k == 1:
        return (0, 1)
    for c in range(1, p**k):
        if c % p == 0:
            continue  # zero constant term means x divides the candidate
        candidate = [c // p**i % p for i in range(k)] + [1]
        if _ben_or(candidate, p):
            return tuple(candidate)
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


# ---------------------------------------------------------------------------
# Field and element types
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
        return _ring(self.modulus_poly, self.p, _width(self.p, self.k))

    def element(self, coeffs) -> "GfElement":
        """Build an element from any iterable of integers (reduced mod p)."""
        vec = [c % self.p for c in coeffs]
        if len(vec) > self.k:
            raise DomainError(f"coefficient vector longer than degree {self.k}")
        return GfElement(self, _pack(vec, _width(self.p, self.k)))

    def from_int(self, value: int) -> "GfElement":
        """Element whose coefficient vector is `value` written in base p."""
        if not 0 <= value < self.order:
            raise DomainError(f"value {value} outside [0, {self.order})")
        return GfElement(self, _pack_digits(value, self.p, self._quotient[2]))

    @property
    def zero(self) -> "GfElement":
        return GfElement(self, 0)

    @property
    def one(self) -> "GfElement":
        return GfElement(self, 1)

    def elements(self) -> Iterator["GfElement"]:
        for v in range(self.order):
            yield self.from_int(v)

    def __repr__(self) -> str:
        return f"GfField(GF({self.order}) = GF({self.p}^{self.k}))"


@dataclass(frozen=True)
class GfElement:
    """An element of a GfField, as its packed polynomial (see the module)."""

    field: GfField
    packed: int

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficient vector, constant term first, of length k."""
        *_, low, mask = self.field._quotient
        return tuple([self.packed >> s & mask for s in low])

    def _check(self, other: "GfElement") -> None:
        if self.field is not other.field and self.field != other.field:
            raise DomainError(f"elements of different fields: {self.field} vs {other.field}")

    def __add__(self, other: "GfElement") -> "GfElement":
        self._check(other)
        # A slot of the sum is at most 2(p - 1), within B except in GF(2),
        # where the carry lands in slot 1 and reducing by the modulus x clears it.
        return GfElement(self.field, _mulmod(self.packed + other.packed, 1, self.field._quotient))

    def __sub__(self, other: "GfElement") -> "GfElement":
        return self + -other

    def __neg__(self) -> "GfElement":
        return GfElement(self.field, _mulmod(self.packed, self.field.p - 1, self.field._quotient))

    def __mul__(self, other: "GfElement") -> "GfElement":
        self._check(other)
        return GfElement(self.field, _mulmod(self.packed, other.packed, self.field._quotient))

    def __pow__(self, exponent: int) -> "GfElement":
        if exponent < 0:
            return self.inv() ** (-exponent)
        return GfElement(self.field, _powmod(self.packed, exponent, self.field._quotient))

    def inv(self) -> "GfElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self ** (self.field.order - 2)

    def is_zero(self) -> bool:
        return self.packed == 0

    def to_int(self) -> int:
        return sum(c * self.field.p**i for i, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"GfElement({self.to_int()} in GF({self.field.order}))"


def make_field(p: int, k: int = 1) -> GfField:
    """Construct GF(p^k) with the deterministic (smallest) modulus polynomial.

    For k = 1 the stored modulus is the placeholder x; reducing by it does
    nothing, so products are plain integer products mod p.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= MAX_EXTENSION_DEGREE:
        raise DomainError(f"degree {k!r} is not an int in [1, {MAX_EXTENSION_DEGREE}]")
    order = p**k
    if order > MAX_FIELD_ORDER:
        raise DomainError(f"field order {order} exceeds the native cap")
    return GfField(p=p, k=k, modulus_poly=_smallest_irreducible(p, k), order=order)


def element_order(a: GfElement) -> int:
    """Multiplicative order: the least t >= 1 with a^t = 1.  Divides order-1."""
    if a.is_zero():
        raise ZeroDivisionError("the zero element has no multiplicative order")
    t = n = a.field.order - 1
    for r in factorize(n):
        while t % r == 0 and _powmod(a.packed, t // r, a.field._quotient) == 1:
            t //= r
    return t


def primitive_element(field: GfField) -> GfElement:
    """The least generator of the multiplicative group.

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
    Each candidate is tested as its packed polynomial, and only the winner
    is made a ``GfElement``.
    """
    p, n = field.p, field.order - 1
    ring = field._quotient
    primes = factorize(n)
    norm_tests = [(p - 1) // r for r in primes if (p - 1) % r == 0]
    field_tests = [n // r for r in primes if (p - 1) % r]
    for v in range(p if field.k > 1 else 1, field.order):
        a = _pack_digits(v, p, ring[2])
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
            return GfElement(field, a)
    raise RuntimeError("no primitive element found (impossible for a field)")
