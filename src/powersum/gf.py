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
the irreducibility test that picks the modulus, modulo each candidate.

Sizes are capped at desk scale.  The largest field the difference-set
constructions ever need is GF(32^3) = GF(2^15), so extension degrees stop
at 15 and orders must fit comfortably in a native integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator


class NotPrimeError(ValueError):
    """The requested field characteristic is not prime."""


class DegreeOutOfRangeError(ValueError):
    """The requested extension degree is outside the supported range."""


class FieldMismatchError(ValueError):
    """Two elements from different fields were combined."""


class NotMonicError(ValueError):
    """The irreducibility test was handed a non-monic polynomial."""


MAX_EXTENSION_DEGREE = 15
MAX_FIELD_ORDER = 1 << 62


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale inputs)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
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


def _poly_gcd(a: int, b: int, ring: tuple) -> int:
    """A gcd of the packed a, of the ring's degree, and b, of lower degree."""
    p, _, width, _, _, mask = ring
    while b:
        kw = (b.bit_length() - 1) // width * width
        inv_lead = pow(b >> kw, -1, p)
        monic = [(b >> s & mask) * inv_lead % p for s in range(0, kw + 1, width)]
        a, b = b, _mulmod(a, 1, _ring(monic, p, width))  # a mod b
    return a


def is_irreducible(poly: list[int] | tuple[int, ...], p: int) -> bool:
    """Deterministic irreducibility test over GF(p) (Ben-Or's criterion).

    `poly` is a monic coefficient list, constant term first.  A monic f of
    degree d is reducible iff it has an irreducible factor of some degree
    j <= d/2, that is iff gcd(x^(p^j) - x, f) is not constant for some
    j <= d/2: x^(p^j) - x is the product of the monic irreducibles of degree
    dividing j, and an irreducible f has no root in GF(p^j) for j < d.  The
    powers x^(p^j) are taken one Frobenius step at a time in GF(p)[x]/(f),
    and a candidate with a small factor exits at that factor's degree.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    mod = [c % p for c in poly]
    d = len(mod) - 1
    if d < 1 or mod[-1] != 1:
        raise NotMonicError(f"{list(poly)} is not a monic nonconstant polynomial over GF({p})")
    width = _width(p, d)
    ring = _ring(mod, p, width)
    f = _pack(mod, width)
    x = h = 1 << width
    for _ in range(d // 2):
        h = _powmod(h, p, ring)  # x^(p^j)
        h_minus_x = _mulmod(h + (p - 1) * x, 1, ring)
        if _poly_gcd(f, h_minus_x, ring) >= x:  # the gcd is not a constant
            return False
    return True


@lru_cache(maxsize=None)
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
        if is_irreducible(candidate, p):
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
            raise ValueError(f"coefficient vector longer than degree {self.k}")
        return GfElement(self, _pack(vec, _width(self.p, self.k)))

    def from_int(self, value: int) -> "GfElement":
        """Element whose coefficient vector is `value` written in base p."""
        if not 0 <= value < self.order:
            raise ValueError(f"value {value} outside [0, {self.order})")
        return self.element([value // self.p**i % self.p for i in range(self.k)])

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
            raise FieldMismatchError(f"{self.field} vs {other.field}")

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
        raise NotPrimeError(f"{p} is not prime")
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= MAX_EXTENSION_DEGREE:
        raise DegreeOutOfRangeError(f"degree {k!r} is not an int in [1, {MAX_EXTENSION_DEGREE}]")
    order = p**k
    if order > MAX_FIELD_ORDER:
        raise DegreeOutOfRangeError(f"field order {order} exceeds the native cap")
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
    """
    n = field.order - 1
    ring = field._quotient
    exponents = [n // r for r in factorize(n)]
    for v in range(field.p if field.k > 1 else 1, field.order):
        a = field.from_int(v)
        if all(_powmod(a.packed, e, ring) != 1 for e in exponents):
            return a
    raise RuntimeError("no primitive element found (impossible for a field)")
