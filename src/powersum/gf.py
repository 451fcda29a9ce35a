"""Exact arithmetic in small finite fields GF(p^k).

Elements are dense coefficient vectors (constant term first) reduced modulo
the smallest monic irreducible polynomial of the requested degree, where
"smallest" compares the integer encoding sum(c_i * p^i).  That choice makes
every downstream construction reproducible: two runs asked for GF(p^k) always
agree on the representation, hence on primitive elements and on the Singer
difference sets built from them.

One multiply-mod (``_mulmod``) and one square-and-multiply power
(``_powmod``) serve both the field elements, modulo the field's modulus, and
Rabin's irreducibility test that picks that modulus, modulo each candidate.

Sizes are capped at desk scale.  The largest field the difference-set
constructions ever need is GF(32^3) = GF(2^15), so extension degrees stop
at 15 and orders must fit comfortably in a native integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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
# Polynomial arithmetic over GF(p).  Coefficient tuples, constant term first.
# ---------------------------------------------------------------------------


def _trim(poly):
    """poly without its zero leading coefficients (the zero polynomial is ())."""
    n = len(poly)
    while n and poly[n - 1] == 0:
        n -= 1
    return poly[:n]


def _digits(value: int, p: int, k: int) -> list[int]:
    """The k lowest base-p digits of value, least significant first."""
    digits = []
    for _ in range(k):
        value, digit = divmod(value, p)
        digits.append(digit)
    return digits


def _reduce(poly: list[int], mod, p: int) -> tuple[int, ...]:
    """poly (any integer coefficients, each taken mod p once) modulo the monic
    mod: len(mod) - 1 coefficients in [0, p), or fewer if poly is shorter."""
    k = len(mod) - 1
    for i in range(len(poly) - 1, k - 1, -1):
        c = poly[i] % p
        if c:
            # mod[k] = 1 cancels poly[i]; poly[i] is not read again.
            for j in range(k):
                poly[i - k + j] -= c * mod[j]
    # From a list (not a generator) tuple() allocates once, at the exact size.
    return tuple([c % p for c in poly[:k]])


def _mulmod(a, b, mod, p: int) -> tuple[int, ...]:
    """a * b modulo the monic polynomial mod, for nonempty a and b."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _reduce(prod, mod, p)


def _powmod(a, e: int, mod, p: int) -> tuple[int, ...]:
    """a^e modulo the monic polynomial mod (e >= 0), by square and multiply."""
    result = (1,) + (0,) * (len(mod) - 2)
    while e:
        if e & 1:
            result = _mulmod(result, a, mod, p)
        e >>= 1
        if e:
            a = _mulmod(a, a, mod, p)
    return result


def _poly_gcd(a, b, p: int):
    """A greatest common divisor of two trimmed polynomials."""
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        b = [c * inv_lead % p for c in b]
        a, b = b, _trim(_reduce(list(a), b, p))
    return a


def is_irreducible(poly: list[int] | tuple[int, ...], p: int) -> bool:
    """Deterministic irreducibility test over GF(p) (Rabin's criterion).

    `poly` is a monic coefficient list, constant term first.  A degree-d monic
    polynomial is irreducible iff x^(p^d) = x modulo poly and, for every prime
    divisor r of d, gcd(x^(p^(d/r)) - x, poly) is constant.  The powers
    x^(p^j) are taken one Frobenius step at a time in GF(p)[x]/(poly).
    """
    mod = tuple(c % p for c in poly)
    if _trim(mod) != mod or not mod or mod[-1] != 1:
        raise NotMonicError(f"polynomial {list(poly)} is not monic over GF({p})")
    d = len(mod) - 1
    if d < 1:
        raise NotMonicError("constant polynomials are not tested")
    if d == 1:
        return True
    gcd_steps = {d // r for r in factorize(d)}
    x = (0, 1) + (0,) * (d - 2)
    h = x
    for j in range(1, d + 1):
        h = _powmod(h, p, mod, p)  # x^(p^j)
        if j in gcd_steps:
            h_minus_x = _trim((h[0], (h[1] - 1) % p) + h[2:])
            if len(_poly_gcd(mod, h_minus_x, p)) > 1:
                return False
    return h == x


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
        candidate = _digits(c, p, k) + [1]
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

    def element(self, coeffs) -> "GfElement":
        """Build an element from any iterable of integers (reduced mod p)."""
        vec = [c % self.p for c in coeffs]
        if len(vec) > self.k:
            raise ValueError(f"coefficient vector longer than degree {self.k}")
        vec.extend([0] * (self.k - len(vec)))
        return GfElement(self, tuple(vec))

    def from_int(self, value: int) -> "GfElement":
        """Element whose coefficient vector is `value` written in base p."""
        if not 0 <= value < self.order:
            raise ValueError(f"value {value} outside [0, {self.order})")
        return GfElement(self, tuple(_digits(value, self.p, self.k)))

    @property
    def zero(self) -> "GfElement":
        return GfElement(self, (0,) * self.k)

    @property
    def one(self) -> "GfElement":
        return GfElement(self, (1,) + (0,) * (self.k - 1))

    def elements(self) -> Iterator["GfElement"]:
        for v in range(self.order):
            yield self.from_int(v)

    def __repr__(self) -> str:
        return f"GfField(GF({self.order}) = GF({self.p}^{self.k}))"


@dataclass(frozen=True)
class GfElement:
    """An element of a GfField, as a coefficient vector (constant term first)."""

    field: GfField
    coeffs: tuple[int, ...]

    def _check(self, other: "GfElement") -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __add__(self, other: "GfElement") -> "GfElement":
        self._check(other)
        p = self.field.p
        return GfElement(self.field,
                         tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "GfElement") -> "GfElement":
        self._check(other)
        p = self.field.p
        return GfElement(self.field,
                         tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "GfElement":
        p = self.field.p
        return GfElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: "GfElement") -> "GfElement":
        self._check(other)
        f = self.field
        return GfElement(f, _mulmod(self.coeffs, other.coeffs, f.modulus_poly, f.p))

    def __pow__(self, exponent: int) -> "GfElement":
        if exponent < 0:
            return self.inv() ** (-exponent)
        f = self.field
        return GfElement(f, _powmod(self.coeffs, exponent, f.modulus_poly, f.p))

    def inv(self) -> "GfElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self ** (self.field.order - 2)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_int(self) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * self.field.p + c
        return value

    def __repr__(self) -> str:
        return f"GfElement({self.to_int()} in GF({self.field.order}))"


def make_field(p: int, k: int = 1) -> GfField:
    """Construct GF(p^k) with the deterministic (smallest) modulus polynomial.

    For k = 1 the stored modulus is the placeholder x; reducing by it does
    nothing, so products are plain integer products mod p.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if not 1 <= k <= MAX_EXTENSION_DEGREE:
        raise DegreeOutOfRangeError(
            f"extension degree {k} outside [1, {MAX_EXTENSION_DEGREE}]")
    order = p**k
    if order > MAX_FIELD_ORDER:
        raise DegreeOutOfRangeError(f"field order {order} exceeds the native cap")
    return GfField(p=p, k=k, modulus_poly=_smallest_irreducible(p, k), order=order)


def element_order(a: GfElement) -> int:
    """Multiplicative order: the least t >= 1 with a^t = 1.  Divides order-1."""
    if a.is_zero():
        raise ZeroDivisionError("the zero element has no multiplicative order")
    n = a.field.order - 1
    if n == 0:
        raise ValueError("trivial group")
    one = a.field.one
    t = n
    for r in factorize(n):
        while t % r == 0 and a ** (t // r) == one:
            t //= r
    return t


def primitive_element(field: GfField) -> GfElement:
    """The least generator of the multiplicative group.

    Elements are scanned in increasing integer encoding; the first with full
    order is returned, so the result is deterministic for a given field.
    """
    n = field.order - 1
    if n == 0:
        raise ValueError("GF(1) does not exist")
    one = field.one
    prime_divisors = list(factorize(n)) if n > 1 else []
    for v in range(1, field.order):
        a = field.from_int(v)
        if any((a ** (n // r)) == one for r in prime_divisors):
            continue
        return a
    raise RuntimeError("no primitive element found (impossible for a field)")
