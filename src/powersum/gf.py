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
passes: reduced a and b; b a sum of two reduced elements; b = p - 1; or
b = 1 and a a sum of two reduced elements, or of three when k >= 2
(``_mulmod(a, 1, ring)`` reduces a alone).  With b a sum of two, a slot of
c is at most 2k(p-1)^2, a slot of c's top k - 1 slots times mu at most
(k-1)*k*(p-1)^3, and a slot of c + q*g below x^k at most (3k-1)*(p-1)^2;
reduced operands reach half the second bound and (2k-1)*(p-1)^2.  ``_ring``
precomputes mu, g, M and P once per modulus.

One multiply-mod (``_mulmod``) and one power (``_powmod``) serve both the
field elements and the field set-up, which works on packed ints and makes a
``GfElement`` only for what it returns; ``_mulmod`` is the one kernel that
reduces packed polynomials.  Euclid's algorithm divides by a new polynomial
at each step, which a precomputed ring does not serve, so ``_poly_gcd``
works on coefficient lists.  Set-up is most of the cost of a Singer
difference set, so it is kept to few multiply-mods: ``is_irreducible``
finds linear factors by evaluation at the points of a small GF(p) and the
others with one gcd, and ``primitive_element`` settles the primes of p - 1
through a candidate's norm to GF(p).  The modulus search takes its
candidates in blocks of p that differ only in the constant term; one
evaluation per point of a small GF(p) crosses off the candidate of the block
with a root there (``_rooted_constants``, which ``is_irreducible`` calls
too), so only root-free candidates reach Ben-Or's test.

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


# Past the exact Miller-Rabin range, and for the cofactors that
# ``pds.is_sum_of_two_squares`` settles, trial division stops at this bound:
# at most about 0.1 s of divisions.
TRIAL_DIVISION_BOUND = 10**6


def is_prime(n: int) -> bool:
    """Exact primality: a deterministic Miller-Rabin test below
    ``_MILLER_RABIN_EXACT_BELOW``.  At or above it a factor up to
    ``TRIAL_DIVISION_BOUND`` settles False, and any other n is a
    ``DomainError`` naming the bound, never a guess and never a long loop."""
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    if n >= _MILLER_RABIN_EXACT_BELOW:
        if any(n % f == 0 for f in range(41, TRIAL_DIVISION_BOUND + 1, 2)):
            return False  # the bases took every factor below 41
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

    `poly` is a monic coefficient list, constant term first; p must be a
    prime and poly monic and nonconstant, else ``DomainError``.  A poly with
    a root that ``_rooted_constants`` finds is reducible, and the rest go on
    to ``_ben_or``.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise DomainError(f"{p} is not prime")
    mod = [c % p for c in poly]
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
        return _ring(self.modulus_poly, self.p)

    def element(self, coeffs) -> "GfElement":
        """Build an element from any iterable of integers (reduced mod p)."""
        vec = [c % self.p for c in coeffs]
        if len(vec) > self.k:
            raise DomainError(f"coefficient vector longer than degree {self.k}")
        return GfElement(self, _pack(vec, self._quotient[-1]))

    def from_int(self, value: int) -> "GfElement":
        """Element whose coefficient vector is `value` written in base p."""
        if not 0 <= value < self.order:
            raise DomainError(f"value {value} outside [0, {self.order})")
        return GfElement(self, _pack_digits(value, self.p, self._quotient[-1]))

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
        return tuple(_unpack(self.packed, self.field.k, self.field._quotient[-1]))

    def _check(self, other: "GfElement") -> None:
        if self.field is not other.field and self.field != other.field:
            raise DomainError(f"elements of different fields: {self.field} vs {other.field}")

    def __add__(self, other: "GfElement") -> "GfElement":
        self._check(other)
        # A slot of the sum is at most 2(p - 1), which _mulmod reduces alone.
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
            return GfElement(field, a)
    raise RuntimeError("no primitive element found (impossible for a field)")
