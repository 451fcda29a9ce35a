"""Reference multiply-mod for tests of ``powersum.gf._mulmod``: the slot loop
it replaced.

A polynomial over GF(p) is packed into one int, coefficient i in the bit
slot [i*B, (i+1)*B), with B = ((2k-1) * (p-1)^2).bit_length().  Each slot
of the product from its top down to slot k is cleared and its value mod p,
times x^k - mod, added k slots lower; then the k low slots are taken mod p.
Every function is kept as it was.  ``powersum.gf._mulmod`` packs into wider
slots, so the two are compared on coefficient vectors: for the same
operands they must give the same coefficients.
"""


def _width(p, k):
    """Slot width B for products modulo a degree-k polynomial over GF(p)."""
    return ((2 * k - 1) * (p - 1) ** 2).bit_length()


def _pack(coeffs, width):
    value = 0
    for c in reversed(coeffs):
        value = value << width | c
    return value


def _ring(mod, p, width):
    """(p, the packed x^k - mod, the slot width, k * width, the shifts of the
    slots 0 .. k-1, the mask of one slot) for the monic mod of degree k."""
    kw = (len(mod) - 1) * width
    return (p, _pack([-c % p for c in mod[:-1]], width), width, kw, range(0, kw, width),
            (1 << width) - 1)


def _mulmod(a, b, ring):
    """a * b modulo the ring's modulus, every coefficient in [0, p); b = 1
    reduces a alone."""
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


def coefficients(packed, ring):
    """The coefficient vector, constant term first, of a reduced packed int."""
    *_, low, mask = ring
    return tuple(packed >> s & mask for s in low)
