"""Reference Singer construction for tests of ``powersum.pds.singer_construct``
and of the field work behind it, ``powersum.gf.subfield_recurrence``.

It builds the same plane from the same field and primitive element g, by
direct membership: the point g^i lies on the line spanned by {1, g} over the
subfield GF(q) iff g^i = c0 + c1*g for subfield scalars c0, c1.  It collects
the q^2 elements of that span and walks the m = q^2+q+1 powers of g, one
GF(q^3) multiplication per step.  The recurrence in ``singer_construct`` must
return exactly the residues this returns.

Only the modulus and g, as its integer encoding, come from the library.  The
arithmetic is the slot loop of ``mulmod_oracle`` at that file's own width,
not ``powersum.gf._mulmod``, so a fault in the library's kernel cannot pass
on both sides.
"""

import mulmod_oracle
from powersum.gf import make_field, primitive_element
from powersum.pds import modulus_for_order, prime_power


class SingerField:
    """GF(q^3) = GF(p^(3e)) for q = p^e, its elements packed at the slot
    width of ``mulmod_oracle``; ``g`` is the library's primitive element."""

    def __init__(self, q):
        p, e = prime_power(q)
        self.k = 3 * e
        self.field = make_field(p, self.k)
        self.ring = mulmod_oracle._ring(self.field.modulus_poly, p,
                                        mulmod_oracle._width(p, self.k))
        g = primitive_element(self.field)
        self.g = self.pack([g // p**i % p for i in range(self.k)])

    def pack(self, coeffs):
        """The element with these coefficients, constant term first."""
        return mulmod_oracle._pack(coeffs, self.ring[2])

    def coefficients(self, a):
        return list(mulmod_oracle.coefficients(a, self.ring))

    def add(self, a, b):
        return mulmod_oracle._mulmod(a + b, 1, self.ring)

    def mul(self, a, b):
        return mulmod_oracle._mulmod(a, b, self.ring)

    def power(self, a, e):
        """a^e, e >= 0, by e repeated products."""
        result = 1
        for _ in range(e):
            result = self.mul(result, a)
        return result


def singer_residues(q):
    """Sorted residues i mod q^2+q+1 with g^i on the line spanned by {1, g}."""
    f = SingerField(q)
    g = f.g
    m = modulus_for_order(q)

    # g^0 .. g^m: the walk over the plane, and g^m last.
    powers = [1]
    for _ in range(m):
        powers.append(f.mul(powers[-1], g))

    # The subfield GF(q)* is the unique cyclic subgroup of index m; its
    # generator is g^m.  Collect GF(q) = {0} union powers of g^m.
    sub_gen = powers[m]
    subfield = [0, 1]
    cur = sub_gen
    while cur != 1:
        subfield.append(cur)
        cur = f.mul(cur, sub_gen)
    if len(subfield) != q:
        raise ArithmeticError("subfield reconstruction failed")

    multiples = [f.mul(c1, g) for c1 in subfield]
    span = {f.add(c0, c1g) for c0 in subfield for c1g in multiples}
    if len(span) != q * q:
        raise ArithmeticError("line span has the wrong size")

    return tuple(i for i in range(m) if powers[i] in span)
