"""Reference Singer construction for tests of ``powersum.pds.singer_construct``.

It builds the same plane from the same field and primitive element g, by
direct membership: the point g^i lies on the line spanned by {1, g} over the
subfield GF(q) iff g^i = c0 + c1*g for subfield scalars c0, c1.  It collects
the q^2 elements of that span and walks the m = q^2+q+1 powers of g, one
GF(q^3) multiplication per step.  The recurrence in ``singer_construct`` must
return exactly the residues this returns.
"""

from powersum.gf import make_field, primitive_element
from powersum.pds import modulus_for_order, prime_power


def singer_residues(q):
    """Sorted residues i mod q^2+q+1 with g^i on the line spanned by {1, g}."""
    p, e = prime_power(q)
    field = make_field(p, 3 * e)
    g = primitive_element(field)
    m = modulus_for_order(q)

    # The subfield GF(q)* is the unique cyclic subgroup of index m; its
    # generator is g^m.  Collect GF(q) = {0} union powers of g^m.
    sub_gen = g**m
    subfield = [field.zero, field.one]
    cur = sub_gen
    while cur != field.one:
        subfield.append(cur)
        cur = cur * sub_gen
    if len(subfield) != q:
        raise ArithmeticError("subfield reconstruction failed")

    span = {c0 + c1 * g for c0 in subfield for c1 in subfield}
    if len(span) != q * q:
        raise ArithmeticError("line span has the wrong size")

    residues = []
    cur = field.one
    for i in range(m):
        if cur in span:
            residues.append(i)
        cur = cur * g
    return tuple(residues)
