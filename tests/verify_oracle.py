"""Reference ``verify`` for tests of ``powersum.pds.verify``.

The check as it was before its inner loop over (d, m - d) was unrolled into
two tests of the bytearray: the same sorted scan of pairs, the positive
difference before its negative.  ``powersum.pds.verify`` must return the
same ``(valid, reason, witness)`` on every input.
"""

from powersum.pds import modulus_for_order


def verify(candidate, q):
    """(valid, reason, witness) for q+1 distinct residues mod q^2+q+1 whose
    differences cover each nonzero residue exactly once."""
    m = modulus_for_order(q)
    res = sorted(x % m for x in candidate)
    for i in range(1, len(res)):
        if res[i] == res[i - 1]:
            return False, "duplicate-residue", res[i]
    if len(res) != q + 1:
        return False, "wrong-size", None
    covered = bytearray(m)
    for i in range(len(res)):
        for j in range(i):
            d = res[i] - res[j]
            for w in (d, m - d):
                if covered[w]:
                    return False, "difference-covered-twice", w
                covered[w] = 1
    return True, None, None
