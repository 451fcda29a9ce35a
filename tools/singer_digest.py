"""Print one sha256 over the Singer sets and the fields behind them, to check
that a change to ``powersum.gf`` or to ``singer_construct`` keeps every
output.

The hash takes one line per output, each ending in a newline: first
``repr(singer_construct(q).residues)`` for every prime power q <= 32, in
increasing q; then ``repr((p, k, modulus_poly, primitive_element))`` for
every prime p < 100 and every k <= 15 with p^k <= 10^6, p-major.  That is
18 + 114 = 132 lines, with characteristics on both sides of
``gf._ROOT_SCAN_MAX_P``.  The digest read
d7771c726acabd7542d266ca651738f21a183c32b58a123b00e41463c0cc8f26 both
before and after Singer's field work moved behind
``gf.subfield_recurrence``.

Run from the repository root, in well under a second:

    PYTHONPATH=src python3 tools/singer_digest.py
"""

import hashlib

from powersum.gf import is_prime, make_field, prime_power, primitive_element
from powersum.pds import singer_construct


def lines():
    for q in range(2, 33):
        if prime_power(q):
            yield repr(singer_construct(q).residues)
    for p in filter(is_prime, range(100)):
        for k in range(1, 16):
            if p**k <= 10**6:
                field = make_field(p, k)
                yield repr((p, k, field.modulus_poly, primitive_element(field)))


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(lines()))
