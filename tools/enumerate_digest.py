"""Print what ``enumerate_all`` lists, to check that a change to the search
keeps every set.

One line per order q = 1..19, 25, 27, 32: q, ``complete``, the number of
sets, the nodes, the seconds of the call and the sha256 of the ``repr`` of
its ``sets``.  The last line is one sha256 over those reprs, in the order of
the lines.  Nodes and seconds may change with the walk; the hashes may not.

Run from the repository root (q = 19 takes most of the time):

    PYTHONPATH=src python3 tools/enumerate_digest.py
"""

import hashlib
import time

from powersum.pds import enumerate_all

ORDERS = (*range(1, 20), 25, 27, 32)


def main() -> None:
    whole = hashlib.sha256()
    for q in ORDERS:
        t0 = time.perf_counter()
        listing = enumerate_all(q)
        seconds = time.perf_counter() - t0
        blob = repr(listing.sets).encode()
        whole.update(blob)
        print(f"q={q} complete={listing.complete} sets={len(listing.sets)} "
              f"nodes={listing.nodes} seconds={seconds:.3f} "
              f"sha256={hashlib.sha256(blob).hexdigest()}", flush=True)
    print(whole.hexdigest())


if __name__ == "__main__":
    main()
