"""Print one sha256 over the power-sum profiles and what is read off them,
to check that a change to ``powersum.sums`` keeps every bit.

The tuples are the 18 Fabrykowski tuples of the Singer sets of order
q <= 32, each at phases 0 and 0.37, then three seeded tuples for each
n = 2..40, whose n angles and phase are the n + 1 draws of
``minimax._uniform_angles([n, k], n + 1)`` for k = 0, 1, 2.  For each tuple
the hash takes one line per output, each ending in a newline: the
``float.hex`` lists of ``abs_values`` and ``epsilons`` and the hex of
``max_abs`` of ``power_sums`` at the horizon and at nu_max = 1, n - 1 and
horizon + 3; the hex of ``objective``; every field of
``fejer_certificate``; and the JSON of ``recover_structure(...).to_record()``
with sorted keys and every float as hex.  A profile's arrays may be
tuples of floats or float64 arrays: both hash alike.  The digest read
a63b48d56c591bcb33db10bc72233ae6cfc2c446c70105f98d2651ececfe1a11 both
before and after ``power_sums`` began to return the profile kept on the
tuple, as read-only arrays.

Run from the repository root, in well under a second:

    PYTHONPATH=src python3 tools/profile_digest.py
"""

import dataclasses
import hashlib
import json

from powersum.gf import prime_power
from powersum.minimax import _uniform_angles, objective
from powersum.pds import singer_construct
from powersum.sums import (UnimodularTuple, fabrykowski_tuple, fejer_certificate,
                           power_sums, recover_structure)


def tuples():
    for q in range(2, 33):
        if prime_power(q):
            for alpha in (0.0, 0.37):
                yield fabrykowski_tuple(singer_construct(q), alpha)
    for n in range(2, 41):
        for k in range(3):
            *thetas, alpha = _uniform_angles([n, k], n + 1)
            yield UnimodularTuple(tuple(thetas), alpha)


def hexed(value):
    """value with every float, in lists and dicts too, as its ``float.hex``."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value


def lines():
    for t in tuples():
        for nu_max in (None, 1, t.n - 1, t.horizon + 3):
            profile = power_sums(t, nu_max)
            yield repr([float.hex(x) for x in profile.abs_values])
            yield repr([float.hex(x) for x in profile.epsilons])
            yield float.hex(profile.max_abs)
        yield float.hex(objective(t))
        certificate = fejer_certificate(t)
        yield repr([hexed(getattr(certificate, field.name))
                    for field in dataclasses.fields(certificate)])
        yield json.dumps(hexed(recover_structure(t).to_record()), sort_keys=True)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(lines()))
