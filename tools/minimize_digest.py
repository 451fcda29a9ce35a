"""Print one sha256 over the optimizer's outputs, to check that a change
to ``powersum.minimax`` keeps every bit.

For each cell (n, restarts, seed), n-major, then restarts, then seed, the
hash takes the JSON of ``minimize(...).to_record()`` with sorted keys, then
the ``repr`` of the ``float.hex`` list of the restart values, then that of
the best tuple's angles.  The cells are n = 2..14 x restarts {1, 3, 8, 50}
x seeds {0, 1, 7, 42, 2721, 123456789}, except that 50 restarts at
n >= 10 run seeds 0 and 7 only.  The outputs have not changed since the
restarts were first polished in lockstep, and the digest then read
3c923d877df1f84961d87a22ac5ce5d25454081540608168b903b27d917511ef.

Run from the repository root, in about 20 s on two cores:

    PYTHONPATH=src python3 tools/minimize_digest.py
"""

import hashlib
import json

from powersum.minimax import OptimizerConfig, minimize

SEEDS = (0, 1, 7, 42, 2721, 123456789)


def cells():
    for n in range(2, 15):
        for restarts in (1, 3, 8, 50):
            for seed in SEEDS:
                if restarts < 50 or n < 10 or seed in (0, 7):
                    yield n, restarts, seed


def digest(cells) -> str:
    h = hashlib.sha256()
    for n, restarts, seed in cells:
        report = minimize(OptimizerConfig(n, restarts=restarts, seed=seed))
        h.update(json.dumps(report.to_record(), sort_keys=True).encode())
        h.update(repr([v.hex() for v in report.per_restart_values]).encode())
        h.update(repr([x.hex() for x in report.best_tuple.thetas]).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(cells()))
