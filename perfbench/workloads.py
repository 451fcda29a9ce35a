"""The three benchmark workloads and the oracle that checks every answer.

Each workload runs one *pass*: a fixed list of operations against the public
API of ``powersum``.  Only the program calls are timed; the oracle checks run
outside the timed region and use functions captured here at import, before a
tracer can wrap anything.  An operation that raises or fails a check counts
as failed and the pass carries on with the next one.

* ``decide``   -- ``feasibility(q)`` for every order q = 2..32 at one budget.
* ``census``   -- find-mode search for q = 2..9, class census by enumeration
  for q = 2..7, and the Singer -> profile -> recovery chain for every prime
  power q <= 32.
* ``optimize`` -- ``minimize`` for n = 3..7 with several restarts per call;
  the only workload that uses the seed.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import powersum as ps  # noqa: E402  (needs the source tree on sys.path)
from powersum.pds import canonical_form as _canonical_form  # noqa: E402
from powersum.pds import verify as _verify  # noqa: E402

# CPU-speed calibration.  The box's speed drifts by tens of percent over
# seconds to minutes, so program time is also reported at a reference speed:
# each stretch of program time between two readings of fixed loops (a
# yardstick), taken in the same process, is scaled by the loops' time on the
# reference box over the mean of those two readings.  Each loop's part of a
# reading is the median of three runs, so one preempted run is ignored.
CAL_EVERY_S = 0.25  # program time between two readings

HIT_TOL = 1e-6
PROFILE_TOL = 1e-9
# Every cyclic projective plane of order <= 32 that exists has prime-power
# order, and orders <= 8 have a single class (the Desarguesian plane).
MAX_KNOWN_ORDER = 32
SINGLE_CLASS_MAX_ORDER = 8

WORKLOADS = ("decide", "census", "optimize")


class OracleError(Exception):
    """A program answer contradicts what is known to be true."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def is_prime_power(n: int) -> bool:
    """Trial division; kept apart from ``powersum.gf`` so the oracle is independent."""
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True


@dataclass(frozen=True)
class Sizes:
    orders: tuple[int, ...]          # decide
    budget: int                      # decide
    search_orders: tuple[int, ...]   # census, exhaustive_search
    enum_orders: tuple[int, ...]     # census, enumerate_all
    singer_orders: tuple[int, ...]   # census, Singer chain
    ns: tuple[int, ...]              # optimize
    restarts: int                    # optimize


def _prime_powers(upto: int) -> tuple[int, ...]:
    return tuple(q for q in range(2, upto + 1) if is_prime_power(q))


SIZES = {
    "full": Sizes(orders=tuple(range(2, 33)), budget=200_000,
                  search_orders=tuple(range(2, 10)),
                  enum_orders=tuple(range(2, 8)),
                  singer_orders=_prime_powers(32),
                  ns=(3, 4, 5, 6, 7), restarts=8),
    # For the benchmark's own tests: every code path, a fraction of a second.
    "tiny": Sizes(orders=tuple(range(2, 13)), budget=2_000,
                  search_orders=tuple(range(2, 7)),
                  enum_orders=tuple(range(2, 7)),
                  singer_orders=_prime_powers(8),
                  ns=(3,), restarts=2),
}


def _python_loop() -> int:
    """Pure-Python work like the search kernel: small ints and a bytearray."""
    marks = bytearray(1024)
    total = 0
    for i in range(28_000):
        j = (i * 7) & 1023
        if marks[j]:
            total += j
        marks[j] ^= 1
    return total


def _numpy_loop() -> float:
    """Small-array numpy work like the optimizer's objective."""
    thetas = np.linspace(0.0, 1.0, 6)
    total = 0.0
    for i in range(150):
        z = np.exp((2j * np.pi) * (thetas + i * 1e-3))
        s = np.cumprod(np.broadcast_to(z, (30, 6)), axis=0).sum(axis=1)
        total += float((s.real * s.real + s.imag * s.imag).max())
    return total


@dataclass(frozen=True)
class Yardstick:
    loops: tuple[Callable[[], object], ...]
    ref_s: float  # the loops' time on the reference box (2 cores, Python 3.11)


# Pure-Python and numpy code speed up and slow down by different amounts, so
# each workload is timed against loops like the code it runs: the search is
# pure Python, the optimizer drives numpy from Python.
PYTHON_YARDSTICK = Yardstick((_python_loop,), 0.005)
MIXED_YARDSTICK = Yardstick((_python_loop, _numpy_loop), 0.0087)


@dataclass
class Tally:
    """Operations attempted and failed, useful outcomes, time spent in
    program calls (raw, and scaled stretch by stretch to the reference speed),
    and yardstick readings taken during one pass."""

    yardstick: Yardstick
    attempted: int = 0
    failed: int = 0
    useful: int = 0
    busy_s: float = 0.0
    ref_s: float = 0.0
    readings_s: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    _since_reading_s: float = 0.0

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            self.busy_s += elapsed
            self._since_reading_s += elapsed

    def read_yardstick(self) -> None:
        """Take a reading and close the stretch of program time since the
        last one, scaled by the mean of the two readings."""
        reading = 0.0
        for loop in self.yardstick.loops:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                loop()
                times.append(time.perf_counter() - t0)
            reading += statistics.median(times)
        if self.readings_s:
            mean = (self.readings_s[-1] + reading) / 2
            self.ref_s += self._since_reading_s * self.yardstick.ref_s / mean
        self.readings_s.append(reading)
        self._since_reading_s = 0.0

    @contextmanager
    def op(self, label: str):
        # Boundary of one operation: any exception, from the program or the
        # oracle, fails this operation only, and the pass goes on.
        if not self.readings_s or self._since_reading_s >= CAL_EVERY_S:
            self.read_yardstick()
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # noqa: BLE001
            self.failed += 1
            self.errors.append(f"{label}: {exc!r}")


def _check_pds(residues, q: int, what: str) -> None:
    check(_verify(residues, q).valid, f"{what} fails verify")


def _same_class(a, b, q: int) -> bool:
    """True when residue sets a and b are equivalent difference sets."""
    m = q * q + q + 1
    target = set(b)
    if any({(x - a[0] + y) % m for x in a} == target for y in b):
        return True
    pa = ps.PerfectDifferenceSet.from_residues(a, q)
    pb = ps.PerfectDifferenceSet.from_residues(b, q)
    return _canonical_form(pa) == _canonical_form(pb)


def decide_pass(tally: Tally, sizes: Sizes, seed: int) -> dict:
    del seed  # the orders and the budget are fixed
    verdicts = []
    for q in sizes.orders:
        with tally.op(f"feasibility({q})"):
            report = tally.call(ps.feasibility, q, search_budget=sizes.budget)
            verdicts.append([q, report.verdict])
            check(report.verdict in ("Exists", "Excluded", "OpenByTheseTests"),
                  f"unknown verdict {report.verdict}")
            if is_prime_power(q):
                check(report.verdict == "Exists", "prime power not Exists")
            if report.verdict == "Exists":
                check(q > MAX_KNOWN_ORDER or is_prime_power(q),
                      "Exists at a non-prime-power order")
                if report.witness is not None:
                    _check_pds(report.witness.residues, q, "witness")
            if report.verdict == "Excluded":
                check(len(report.reasons) > 0, "Excluded without reasons")
            if report.verdict != "OpenByTheseTests":
                tally.useful += 1
    return {"decided": tally.useful, "verdicts": verdicts}


def census_pass(tally: Tally, sizes: Sizes, seed: int) -> dict:
    del seed  # the orders are fixed
    singer_forms = {}
    for q in sizes.singer_orders:
        with tally.op(f"singer-chain({q})"):
            s = tally.call(ps.singer_construct, q)
            _check_pds(s.residues, q, "Singer set")
            form = tally.call(ps.canonical_form, s)
            _check_pds(form.residues, q, "canonical form")
            t = tally.call(ps.fabrykowski_tuple, s)
            profile = tally.call(ps.power_sums, t)
            deviation = max(abs(a - math.sqrt(q)) for a in profile.abs_values)
            check(deviation <= PROFILE_TOL, f"profile deviation {deviation}")
            tally.call(ps.fejer_certificate, t)
            rec = tally.call(ps.recover_structure, t)
            check(rec.status.value == "IsMinimizer", "recovery not IsMinimizer")
            _check_pds(rec.pds.residues, q, "recovered set")
            check(_same_class(s.residues, rec.pds.residues, q),
                  "recovered set is not the Singer class")
            singer_forms[q] = form.residues
            tally.useful += 1
    found = {}
    for q in sizes.search_orders:
        with tally.op(f"exhaustive_search({q})"):
            r = tally.call(ps.exhaustive_search, q)
            found[q] = r.status
            if is_prime_power(q):
                check(r.status == "Found", f"status {r.status}, expected Found")
                _check_pds(r.pds.residues, q, "found set")
            elif q <= MAX_KNOWN_ORDER:
                check(r.status in ("NoneExists", "BudgetExceeded"),
                      f"status {r.status} at a non-prime-power order")
                check(q != 6 or r.status == "NoneExists", "q = 6 not NoneExists")
            tally.useful += 1
    classes = {}
    for q in sizes.enum_orders:
        with tally.op(f"enumerate_all({q})"):
            e = tally.call(ps.enumerate_all, q)
            check(e.complete, "enumeration incomplete")
            for s in e.sets:
                _check_pds(s, q, "enumerated set")
            forms = {tally.call(ps.canonical_form,
                                ps.PerfectDifferenceSet.from_residues(s, q)).residues
                     for s in e.sets}
            classes[q] = len(forms)
            if not is_prime_power(q):
                check(not e.sets, f"{len(e.sets)} sets at a non-prime-power order")
            elif q <= SINGLE_CLASS_MAX_ORDER:
                check(forms == {singer_forms.get(q)},
                      f"{len(forms)} classes, expected the Singer class only")
            tally.useful += 1
    return {"search_status": found, "classes": classes,
                   "singer_orders": sorted(singer_forms)}


def optimize_pass(tally: Tally, sizes: Sizes, seed: int) -> dict:
    per_n = {}
    for n in sizes.ns:
        with tally.op(f"minimize(n={n})"):
            config = ps.OptimizerConfig(n, restarts=sizes.restarts, seed=seed)
            report = tally.call(ps.minimize, config)
            bound = math.sqrt(n - 1)
            values = report.per_restart_values
            check(len(values) == sizes.restarts,
                  f"{len(values)} restart values, expected {sizes.restarts}")
            check(report.best_value == min(values), "best value is not the best restart")
            check(report.best_value >= bound - HIT_TOL, "best value below the bound")
            status = report.recovered.status.value
            if n - 1 <= MAX_KNOWN_ORDER and not is_prime_power(n - 1):
                check(status != "IsMinimizer", "IsMinimizer where no set exists")
            if report.recovered.pds is not None:
                _check_pds(report.recovered.pds.residues, n - 1, "recovered set")
            per_n[n] = {"hits": sum(v <= bound + HIT_TOL for v in values),
                        "best_value": report.best_value, "status": status}
            tally.useful += len(values)
    return {"per_n": per_n,
                   "hits": sum(r["hits"] for r in per_n.values()),
                   "solved": sum(r["status"] == "IsMinimizer"
                                 for n, r in per_n.items() if n <= 6)}


PASSES = {"decide": decide_pass, "census": census_pass, "optimize": optimize_pass}
YARDSTICKS = {"decide": PYTHON_YARDSTICK, "census": PYTHON_YARDSTICK,
              "optimize": MIXED_YARDSTICK}


def run_pass(workload: str, sizes: Sizes, seed: int) -> tuple[Tally, dict]:
    tally = Tally(YARDSTICKS[workload])
    detail = PASSES[workload](tally, sizes, seed)
    tally.read_yardstick()
    return tally, detail
