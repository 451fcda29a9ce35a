"""Pure power sums of unimodular tuples and their structure theory.

For n points z_k = e(theta_k + alpha) on the unit circle (angles in turns,
e(x) = exp(2*pi*i*x)), the profile collects |S(nu)| = |sum_k z_k^nu| for
nu = 1 .. n^2-n.  Two exact facts drive everything here:

* the Fejer-kernel certificate: the weighted sum of the excesses
  eps_nu = |S(nu)|^2 - (n-1) with weights 1 - nu/(n^2-n+1) is nonnegative
  for every tuple, which forces max |S(nu)| >= sqrt(n-1);
* the profile is flat at sqrt(n-1) exactly when the angles sit on the
  rational lattice j/(n^2-n+1) at positions forming a perfect difference
  set; ``fabrykowski_tuple`` builds such tuples and ``recover_structure``
  decides membership and extracts the set.

Only the row sums S(nu) of the nu_max x n matrix of powers z_k^nu are
needed, so the matrix is never built: with b = ceil(sqrt(nu_max)), the
powers z^1 .. z^b and z^0, z^b, z^2b, ... are each one cumulative product,
and one complex matrix product of the two blocks gives every S(j*b + i).
That is O(n * sqrt(nu_max)) memory instead of O(n * nu_max).  It is exact
enough: each product of unit complex numbers adds about one rounding, and a
power reached by the blocks has gone through at most b + nu/b of them,
against nu for the running product z^nu = z^(nu-1) * z, which the polish of
``minimax`` still builds, a stack of power matrices for its gradients, with
the same row kernel, ``_geometric_rows``.

A tuple's profile up to its horizon n^2-n is computed once, on first use,
and kept on the tuple as read-only arrays: ``power_sums``, ``objective``
of ``minimax``, ``fejer_certificate`` and ``recover_structure`` on one
tuple share it.  Any other ``nu_max`` is computed afresh, since the blocks,
and so the roundings, depend on it.  Every profile is checked against
``MAX_PROFILE_POINTS`` and ``MAX_PROFILE_LENGTH`` before an array is made.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import gcd
from typing import Optional

import numpy as np

from .gf import DomainError, checked_int
from .pds import PerfectDifferenceSet

# The blocks of a profile of n points up to nu_max take about
# 32 n sqrt(nu_max) bytes and its rows about 100 bytes each: `powersum
# profile` at both caps peaks near 175 MB in 0.7 s.  A profile up to the
# horizon n^2 - n fits for n <= 316.
MAX_PROFILE_POINTS = 10**4
MAX_PROFILE_LENGTH = 10**5


def _is_real(x) -> bool:
    """A ``numbers.Real`` that is not a bool; numpy's bool is not registered.
    A float is let through first, as the ABC check costs about 1 us."""
    return type(x) is float or not isinstance(x, bool) and isinstance(x, numbers.Real)


def _turns(x) -> float:
    """x mod 1 as a float in [0, 1) for a real number x (``_is_real``), else a
    DomainError.  float(x) % 1.0 rounds a tiny negative x up to 1.0, which
    is stored as 0.0, the same point of the circle."""
    if not _is_real(x):
        raise DomainError(f"angle or phase {x!r} is not a real number")
    try:
        t = float(x) % 1.0
    except OverflowError as exc:  # an int beyond the float range
        raise DomainError("angles and phase must fit in a float") from exc
    return 0.0 if t == 1.0 else t


@dataclass(frozen=True)
class UnimodularTuple:
    """n angles in turns plus a global phase; z_k = e(thetas[k] + alpha_turns).

    Angles are normalized into [0, 1) on construction and must be finite
    real numbers (``_is_real``), else ``DomainError``.
    """

    thetas: tuple[float, ...]
    alpha_turns: float = 0.0

    def __post_init__(self):
        if len(self.thetas) < 2:
            raise DomainError("a tuple needs at least two points")
        object.__setattr__(self, "thetas", tuple(map(_turns, self.thetas)))
        object.__setattr__(self, "alpha_turns", _turns(self.alpha_turns))
        if not all(map(math.isfinite, self.thetas + (self.alpha_turns,))):  # inf % 1.0 is NaN
            raise DomainError("angles and phase must be finite")

    @property
    def n(self) -> int:
        return len(self.thetas)

    @property
    def horizon(self) -> int:
        """Largest exponent of interest, n^2 - n."""
        return self.n * self.n - self.n

    @cached_property
    def _profile(self) -> tuple[np.ndarray, np.ndarray]:
        """|S(nu)| and eps_nu for nu = 1 .. n^2 - n as read-only arrays,
        computed on first use and kept (the tuple is frozen, so they cannot
        go stale); equality, hash and records see only the fields."""
        arrays = _abs_values_and_epsilons(self, self.horizon)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def to_record(self) -> dict:
        return {"n": self.n, "alpha_turns": self.alpha_turns,
                "thetas": list(self.thetas)}

    @staticmethod
    def from_record(record: dict) -> "UnimodularTuple":
        """The tuple of a ``to_record`` record: ``thetas`` a list of numbers and
        ``alpha_turns`` a number (a boolean is not one), else ``DomainError``."""
        thetas, alpha = record.get("thetas"), record.get("alpha_turns", 0.0)
        if type(thetas) is not list or not {type(x) for x in thetas + [alpha]} <= {int, float}:
            raise DomainError(
                "malformed tuple record: 'thetas' must be a list of numbers, 'alpha_turns' a number")
        return UnimodularTuple(thetas=tuple(thetas), alpha_turns=alpha)


@dataclass(frozen=True)
class PowerSumProfile:
    """|S(nu)| and eps_nu = |S(nu)|^2 - (n-1) for nu = 1 .. nu_max."""

    n: int
    m: int  # horizon modulus n^2 - n + 1
    abs_values: tuple[float, ...]
    epsilons: tuple[float, ...]
    max_abs: float


def _geometric_rows(first, ratio: np.ndarray, rows: int) -> np.ndarray:
    """Rows first * ratio^j for j = 0 .. rows-1 along axis -2, for a ratio
    row or for each row of a stack of them, one cumulative product: each row
    is the previous one times ratio, so no trig is evaluated at a large
    argument."""
    out = ratio[..., None, :].repeat(rows, axis=-2)
    out[..., 0, :] = first
    return out.cumprod(axis=-2)


def _power_sums(effective_thetas: np.ndarray, nu_max: int) -> np.ndarray:
    """S(nu) = sum_k z_k^nu for nu = 1 .. nu_max, without the power matrix.

    With b = ceil(sqrt(nu_max)) and nu = j*b + i (i = 1 .. b), S(nu) is the
    entry (j, i) of high @ low.T, where the rows of low are z^1 .. z^b and
    the rows of high are z^0, z^b, z^2b, ...
    """
    z = np.exp((2j * np.pi) * effective_thetas)
    b = math.isqrt(nu_max - 1) + 1
    low = _geometric_rows(z, z, b)
    high = _geometric_rows(1, low[-1], -(-nu_max // b))
    return np.dot(high, low.T).ravel()[:nu_max]


def _check_profile_size(n: int, nu_max: int) -> None:
    """``DomainError`` unless a profile of n points up to nu_max stays within
    MAX_PROFILE_POINTS and MAX_PROFILE_LENGTH; it allocates nothing."""
    if n > MAX_PROFILE_POINTS:
        raise DomainError(f"a profile of {n} points exceeds the cap {MAX_PROFILE_POINTS}")
    if nu_max > MAX_PROFILE_LENGTH:
        raise DomainError(f"a profile up to nu = {nu_max} exceeds the cap {MAX_PROFILE_LENGTH}")


def _abs_values_and_epsilons(t: UnimodularTuple, nu_max: int):
    """|S(nu)| and eps_nu = |S(nu)|^2 - (n-1) for nu = 1 .. nu_max, as arrays."""
    _check_profile_size(t.n, nu_max)
    eff = (np.asarray(t.thetas) + t.alpha_turns) % 1.0
    abs_values = np.abs(_power_sums(eff, nu_max))
    return abs_values, abs_values * abs_values - (t.n - 1)


def power_sums(t: UnimodularTuple, nu_max: Optional[int] = None) -> PowerSumProfile:
    """Profile of |S(nu)| for nu = 1 .. nu_max (default n^2 - n).

    The global phase cancels in every absolute value; it is folded into the
    angles anyway so that the same code path covers regression tests of
    phase invariance.  A nu_max that is not an int >= 1 (``checked_int``) is
    a ``DomainError``.
    """
    n = t.n
    nu_max = t.horizon if nu_max is None else checked_int(nu_max, "nu_max", 1)
    if nu_max == t.horizon:
        abs_values, epsilons = t._profile
    else:
        abs_values, epsilons = _abs_values_and_epsilons(t, nu_max)
    return PowerSumProfile(n=n, m=n * n - n + 1,
                           abs_values=tuple(abs_values.tolist()),
                           epsilons=tuple(epsilons.tolist()),
                           max_abs=float(abs_values.max()))


@dataclass(frozen=True)
class FejerCertificate:
    """The nonnegative weighted excess sum behind the sqrt(n-1) lower bound.

    weighted_sum = sum over nu = 1 .. n^2-n of (1 - nu/m) * eps_nu with
    m = n^2-n+1.  Exact arithmetic gives weighted_sum >= 0 for every tuple;
    the tolerance absorbs floating error only.
    """

    n: int
    m: int
    weighted_sum: float
    max_epsilon: float
    argmax_nu: int
    tolerance: float


def fejer_certificate(t: UnimodularTuple) -> FejerCertificate:
    """Evaluate the certificate; raises if the inequality fails beyond the
    floating tolerance 1e-9 * n^2 (which would mean a numerical defect, not a
    counterexample)."""
    n = t.n
    eps = t._profile[1]
    m = t.horizon + 1
    nus = np.arange(1, m)
    weighted = float(((1.0 - nus / m) * eps).sum())
    tol = 1e-9 * n * n
    if weighted < -tol:
        raise ArithmeticError(
            f"Fejer certificate violated: {weighted} < -{tol}")
    argmax = int(np.argmax(eps)) + 1
    return FejerCertificate(n=n, m=m, weighted_sum=weighted,
                            max_epsilon=float(eps.max()),
                            argmax_nu=argmax, tolerance=tol)


def fabrykowski_tuple(pds: PerfectDifferenceSet,
                      alpha_turns: float = 0.0) -> UnimodularTuple:
    """The lattice tuple theta_k = a_k / m built on a perfect difference set
    of order q = n-1; its power-sum profile is flat at sqrt(q)."""
    m = pds.m
    return UnimodularTuple(thetas=tuple(a / m for a in pds.residues),
                           alpha_turns=alpha_turns)


def exact_abs_squared(pds: PerfectDifferenceSet, nu: int) -> int:
    """|S(nu)|^2 for the lattice tuple, computed exactly as an integer.

    |S(nu)|^2 = n + sum over ordered pairs of e(nu * (a_i - a_j) / m).  The
    multiset nu * {differences} mod m is fully structured: with g = gcd(nu, m)
    it covers 0 exactly g-1 times and each nonzero multiple of g exactly g
    times, so the root-of-unity sum collapses to (g-1) - g = -1 and the value
    is n - 1, an integer with no floating error.  The structure is asserted,
    not assumed.  A nu that is not an int (``checked_int``) in 1 .. m-1 is a
    ``DomainError``.
    """
    m = pds.m
    nu = checked_int(nu, "nu")
    if not 1 <= nu <= m - 1:
        raise DomainError(f"nu = {nu} outside 1 .. {m - 1}")
    counts = [0] * m
    res = pds.residues
    for a in res:
        for b in res:
            if a != b:
                counts[(nu * (a - b)) % m] += 1
    g = gcd(nu, m)
    if counts[0] != g - 1:
        raise ArithmeticError("difference multiset lost its structure at 0")
    for r in range(1, m):
        expected = g if r % g == 0 else 0
        if counts[r] != expected:
            raise ArithmeticError(f"difference multiset lost its structure at {r}")
    n = pds.q + 1
    return n - 1


class RecoveryStatus(Enum):
    IS_MINIMIZER = "IsMinimizer"
    NOT_MINIMIZER = "NotMinimizer"


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of structure recovery from a candidate minimizer.

    ``residual`` is the largest deviation of the shifted angles from the
    nearest lattice rationals j/m; ``profile_deviation`` the largest deviation
    of |S(nu)| from sqrt(n-1).  ``pds`` is present exactly for IsMinimizer and
    then passes verification.
    """

    status: RecoveryStatus
    alpha_turns: float
    pds: Optional[PerfectDifferenceSet]
    residual: float
    profile_deviation: float

    def to_record(self) -> dict:
        return {
            "status": self.status.value,
            "alpha_turns": self.alpha_turns,
            "residual": self.residual,
            "profile_deviation": self.profile_deviation,
            "pds": self.pds.to_record() if self.pds else None,
        }


def _lattice_rounding(thetas: np.ndarray) -> tuple[list[int], float]:
    """The n angles, shifted so the first is 0, rounded onto the grid j/m
    with m = n^2-n+1: the j mod m, and max |shifted - j/m| taken before the
    reduction, since an angle just below 1 lies close to j = m, not to 0."""
    m = thetas.size * (thetas.size - 1) + 1
    scaled = (thetas - thetas[0]) % 1.0 * m
    js = np.rint(scaled)
    return (js.astype(int) % m).tolist(), float(np.abs(scaled - js).max()) / m


def recover_structure(t: UnimodularTuple, tol: float = 1e-6) -> RecoveryResult:
    """Decide whether t is a global minimizer and extract its structure.

    A minimizer has a flat profile |S(nu)| = sqrt(n-1) for nu = 1 .. n^2-n;
    in that case the angles, shifted so the first point sits at phase zero,
    must be rationals j_k/m with m = n^2-n+1 and the j_k a perfect difference
    set of order n-1.  The test snaps the shifted angles to the lattice
    (``_lattice_rounding``, shared with the optimizer's snap), requires the
    snap residual and the profile deviation to be within tol, and builds the
    recovered set, which must pass verification.  tol must be a real number
    (``_is_real``), finite and >= 0, else ``DomainError``; a large one, such
    as 1, is the caller's choice.
    """
    if not (_is_real(tol) and 0 <= tol < math.inf):  # false for NaN as well
        raise DomainError(f"tol must be a finite number >= 0, not {tol!r}")
    n = t.n
    target = math.sqrt(n - 1)
    abs_values = t._profile[0]
    profile_deviation = float(np.abs(abs_values - target).max())

    alpha_recovered = (t.alpha_turns + t.thetas[0]) % 1.0
    snapped, residual = _lattice_rounding(np.asarray(t.thetas))

    if profile_deviation <= tol and residual <= tol:
        try:
            recovered = PerfectDifferenceSet.from_residues(snapped, n - 1)
        except DomainError:
            pass
        else:
            return RecoveryResult(RecoveryStatus.IS_MINIMIZER, alpha_recovered,
                                  recovered, residual, profile_deviation)
    return RecoveryResult(RecoveryStatus.NOT_MINIMIZER, alpha_recovered,
                          None, residual, profile_deviation)
