"""Power-sum profile tests.

Each derived expectation is recomputed by an independent route: direct
sums of powers, closed forms for regular n-gons, the Fejer certificate's
weighted sum term by term, and float profiles against the exact integer
values.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from powersum import pds as pds_module
from powersum import sums as sums_module
from powersum.pds import PerfectDifferenceSet, singer_construct, canonical_form, prime_power
from powersum.sums import (
    RecoveryStatus,
    UnimodularTuple,
    exact_abs_squared,
    fabrykowski_tuple,
    fejer_certificate,
    power_sums,
    recover_structure,
)
from powersum.gf import DomainError


SINGER_ORDERS = tuple(q for q in range(2, 33) if prime_power(q))


def random_tuple(rng, n, alpha=None):
    alpha = rng.uniform() if alpha is None else alpha
    return UnimodularTuple(tuple(rng.uniform(0, 1, n)), alpha_turns=alpha)


# ---------------------------------------------------------------------------
# power_sums
# ---------------------------------------------------------------------------


def test_regular_3gon_profile():
    t = UnimodularTuple((0.0, 1 / 3, 2 / 3))
    p = power_sums(t, nu_max=3)
    assert p.abs_values[0] == pytest.approx(0.0, abs=1e-12)
    assert p.abs_values[1] == pytest.approx(0.0, abs=1e-12)
    assert p.abs_values[2] == pytest.approx(3.0, abs=1e-12)


def test_coincident_points_profile():
    for n in (2, 4, 6):
        t = UnimodularTuple((0.25,) * n)
        p = power_sums(t)
        assert all(a == pytest.approx(n, abs=1e-10) for a in p.abs_values)


def test_fabrykowski_q2_flat_at_sqrt2():
    t = fabrykowski_tuple(singer_construct(2))
    p = power_sums(t)
    assert len(p.abs_values) == 6
    for a in p.abs_values:
        assert a == pytest.approx(math.sqrt(2), abs=1e-12)


def test_power_sums_against_direct_summation():
    # oracle: evaluate S(nu) = sum exp(2*pi*i*nu*(theta+alpha)) term by term
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        t = random_tuple(rng, n)
        p = power_sums(t)
        for nu in (1, 2, t.horizon):
            direct = abs(sum(cmath.exp(2j * cmath.pi * nu * (th + t.alpha_turns))
                             for th in t.thetas))
            assert p.abs_values[nu - 1] == pytest.approx(direct, abs=1e-10)


def direct_abs_values(t, nu_max):
    # oracle: each S(nu) from exp(2*pi*i*(nu*theta mod 1)), no running products
    eff = (np.asarray(t.thetas) + t.alpha_turns) % 1.0
    nus = np.arange(1, nu_max + 1)[:, None]
    return np.abs(np.exp(2j * np.pi * (nus * eff % 1.0)).sum(axis=1))


@pytest.mark.parametrize("n", (2, 3, 7, 33, 60))
def test_power_sums_at_the_block_edges(n):
    """nu_max on both sides of a square b^2, where the block size
    ceil(sqrt(nu_max)) steps, and at the ends 1, 2 and the horizon."""
    t = random_tuple(np.random.default_rng(n), n)
    b = math.isqrt(t.horizon)
    for nu_max in sorted({1, 2, b * b - 1, b * b, b * b + 1, t.horizon} - {0}):
        p = power_sums(t, nu_max)
        assert len(p.abs_values) == nu_max
        assert np.abs(np.array(p.abs_values) - direct_abs_values(t, nu_max)).max() <= 1e-10


def test_power_sums_does_not_build_the_power_matrix():
    """The nu_max x n matrix of powers at n = 200 is 127 MB of complex
    numbers; the profile itself needs two arrays of 39 800 floats (0.6 MB)."""
    t = random_tuple(np.random.default_rng(200), 200)
    tracemalloc.start()
    try:
        power_sums(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_geometric_rows_of_a_stack_are_the_rows_of_each_ratio_row():
    """A (5, 7) stack of ratio rows gives, to the bit, the running product
    written out here as the reference, and each row's own rows."""
    z = np.exp(2j * np.pi * np.random.default_rng(57).uniform(0, 1, (5, 7)))
    stack = sums_module._geometric_rows(z, z, 9)
    assert stack.shape == (5, 9, 7)
    assert stack.tobytes() == z[..., None, :].repeat(9, axis=-2).cumprod(axis=-2).tobytes()
    for ratio, rows in zip(z, stack):
        assert sums_module._geometric_rows(ratio, ratio, 9).tobytes() == rows.tobytes()


def test_a_profile_past_the_caps_is_a_domain_error():
    wide = UnimodularTuple((0.0,) * (sums_module.MAX_PROFILE_POINTS + 1))
    for profile in (lambda: power_sums(wide, nu_max=1), lambda: fejer_certificate(wide),
                    lambda: recover_structure(wide)):
        with pytest.raises(DomainError, match="^a profile of 10001 points exceeds the cap 10000$"):
            profile()
    t = random_tuple(np.random.default_rng(7), 3)
    length = sums_module.MAX_PROFILE_LENGTH
    assert len(power_sums(t, nu_max=length).abs_values) == length
    with pytest.raises(DomainError, match="^a profile up to nu = 100001 exceeds the cap 100000$"):
        power_sums(t, nu_max=length + 1)


def test_one_tuple_makes_one_profile_for_the_three_sums(monkeypatch):
    calls = []
    inner = sums_module._power_sums

    def counted(thetas, nu_max):
        calls.append(nu_max)
        return inner(thetas, nu_max)

    monkeypatch.setattr(sums_module, "_power_sums", counted)
    t = fabrykowski_tuple(singer_construct(7))
    power_sums(t)
    fejer_certificate(t)
    recover_structure(t)
    power_sums(t, nu_max=t.horizon)
    assert calls == [t.horizon]
    power_sums(t, nu_max=t.n - 1)  # a shorter profile is computed afresh
    assert calls == [t.horizon, t.n - 1]


def test_the_kept_profile_rejects_writes():
    t = fabrykowski_tuple(singer_construct(4))
    profile = power_sums(t)
    for array in (profile.abs_values, profile.epsilons):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_the_horizon_profile_is_the_kept_object_and_every_profile_is_read_only():
    t = random_tuple(np.random.default_rng(71), 6)
    kept = power_sums(t)
    assert power_sums(t) is kept and power_sums(t, nu_max=t.horizon) is kept
    shorter = power_sums(t, nu_max=5)
    assert power_sums(t, nu_max=5) is not shorter
    # profiles compare by identity: a generated == over arrays would raise
    assert kept == kept and shorter != power_sums(t, nu_max=5)
    for profile in (kept, shorter):
        for array in (profile.abs_values, profile.epsilons):
            assert array.dtype == np.float64 and not array.flags.writeable


def test_a_repeat_profile_at_316_points_copies_nothing():
    """At n = 316 the horizon profile is two arrays of 99 540 floats; a
    repeat call returns the kept object and copies none of them."""
    t = random_tuple(np.random.default_rng(316), 316)
    power_sums(t)
    tracemalloc.start()
    try:
        power_sums(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_a_kept_profile_leaves_equality_hash_and_record_alone():
    rng = np.random.default_rng(61)
    t = random_tuple(rng, 6)
    twin = UnimodularTuple(t.thetas, t.alpha_turns)
    before = (hash(t), repr(t), t.to_record())
    fejer_certificate(t)
    assert "_profile" in vars(t) and "_profile" not in vars(twin)
    assert t == twin and (hash(t), repr(t), t.to_record()) == before
    assert hash(twin) == hash(t)
    assert UnimodularTuple.from_record(t.to_record()) == t


def test_profiles_at_any_nu_max_have_the_bits_of_a_fresh_computation():
    rng = np.random.default_rng(67)
    for n in (2, 3, 5, 8):
        t = random_tuple(rng, n)
        eff = (np.asarray(t.thetas) + t.alpha_turns) % 1.0
        power_sums(t)  # the horizon profile is now kept
        for nu_max in sorted({1, n - 1, t.horizon - 1, t.horizon, t.horizon + 3} - {0}):
            direct = np.abs(sums_module._power_sums(eff, nu_max))
            profile = power_sums(t, nu_max=nu_max)
            assert profile.abs_values.tobytes() == direct.tobytes(), (n, nu_max)
            assert profile.epsilons.tobytes() == (direct * direct - (n - 1)).tobytes()
            assert profile.max_abs == float(direct.max())


def test_profile_phase_invariance():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        thetas = tuple(rng.uniform(0, 1, n))
        a = power_sums(UnimodularTuple(thetas, alpha_turns=0.0))
        b = power_sums(UnimodularTuple(thetas, alpha_turns=rng.uniform()))
        assert max(abs(x - y) for x, y in zip(a.abs_values, b.abs_values)) <= 1e-12


def test_profile_fields_consistent():
    rng = np.random.default_rng(17)
    t = random_tuple(rng, 5)
    p = power_sums(t)
    assert p.m == 21 and p.n == 5
    assert p.max_abs == max(p.abs_values)
    assert p.abs_values.dtype == p.epsilons.dtype == np.float64
    assert len(p.abs_values) == len(p.epsilons) == 20
    for a, e in zip(p.abs_values, p.epsilons):
        assert e == pytest.approx(a * a - 4, abs=1e-9)
        assert a >= 0.0


# ---------------------------------------------------------------------------
# fejer_certificate
# ---------------------------------------------------------------------------


def test_certificate_nonnegative_on_random_tuples():
    rng = np.random.default_rng(31)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        cert = fejer_certificate(random_tuple(rng, n))
        assert cert.weighted_sum >= -cert.tolerance
        # the certificate is exactly the lower-bound mechanism
        assert cert.max_epsilon >= -cert.tolerance


def test_certificate_on_fabrykowski_is_zero():
    for q in SINGER_ORDERS:
        cert = fejer_certificate(fabrykowski_tuple(singer_construct(q)))
        assert cert.weighted_sum == pytest.approx(0.0, abs=cert.tolerance)
        assert cert.max_epsilon == pytest.approx(0.0, abs=1e-9)


def test_certificate_on_regular_ngon_matches_closed_form():
    # n-gon: S(nu) = 0 unless n | nu, where |S| = n.  So eps is -(n-1) off the
    # multiples of n and n^2-(n-1) on them; the weighted sum stays >= 0.
    for n in (3, 4, 5):
        t = UnimodularTuple(tuple(k / n for k in range(n)))
        prof = power_sums(t)
        m = prof.m
        expected = 0.0
        for nu in range(1, n * n - n + 1):
            eps = n * n - (n - 1) if nu % n == 0 else -(n - 1)
            assert prof.epsilons[nu - 1] == pytest.approx(eps, abs=1e-8)
            expected += (1 - nu / m) * eps
        cert = fejer_certificate(t)
        assert cert.weighted_sum == pytest.approx(expected, abs=1e-8)
        assert cert.weighted_sum >= 0.0


# ---------------------------------------------------------------------------
# fabrykowski_tuple / exact_abs_squared
# ---------------------------------------------------------------------------


def test_fabrykowski_angles():
    t = fabrykowski_tuple(PerfectDifferenceSet.from_residues((0, 1, 3), 2))
    assert t.thetas == (0.0, 1 / 7, 3 / 7)
    small = fabrykowski_tuple(PerfectDifferenceSet.from_residues((0, 1), 1))
    assert small.thetas == (0.0, 1 / 3)
    p = power_sums(small)
    assert all(a == pytest.approx(1.0, abs=1e-12) for a in p.abs_values)


def test_fabrykowski_rejects_invalid_set():
    with pytest.raises(DomainError, match="^not a perfect difference set: "):
        fabrykowski_tuple(PerfectDifferenceSet.from_residues((0, 1, 2), 2))


@pytest.mark.parametrize("entry", [canonical_form, fabrykowski_tuple,
                                   lambda d: exact_abs_squared(d, 1)],
                         ids=["canonical_form", "fabrykowski_tuple", "exact_abs_squared"])
def test_a_modulus_other_than_q2_q_1_is_rejected(entry):
    # (0, 1, 3) is a valid set of order 2, but only modulo 7.
    with pytest.raises(DomainError, match=r"^modulus 8 is not q\^2\+q\+1 = 7 for q = 2$"):
        entry(PerfectDifferenceSet(q=2, m=8, residues=(0, 1, 3)))


def test_fabrykowski_alpha_invariance():
    d = singer_construct(3)
    base = power_sums(fabrykowski_tuple(d, 0.0)).max_abs
    for alpha in (0.1, 0.5, 0.925):
        assert power_sums(fabrykowski_tuple(d, alpha)).max_abs == pytest.approx(
            base, abs=1e-12)


def test_exact_abs_squared_examples():
    d2 = PerfectDifferenceSet.from_residues((0, 1, 3), 2)
    assert exact_abs_squared(d2, 1) == 2
    assert exact_abs_squared(d2, 6) == 2
    d1 = PerfectDifferenceSet.from_residues((0, 1), 1)
    assert exact_abs_squared(d1, 2) == 1


def test_exact_abs_squared_range_and_validity_errors():
    d2 = PerfectDifferenceSet.from_residues((0, 1, 3), 2)
    with pytest.raises(DomainError, match=r"^nu = 0 outside 1 \.\. 6$"):
        exact_abs_squared(d2, 0)
    with pytest.raises(DomainError, match=r"^nu = 7 outside 1 \.\. 6$"):
        exact_abs_squared(d2, 7)
    with pytest.raises(DomainError, match="^not a perfect difference set: "):
        exact_abs_squared(PerfectDifferenceSet.from_residues((0, 1, 2), 2), 1)


def test_exact_abs_squared_matches_float_profile():
    for q in (2, 3, 4, 5, 7, 8, 9):
        d = singer_construct(q)
        t = fabrykowski_tuple(d)
        profile = power_sums(t, nu_max=d.m - 1)
        for nu in range(1, d.m):
            exact = exact_abs_squared(d, nu)
            assert exact == q
            float_sq = profile.abs_values[nu - 1] ** 2
            assert float_sq == pytest.approx(exact, abs=1e-9)


# ---------------------------------------------------------------------------
# recover_structure
# ---------------------------------------------------------------------------


def test_recovery_round_trip_with_phase():
    d = singer_construct(2)
    rec = recover_structure(fabrykowski_tuple(d, alpha_turns=0.2931))
    assert rec.status is RecoveryStatus.IS_MINIMIZER
    assert rec.pds is not None
    assert canonical_form(rec.pds).residues == canonical_form(d).residues
    assert rec.residual <= 1e-9


def test_recovery_rejects_regular_ngon():
    for n in (3, 4, 5):
        t = UnimodularTuple(tuple(k / n for k in range(n)))
        rec = recover_structure(t)
        assert rec.status is RecoveryStatus.NOT_MINIMIZER
        assert rec.pds is None


def test_recovery_rejects_perturbed_lattice():
    d = singer_construct(2)
    base = fabrykowski_tuple(d, alpha_turns=0.4)
    for k in range(base.n):
        thetas = list(base.thetas)
        thetas[k] = (thetas[k] + 1e-3) % 1.0
        rec = recover_structure(UnimodularTuple(tuple(thetas), base.alpha_turns))
        assert rec.status is RecoveryStatus.NOT_MINIMIZER


def test_recovery_round_trip_small_orders():
    rng = np.random.default_rng(53)
    for q in (2, 3, 4, 5):
        d = singer_construct(q)
        target = canonical_form(d).residues
        for _ in range(5):
            alpha = float(rng.uniform())
            rec = recover_structure(fabrykowski_tuple(d, alpha))
            assert rec.status is RecoveryStatus.IS_MINIMIZER
            assert canonical_form(rec.pds).residues == target


@pytest.mark.parametrize("q", SINGER_ORDERS)
def test_recovery_at_a_tight_tol_on_every_singer_order(q):
    rec = recover_structure(fabrykowski_tuple(singer_construct(q)), tol=1e-9)
    assert rec.status is RecoveryStatus.IS_MINIMIZER
    assert rec.profile_deviation <= 1e-9


def test_recovery_of_a_set_that_fails_verify_is_not_a_minimizer(monkeypatch):
    t = fabrykowski_tuple(singer_construct(3))
    monkeypatch.setattr(
        pds_module, "verify",
        lambda candidate, q: pds_module.Verification(False, "difference-covered-twice", 1))
    rec = recover_structure(t)
    assert rec.status is RecoveryStatus.NOT_MINIMIZER
    assert rec.pds is None


def test_the_singer_chain_verifies_twice(monkeypatch):
    # once when singer_construct builds the set and once when
    # recover_structure builds the recovered one; nothing in between
    calls = []
    verify = pds_module.verify

    def counted(*args):
        calls.append(args)
        return verify(*args)

    for module in (pds_module, sums_module):  # each module that may hold it
        if hasattr(module, "verify"):
            monkeypatch.setattr(module, "verify", counted)
    d = singer_construct(31)
    canonical_form(d)
    t = fabrykowski_tuple(d)
    assert exact_abs_squared(d, 1) == 31
    assert recover_structure(t).status is RecoveryStatus.IS_MINIMIZER
    assert len(calls) == 2


def test_recovery_translated_set_same_class():
    # starting the lattice at a nonzero residue only changes the phase
    d = PerfectDifferenceSet.from_residues((1, 2, 4), 2)
    rec = recover_structure(fabrykowski_tuple(d, alpha_turns=0.0))
    assert rec.status is RecoveryStatus.IS_MINIMIZER
    assert canonical_form(rec.pds).residues == (0, 1, 3)
    assert rec.alpha_turns == pytest.approx(1 / 7)


def test_rigidity_on_lattice_tuples():
    # if the max is within 1e-9 of sqrt(n-1), the min is equally flat
    for q in (2, 3, 4, 5, 7, 8, 9):
        t = fabrykowski_tuple(singer_construct(q))
        p = power_sums(t)
        target = math.sqrt(q)
        assert p.max_abs <= target + 1e-9
        assert min(p.abs_values) >= target - 1e-4


def test_lower_bound_on_random_sample():
    rng = np.random.default_rng(59)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        t = random_tuple(rng, n)
        assert power_sums(t).max_abs >= math.sqrt(n - 1) - 1e-9


def test_tuple_record_round_trip():
    t = UnimodularTuple((0.125, 0.5, 0.8), alpha_turns=0.25)
    rec = t.to_record()
    assert rec == {"n": 3, "alpha_turns": 0.25, "thetas": [0.125, 0.5, 0.8]}
    assert UnimodularTuple.from_record(rec) == t


@pytest.mark.parametrize("record", ({"thetas": "05"}, {"thetas": {"0.1": 1, "0.5": 2}},
                                    {"thetas": [True, 0.5]}, {"thetas": [[0.1], 0.5]},
                                    {"thetas": [None, 0.5]}, {"thetas": 5},
                                    {"thetas": [0.1, 0.5], "alpha_turns": False},
                                    {"thetas": [0.1, 0.5], "alpha_turns": "0.2"}))
def test_tuple_record_fields_must_be_numbers(record):
    with pytest.raises(DomainError, match="^malformed tuple record: 'thetas' must be a"):
        UnimodularTuple.from_record(record)


@pytest.mark.parametrize("tol", (math.nan, math.inf, -math.inf, -1.0, -1e-300))
def test_recover_structure_rejects_a_tol_that_is_not_finite_and_at_least_zero(tol):
    with pytest.raises(DomainError, match="tol must be a finite number >= 0"):
        recover_structure(UnimodularTuple((0.0, 0.16, 0.41)), tol=tol)


def test_recover_structure_accepts_any_finite_tol_at_least_zero():
    t = UnimodularTuple((0.0, 0.16, 0.41))  # profile deviation 0.94
    assert recover_structure(t, tol=1.0).status is RecoveryStatus.IS_MINIMIZER
    assert recover_structure(t, tol=0.0).status is RecoveryStatus.NOT_MINIMIZER


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_tuple_rejects_non_finite_angles_and_phase(bad):
    with pytest.raises(DomainError, match="^angles and phase must be finite$"):
        UnimodularTuple((0.1, bad))
    with pytest.raises(DomainError, match="^angles and phase must be finite$"):
        UnimodularTuple((0.1, 0.2), alpha_turns=bad)


@pytest.mark.parametrize("big", (10**400, -(10**400)))
def test_tuple_rejects_angles_and_phase_beyond_the_float_range(big):
    with pytest.raises(DomainError, match="^angles and phase must fit in a float$"):
        UnimodularTuple((0.1, big))
    with pytest.raises(DomainError, match="^angles and phase must fit in a float$"):
        UnimodularTuple((0.1, 0.2), alpha_turns=big)


def test_tuple_angles_and_phase_stay_in_the_unit_interval():
    # float(x) % 1.0 is 1.0 for a negative x of magnitude at most 2^-54.
    assert -1e-20 % 1.0 == 1.0
    t = UnimodularTuple((-1e-20, 0.5, -2.0**-60, -0.0), alpha_turns=-1e-20)
    assert t.thetas == (0.0, 0.5, 0.0, 0.0)
    assert t.alpha_turns == 0.0
    # Every other angle keeps the bits of float(x) % 1.0.
    for x in (-1e-20, -5.551115123125783e-17, -0.25, -1.0, 1.0, 2.5, 0.9999999999999999, 10**20):
        theta = UnimodularTuple((x, 0.0)).thetas[0]
        alpha = UnimodularTuple((0.0, 0.0), alpha_turns=x).alpha_turns
        reduced = float(x) % 1.0
        assert theta == alpha == (0.0 if reduced == 1.0 else reduced), x
        assert 0.0 <= theta < 1.0, x


# ---------------------------------------------------------------------------
# lattice rounding, shared by recover_structure and the optimizer's snap
# ---------------------------------------------------------------------------


def _former_roundings(thetas):
    """The two roundings onto j/m the library had before it shared one: the
    optimizer's j list (numpy), and recover_structure's j list and residual
    (Python floats, residual taken before reducing j)."""
    n = len(thetas)
    m = n * n - n + 1
    optimizer_js = (np.rint((thetas - thetas[0]) % 1.0 * m).astype(int) % m).tolist()
    shifted = [(float(theta) - float(thetas[0])) % 1.0 for theta in thetas]
    snapped = [round(ps * m) for ps in shifted]
    residual = max(abs(ps * m - j) for ps, j in zip(shifted, snapped)) / m
    return optimizer_js, [j % m for j in snapped], residual


def _rounding_cases():
    rng = np.random.default_rng(1501)
    for n in range(2, 10):
        m = n * n - n + 1
        for _ in range(20):
            yield "random", rng.uniform(0.0, 1.0, n)
        for _ in range(5):
            yield "lattice", (rng.integers(0, m, n) / m + rng.uniform()) % 1.0
            yield "tie", np.concatenate(([0.0], (rng.integers(0, m, n - 1) + 0.5) / m))
    for first in (0.0, 0.3, 0.999):
        below = (first - 1e-12) % 1.0  # lands 1e-12 below 1 after the shift
        yield "wrap", np.array([first, below, (first + 3 / 7) % 1.0])


def test_lattice_rounding_matches_both_former_roundings():
    ties = 0
    for kind, thetas in _rounding_cases():
        js, residual = sums_module._lattice_rounding(thetas)
        optimizer_js, recovered_js, former_residual = _former_roundings(thetas)
        assert js == optimizer_js == recovered_js, (kind, thetas)
        assert residual == former_residual, (kind, thetas)
        m = thetas.size * (thetas.size - 1) + 1
        ties += int(((thetas - thetas[0]) % 1.0 * m % 1.0 == 0.5).sum())
        if kind == "wrap":
            assert js[1] == 0 and residual < 1e-9
    assert ties > 100  # the half-grid cases really tie

