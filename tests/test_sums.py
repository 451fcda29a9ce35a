"""Power-sum profile tests.

Each derived expectation is recomputed by an independent route: polynomial
expansion for Newton-Girard, the defining trigonometric sum for the Fejer
kernel, sorted-gap geometry for n-gon detection, and float profiles against
the exact integer values.
"""

import cmath
import math
from collections import Counter

import numpy as np
import pytest

from powersum import pds as pds_module
from powersum import sums as sums_module
from powersum.pds import PerfectDifferenceSet, singer_construct, canonical_form
from powersum.sums import (
    DifferenceSpectrum,
    NuOutOfRangeError,
    RecoveryStatus,
    UnimodularTuple,
    difference_spectrum,
    exact_abs_squared,
    fabrykowski_tuple,
    fejer_certificate,
    fejer_kernel,
    is_regular_ngon,
    newton_girard_coeffs,
    power_sums,
    recover_structure,
)
from powersum.pds import InvalidPdsError


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
    assert all(type(x) is float for x in p.abs_values + p.epsilons)
    for a, e in zip(p.abs_values, p.epsilons):
        assert e == pytest.approx(a * a - 4, abs=1e-9)
        assert a >= 0.0


# ---------------------------------------------------------------------------
# fejer_kernel / fejer_certificate
# ---------------------------------------------------------------------------


def fejer_by_definition(m, t):
    # oracle: the defining sum over nu = 1-m .. m-1 of (1-|nu|/m) e(nu t)
    total = sum((1 - abs(nu) / m) * cmath.exp(2j * cmath.pi * nu * t)
                for nu in range(1 - m, m))
    assert abs(total.imag) < 1e-9
    return total.real


def test_fejer_kernel_examples():
    for m in (1, 2, 5, 43):
        assert fejer_kernel(m, 0.0) == float(m)
        assert fejer_kernel(m, 3.0) == float(m)  # periodic, integer t
    assert fejer_kernel(2, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_fejer_kernel_matches_defining_sum():
    rng = np.random.default_rng(23)
    for m in (2, 3, 7, 12):
        for _ in range(20):
            x = float(rng.uniform(0, 1))
            assert fejer_kernel(m, x) == pytest.approx(fejer_by_definition(m, x),
                                                       abs=1e-9)


def test_fejer_kernel_nonnegative():
    rng = np.random.default_rng(29)
    for _ in range(200):
        m = int(rng.integers(1, 20))
        assert fejer_kernel(m, float(rng.uniform(-2, 2))) >= 0.0


def test_certificate_nonnegative_on_random_tuples():
    rng = np.random.default_rng(31)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        cert = fejer_certificate(random_tuple(rng, n))
        assert cert.weighted_sum >= -cert.tolerance
        # the certificate is exactly the lower-bound mechanism
        assert cert.max_epsilon >= -cert.tolerance


def test_certificate_on_fabrykowski_is_zero():
    for q in (2, 3, 4):
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
# newton_girard_coeffs / is_regular_ngon
# ---------------------------------------------------------------------------


def test_newton_girard_examples():
    assert newton_girard_coeffs([0, 0, 3]) == pytest.approx((0, 0, -1))
    assert newton_girard_coeffs([2]) == pytest.approx((-2,))


def test_newton_girard_zero_prefix_forces_zero_coeffs():
    # S(1..n-1) = 0 gives a_1 .. a_(n-1) = 0 regardless of S(n)
    coeffs = newton_girard_coeffs([0, 0, 0, 0, 5 * cmath.exp(1j)])
    for c in coeffs[:-1]:
        assert abs(c) < 1e-12
    assert abs(coeffs[-1] - (-cmath.exp(1j))) < 1e-12


def test_newton_girard_matches_polynomial_expansion():
    # oracle: numpy's poly expands prod (x - z_k) directly
    rng = np.random.default_rng(37)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        z = np.exp(2j * np.pi * rng.uniform(0, 1, n))
        s = [complex((z**nu).sum()) for nu in range(1, n + 1)]
        got = np.array(newton_girard_coeffs(s))
        expected = np.poly(z)[1:]  # drop the leading 1
        assert np.allclose(got, expected, atol=1e-9, rtol=1e-9)


def gaps_are_regular(t, tol):
    # oracle: sorted angles must be equally spaced by 1/n (mod 1)
    angles = sorted(th % 1.0 for th in t.thetas)
    n = len(angles)
    gaps = [(angles[(i + 1) % n] - angles[i]) % 1.0 for i in range(n)]
    return all(abs(g - 1.0 / n) <= tol for g in gaps)


def test_is_regular_ngon_examples():
    assert is_regular_ngon(UnimodularTuple((0.0, 1 / 3, 2 / 3)))
    rotated = UnimodularTuple(tuple((k / 4 + 0.137) % 1 for k in range(4)))
    assert is_regular_ngon(rotated)
    assert not is_regular_ngon(UnimodularTuple((0.0, 1 / 3, 1 / 2)))


def test_is_regular_ngon_agrees_with_geometry():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        if rng.uniform() < 0.5:
            shift = rng.uniform()
            t = UnimodularTuple(tuple((k / n + shift) % 1 for k in range(n)))
        else:
            t = random_tuple(rng, n, alpha=0.0)
        assert is_regular_ngon(t, tol=1e-7) == gaps_are_regular(t, tol=1e-7)


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
    with pytest.raises(InvalidPdsError):
        fabrykowski_tuple(PerfectDifferenceSet.from_residues((0, 1, 2), 2))


@pytest.mark.parametrize("entry", [canonical_form, fabrykowski_tuple,
                                   lambda d: exact_abs_squared(d, 1)],
                         ids=["canonical_form", "fabrykowski_tuple", "exact_abs_squared"])
def test_a_modulus_other_than_q2_q_1_is_rejected(entry):
    # (0, 1, 3) is a valid set of order 2, but only modulo 7.
    with pytest.raises(InvalidPdsError):
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
    with pytest.raises(NuOutOfRangeError):
        exact_abs_squared(d2, 0)
    with pytest.raises(NuOutOfRangeError):
        exact_abs_squared(d2, 7)
    with pytest.raises(InvalidPdsError):
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
# difference_spectrum
# ---------------------------------------------------------------------------


def test_spectrum_of_fabrykowski_is_regular_grid():
    t = fabrykowski_tuple(singer_construct(2))
    spec = difference_spectrum(t)
    assert len(spec.lambdas) == 7
    for j, lam in enumerate(spec.lambdas):
        assert lam == pytest.approx(j / 7, abs=1e-12)


def test_spectrum_degenerate_tuple():
    spec = difference_spectrum(UnimodularTuple((0.0, 0.0)))
    assert spec.lambdas == (0.0, 0.0, 0.0)


def test_spectrum_shape_and_symmetry():
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        t = random_tuple(rng, n)
        spec = difference_spectrum(t)
        assert len(spec.lambdas) == n * n - n + 1
        assert list(spec.lambdas) == sorted(spec.lambdas)
        assert all(0.0 <= lam < 1.0 for lam in spec.lambdas)
        # pairwise differences come in (lam, 1-lam) pairs apart from zeros
        nonzero = [round(lam, 9) for lam in spec.lambdas if lam > 1e-12]
        counts = Counter(nonzero)
        mirrored = Counter(round(1.0 - lam, 9) for lam in nonzero)
        assert counts == mirrored


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


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_tuple_rejects_non_finite_angles_and_phase(bad):
    with pytest.raises(ValueError, match="finite"):
        UnimodularTuple((0.1, bad))
    with pytest.raises(ValueError, match="finite"):
        UnimodularTuple((0.1, 0.2), alpha_turns=bad)


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

