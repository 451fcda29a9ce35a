"""Optimizer tests: objective values, gradient rows of |S(nu)|, the polish,
the lattice snap, determinism, and small multi-start runs.

Heavy acceptance-scale runs (hundreds of restarts) live in the acceptance
suite; here the configs are small but still exercise every stage.
"""

import math

import numpy as np
import pytest

import polish_oracle
from powersum import minimax
from powersum.gf import DomainError
from powersum.minimax import (
    OptimizerConfig,
    OptimizerReport,
    lower_bound,
    minimize,
    objective,
)
from powersum.pds import singer_construct, verify
from powersum.sums import (
    RecoveryStatus,
    UnimodularTuple,
    _lattice_rounding,
    fabrykowski_tuple,
    recover_structure,
)


def test_objective_on_fabrykowski():
    t = fabrykowski_tuple(singer_construct(2))
    assert objective(t) == pytest.approx(math.sqrt(2), abs=1e-9)


def test_objective_on_degenerate_and_ngon():
    assert objective(UnimodularTuple((0.3, 0.3, 0.3))) == pytest.approx(3, abs=1e-9)
    # regular n-gon: |S(n)| = n and n <= n^2-n for n >= 2
    for n in (2, 3, 5):
        t = UnimodularTuple(tuple(k / n for k in range(n)))
        assert objective(t) == pytest.approx(n, abs=1e-9)


def test_objective_gauge_invariance():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        thetas = rng.uniform(0, 1, n)
        shift = rng.uniform()
        a = objective(UnimodularTuple(tuple(thetas)))
        b = objective(UnimodularTuple(tuple((thetas + shift) % 1.0)))
        assert abs(a - b) <= 1e-12


def _abs_power_sums(thetas):
    nus = np.arange(1, thetas.size ** 2 - thetas.size + 1)
    return np.abs(np.exp(2j * np.pi * np.outer(nus, thetas)).sum(axis=1))


def _abs_values_and_grads(thetas):
    # the polish's evaluation: |S|^2, S and the powers, then r and the rows
    nu_max = thetas.size ** 2 - thetas.size
    scale = -minimax.TWO_PI * np.arange(1, nu_max + 1)[:, None]
    return minimax._abs_values_and_grads(
        *minimax._abs_squared_and_powers(thetas, nu_max), scale)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(73)
    h = 1e-6
    checked = 0
    while checked < 25:
        n = int(rng.integers(2, 7))
        thetas = rng.uniform(0, 1, n)
        r, grads = _abs_values_and_grads(thetas)
        if r.min() <= 1e-3:
            continue
        assert r == pytest.approx(_abs_power_sums(thetas), abs=1e-12)
        assert (grads[:, 0] == 0.0).all()
        for k in range(1, n):
            up = thetas.copy()
            dn = thetas.copy()
            up[k] += h
            dn[k] -= h
            fd = (_abs_power_sums(up) - _abs_power_sums(dn)) / (2 * h)
            assert grads[:, k] == pytest.approx(fd, rel=1e-5, abs=1e-6)
        checked += 1


def test_gradients_match_the_oracle_and_are_fresh_c_contiguous_arrays():
    # a strided view of the rows sends grads @ grads.T down another BLAS path
    rng = np.random.default_rng(29)
    for n in range(2, 9):
        for _ in range(10):
            thetas = rng.uniform(0, 1, n)
            r, grads = _abs_values_and_grads(thetas)
            expected_r, expected_grads = polish_oracle._abs_values_and_grads(thetas, n)
            assert np.array_equal(r, expected_r)
            assert np.array_equal(grads, expected_grads)
            assert grads.flags.c_contiguous and grads.flags.owndata


def _qp_instances():
    """196 dual problems as the polish poses them: the Gram matrix of
    the gradient rows at a random point, n = 2..8, a warm start spread over
    a random support, and linear term mu * r or 0."""
    rng = np.random.default_rng(41)
    for index in range(196):
        n = 2 + index % 7
        nu_max = n * n - n
        thetas = rng.uniform(0, 1, n)
        thetas[0] = 0.0
        r, grads = polish_oracle._abs_values_and_grads(thetas, n)
        weights = np.zeros(nu_max)
        support = rng.choice(nu_max, size=int(rng.integers(1, min(n, nu_max) + 1)),
                             replace=False)
        weights[support] = rng.uniform(0.1, 1.0, support.size)
        weights /= weights.sum()
        mu = float((grads * grads).sum(axis=1).max()) * 2.0 ** int(rng.integers(-8, 9))
        yield grads @ grads.T, mu * r if index % 2 else np.zeros(nu_max), weights


def test_min_norm_weights_match_the_oracle_to_the_bit():
    moved = 0
    for gram, linear, weights in _qp_instances():
        start = weights.copy()
        got = minimax._min_norm_weights(gram, linear, weights)
        assert np.array_equal(got, polish_oracle._min_norm_weights(gram, linear, weights))
        assert np.array_equal(weights, start)  # the warm start is not written to
        moved += not np.array_equal(got != 0, start != 0)
    assert moved >= 100  # most instances change the support, so drops and adds run


def test_a_singular_kkt_system_raises_instead_of_returning_nan(monkeypatch):
    # without the ridge, coinciding gradients make the bordered system singular
    monkeypatch.setattr(minimax, "_QP_RIDGE", 0.0)
    with pytest.raises(ArithmeticError, match="^Singular matrix$"):
        minimax._min_norm_weights(np.zeros((2, 2)), np.zeros(2), np.array([0.5, 0.5]))


@pytest.mark.parametrize("n", (0, 1, 2, 3, 7, 9))
def test_uniform_angles_are_numpys_pcg64_stream_to_the_bit(n):
    seeds = [*range(50), 2**31, 2**32 + 5, 2**40 + 3, 10**12, 2**64 + 1]
    for seed in seeds:
        for index in range(60):
            expected = np.random.default_rng([seed, index]).uniform(0.0, 1.0, n).tolist()
            assert minimax._uniform_angles([seed, index], n) == expected
        # numpy reads an int seed as the entropy [seed], which cli's profile passes
        assert minimax._uniform_angles([seed], n) == \
            np.random.default_rng(seed).uniform(0.0, 1.0, n).tolist()


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7))
def test_polish_matches_the_oracle_to_the_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        start = rng.uniform(0, 1, n)
        start[0] = 0.0
        thetas, value = minimax._polish(start, n)
        expected_thetas, expected_value = polish_oracle._polish(start, n)
        assert np.array_equal(thetas, expected_thetas)
        assert value == expected_value


def test_polish_builds_gradients_once_per_accepted_point(monkeypatch):
    builds, grams, evaluations = [], [], []
    build, solve, evaluate = (minimax._abs_values_and_grads, minimax._min_norm_weights,
                              minimax._abs_squared_and_powers)
    monkeypatch.setattr(minimax, "_abs_values_and_grads",
                        lambda *args: builds.append(1) or build(*args))
    monkeypatch.setattr(minimax, "_min_norm_weights",
                        lambda gram, *args: grams.append(gram) or solve(gram, *args))
    monkeypatch.setattr(minimax, "_abs_squared_and_powers",
                        lambda *args: evaluations.append(1) or evaluate(*args))
    rng = np.random.default_rng(3)
    rejected = 0
    for n in (3, 4, 5, 6):
        for _ in range(3):
            builds.clear(), grams.clear(), evaluations.clear()
            start = rng.uniform(0, 1, n)
            start[0] = 0.0
            minimax._polish(start, n)
            # the rows change exactly at an accepted step, and every step is
            # followed by another dual solve until the predicted decrease ends it
            accepted = sum(not np.array_equal(a, b) for a, b in zip(grams, grams[1:]))
            assert len(builds) == 1 + accepted
            assert len({id(gram) for gram in grams}) == 1 + accepted  # one Gram matrix each
            rejected += len(evaluations) - len(builds)
    assert rejected > 0  # rejected candidates were evaluated and got no rows


def test_config_validation():
    with pytest.raises(DomainError, match="^n must be >= 2$"):
        OptimizerConfig(n=1)
    with pytest.raises(DomainError, match="^restarts must be >= 1$"):
        OptimizerConfig(n=3, restarts=0)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        OptimizerConfig(n=3, seed=-1)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8))
def test_polish_converges_to_the_bound_near_a_minimizer(q):
    lattice = np.array(fabrykowski_tuple(singer_construct(q)).thetas)
    noise = np.random.default_rng(q).normal(0.0, 1e-4, lattice.size)
    start = (lattice + noise) % 1.0
    start = (start - start[0]) % 1.0
    thetas, value = minimax._polish(start, q + 1)
    assert value - math.sqrt(q) <= 1e-9
    assert value == minimax._objective_raw(thetas, q + 1)  # to the bit
    assert thetas[0] == start[0] == 0.0
    recovered = recover_structure(UnimodularTuple(tuple(thetas)))
    assert recovered.status is RecoveryStatus.IS_MINIMIZER


def _snap_at_n3(thetas):
    # _snap takes the point's rounding, as _run_restart passes it
    return minimax._snap(_lattice_rounding(np.array(thetas))[0], 3)


def test_snap_rounds_onto_a_verified_lattice_point():
    snapped, value = _snap_at_n3([0.0, 1.01 / 7, 2.98 / 7])
    assert snapped.tolist() == [0.0, 1 / 7, 3 / 7]
    assert value == pytest.approx(math.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("thetas", ([0.0, 0.01, 3.02 / 7],      # residues (0, 0, 3)
                                    [0.0, 0.99 / 7, 2.01 / 7]))  # (0, 1, 2), not a PDS
def test_snap_without_a_difference_set_gives_no_candidate(thetas):
    assert _snap_at_n3(thetas) is None


@pytest.mark.parametrize("polished_value, adopted", ((1.0, 0), (5.0, 4)))
def test_snap_is_kept_only_when_lower(monkeypatch, polished_value, adopted):
    # a stand-in polish that leaves the start where it is and reports a fixed
    # value: the snap (value sqrt 2) must win exactly when it is lower
    monkeypatch.setattr(minimax, "_polish", lambda thetas, n: (thetas, polished_value))
    config = OptimizerConfig(3, seed=0)
    values = [minimax._run_restart(config, r)[1] for r in range(8)]
    assert sum(v == pytest.approx(math.sqrt(2), abs=1e-12) for v in values) == adopted
    assert values.count(polished_value) == 8 - adopted


def test_snap_verifies_a_repeated_rounding_once(monkeypatch):
    calls = []

    def counting_verify(candidate, q):
        calls.append(tuple(candidate))
        return verify(candidate, q)

    monkeypatch.setattr(minimax, "verify", counting_verify)
    config = OptimizerConfig(3, seed=0)
    # a stand-in polish that moves every angle onto the grid point it rounds
    # to: other angles, the same rounding, so one verify per restart
    monkeypatch.setattr(minimax, "_polish",
                        lambda thetas, n: (np.rint(thetas * 7) % 7 / 7, 5.0))
    for r in range(8):
        minimax._run_restart(config, r)
    assert len(calls) == 8
    # a stand-in polish that lands on the rounding (0, 1, 3): a new rounding
    # is verified as well, a repeated one is not
    lattice = np.array([0.0, 1.01 / 7, 2.98 / 7])
    monkeypatch.setattr(minimax, "_polish", lambda thetas, n: (lattice, 5.0))
    for r in range(8):
        calls.clear()
        _, value = minimax._run_restart(config, r)
        assert calls[-1] == (0, 1, 3)
        assert len(calls) == (1 if calls[0] == (0, 1, 3) else 2)
        assert value == pytest.approx(math.sqrt(2), abs=1e-12)


def test_each_restart_rounds_its_start_and_its_polished_point_once(monkeypatch):
    calls = []

    def counting_rounding(thetas):
        calls.append(thetas)
        return _lattice_rounding(thetas)

    monkeypatch.setattr(minimax, "_lattice_rounding", counting_rounding)
    minimize(OptimizerConfig(4, restarts=10, seed=1))
    assert len(calls) == 20


@pytest.mark.parametrize("n", (3, 4, 5))
def test_minimize_verifies_at_most_twice_per_restart(monkeypatch, n):
    calls = []

    def counting_verify(candidate, q):
        calls.append(tuple(candidate))
        return verify(candidate, q)

    monkeypatch.setattr(minimax, "verify", counting_verify)
    minimize(OptimizerConfig(n, restarts=4, seed=11))
    assert len(calls) <= 2 * 4


def test_minimize_n3_reaches_bound_and_recovers():
    report = minimize(OptimizerConfig(n=3, restarts=4, seed=11))
    assert report.best_value == pytest.approx(math.sqrt(2), abs=1e-5)
    assert report.recovered.status is RecoveryStatus.IS_MINIMIZER
    assert report.recovered.pds is not None
    assert report.gap_to_bound >= -1e-6
    assert report.best_value == min(report.per_restart_values)
    # re-evaluating the objective on the recovered lattice reproduces the bound
    rebuilt = fabrykowski_tuple(report.recovered.pds,
                                report.recovered.alpha_turns)
    assert objective(rebuilt) == pytest.approx(math.sqrt(2), abs=1e-9)


def test_minimize_n2_reaches_one():
    report = minimize(OptimizerConfig(n=2, restarts=3, seed=2))
    assert report.best_value == pytest.approx(1.0, abs=1e-6)
    assert report.recovered.status is RecoveryStatus.IS_MINIMIZER


def test_minimize_deterministic():
    cfg = OptimizerConfig(n=3, restarts=5, seed=40)
    a = minimize(cfg)
    b = minimize(cfg)
    assert a.per_restart_values == b.per_restart_values
    assert a.best_tuple == b.best_tuple
    assert a.best_value == b.best_value


def test_minimize_respects_lemma1_guard():
    report = minimize(OptimizerConfig(n=4, restarts=3, seed=9))
    assert report.best_value >= lower_bound(4) - 1e-9
    for v in report.per_restart_values:
        assert v >= lower_bound(4) - 1e-9


def test_polish_checks_its_value_against_the_bound(monkeypatch):
    # the polish guards the value it holds, with no second evaluation
    monkeypatch.setattr(minimax, "lower_bound", lambda n: 10.0)
    monkeypatch.setattr(minimax, "_objective_raw", None)
    with pytest.raises(ArithmeticError, match="below the proven bound"):
        minimax._polish(np.array([0.0, 0.3, 0.55]), 3)


def test_report_record_shape():
    report = minimize(OptimizerConfig(n=3, restarts=2, seed=3))
    record = report.to_record()
    assert set(record) == {"n", "best_value", "gap_to_bound",
                           "per_restart_values", "best_tuple", "recovered"}
    assert record["n"] == 3
    assert len(record["per_restart_values"]) == 2
