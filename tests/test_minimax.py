"""Optimizer tests: objective values, gradient rows of |S(nu)|, the polish,
the lattice snap, determinism, and small multi-start runs.

Heavy acceptance-scale runs (hundreds of restarts) live in the acceptance
suite; here the configs are small but still exercise every stage.
"""

import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import polish_oracle
from powersum import minimax
from powersum import sums as sums_module
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
    power_sums,
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


def test_objective_past_the_profile_cap_is_a_domain_error(monkeypatch):
    # 1000 points have the horizon 999000, past the profile's length cap,
    # which answers before the profile's blocks or any other array is made.
    monkeypatch.setattr(minimax, "_objective_raw", None)
    t = UnimodularTuple(tuple(k / 1000 for k in range(1000)))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=f"^a profile up to nu = 999000 exceeds the cap "
                                              f"{sums_module.MAX_PROFILE_LENGTH}$"):
            objective(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_objective_is_the_max_of_the_profile_to_the_bit():
    rng = np.random.default_rng(73)
    for n in range(2, 41):
        for _ in range(3):
            thetas, alpha = tuple(rng.uniform(0, 1, n)), rng.uniform(0.01, 0.99)
            # two equal tuples, so neither call reads a profile the other kept
            value = objective(UnimodularTuple(thetas, alpha_turns=alpha))
            twin = UnimodularTuple(thetas, alpha_turns=alpha)
            assert value == power_sums(twin).max_abs, (n, thetas, alpha)


def test_objective_at_316_points_builds_no_power_matrix():
    # the 99540 x 316 power matrix alone is 503 MB of complex numbers
    t = UnimodularTuple(tuple(np.random.default_rng(316).uniform(0, 1, 316)), alpha_turns=0.3)
    tracemalloc.start()
    try:
        objective(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


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
        yield grads, mu * r if index % 2 else np.zeros(nu_max), weights


def _dual(grads, linear, weights):
    # the polish's dual solve: the Gram and KKT matrices of the gradient
    # rows, [linear, 1] and the oracle's tolerance
    bordered = np.ones((1, len(grads) + 1, len(grads) + 1))
    bordered[0, -1, -1] = 0.0
    grams = [None]
    minimax._set_grams(grams, bordered, np.array([0]), grads[None])
    tol = minimax._QP_TOL * max(1.0, float(np.abs(linear).max()))
    row = np.append(weights, 1.0)  # [w, 1], solved in place
    minimax._min_norm_weights(grams[0], bordered[0], np.append(linear, 1.0), tol, row)
    return row[:-1]


def test_min_norm_weights_match_the_oracle_to_the_bit():
    moved = 0
    for grads, linear, weights in _qp_instances():
        start = weights.copy()
        got = _dual(grads, linear, weights)
        expected = polish_oracle._min_norm_weights(grads @ grads.T, linear, weights)
        assert np.array_equal(got, expected)
        assert np.array_equal(weights, start)  # the warm start is not written to
        moved += not np.array_equal(got != 0, start != 0)
    assert moved >= 100  # most instances change the support, so drops and adds run


def test_a_singular_kkt_system_raises_instead_of_returning_nan(monkeypatch):
    # without the ridge, coinciding gradients make the bordered system
    # singular; the dual solves run under the polish's errstate
    monkeypatch.setattr(minimax, "_QP_RIDGE", 0.0)
    with pytest.raises(ArithmeticError, match="^Singular matrix$"), minimax._singular_raises():
        _dual(np.zeros((2, 3)), np.zeros(2), np.array([0.5, 0.5]))


def test_the_polish_raises_on_a_singular_kkt_system(monkeypatch):
    # the polish sets the errstate itself: without the ridge, the first
    # restart of seed 0 at n = 3 meets a singular KKT system
    monkeypatch.setattr(minimax, "_QP_RIDGE", 0.0)
    starts = np.array([minimax._uniform_angles([0, index], 3) for index in range(4)])
    starts[:, 0] = 0.0
    with pytest.raises(ArithmeticError, match="^Singular matrix$"):
        minimax._polish(starts, 3)


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


def _assert_rows_match_the_oracle(starts, n):
    thetas, values = minimax._polish(starts, n)
    assert len(thetas) == len(values) == len(starts)
    for start, got_thetas, got_value in zip(starts, thetas, values):
        expected_thetas, expected_value = polish_oracle._polish(start, n)
        assert np.array_equal(got_thetas, expected_thetas)
        assert got_value == expected_value


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7))
def test_polish_matches_the_oracle_to_the_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        start = rng.uniform(0, 1, n)
        start[0] = 0.0
        _assert_rows_match_the_oracle(start[None], n)


def _slot(bordered):
    """Where a restart's KKT matrix lives: the same for its whole polish."""
    return bordered.__array_interface__["data"][0]


def _lattice_start(q):
    lattice = np.array(fabrykowski_tuple(singer_construct(q)).thetas)
    return (lattice - lattice[0]) % 1.0


def test_a_mixed_lockstep_batch_matches_the_oracle_row_by_row(monkeypatch):
    # a lattice start ends at its first step, beside starts that run long and
    # leave the stack one by one
    calls = []
    solve = minimax._min_norm_weights
    monkeypatch.setattr(minimax, "_min_norm_weights",
                        lambda gram, bordered, *args: calls.append(_slot(bordered))
                        or solve(gram, bordered, *args))
    rng = np.random.default_rng(17)
    starts = rng.uniform(0, 1, (6, 5))
    starts[:, 0] = 0.0
    starts[2] = _lattice_start(4)
    _assert_rows_match_the_oracle(starts, 5)
    steps = sorted(calls.count(row) for row in set(calls))
    assert len(steps) == 6 and steps[0] == 1 and steps[1] >= 10
    assert len(set(steps[1:])) > 1  # the long runs end in different rounds
    # n = 2, where a restart has two angles and two power sums
    starts = rng.uniform(0, 1, (5, 2))
    starts[:, 0] = 0.0
    _assert_rows_match_the_oracle(starts, 2)


def test_polish_builds_gradients_once_per_accepted_point(monkeypatch):
    builds, duals, evaluations, kkts = [], [], [], []
    build, solve, evaluate, set_grams = (
        minimax._abs_values_and_grads, minimax._min_norm_weights,
        minimax._abs_squared_and_powers, minimax._set_grams)
    monkeypatch.setattr(minimax, "_abs_values_and_grads",
                        lambda u, *args: builds.append(len(u)) or build(u, *args))
    monkeypatch.setattr(minimax, "_min_norm_weights",
                        lambda gram, bordered, *args: duals.append((_slot(bordered), gram))
                        or solve(gram, bordered, *args))
    monkeypatch.setattr(minimax, "_abs_squared_and_powers",
                        lambda thetas, *args: evaluations.append(len(thetas))
                        or evaluate(thetas, *args))
    monkeypatch.setattr(minimax, "_set_grams",
                        lambda grams, bordered, slots, grads: kkts.append(len(grads))
                        or set_grams(grams, bordered, slots, grads))
    rng = np.random.default_rng(3)
    rejected = 0
    for n in (3, 4, 5, 6):
        builds.clear(), duals.clear(), evaluations.clear(), kkts.clear()
        starts = rng.uniform(0, 1, (3, n))
        starts[:, 0] = 0.0
        minimax._polish(starts, n)
        # a restart's KKT matrix is its own for the whole polish; its Gram
        # matrix changes exactly at an accepted step, and every step is
        # followed by another dual solve until the predicted decrease ends it
        accepted, slots = 0, {slot for slot, _ in duals}
        assert len(slots) == 3
        for slot in slots:
            grams = [gram for s, gram in duals if s == slot]
            mine = sum(not np.array_equal(a, b) for a, b in zip(grams, grams[1:]))
            assert len({id(gram) for gram in grams}) == 1 + mine  # one Gram matrix each
            accepted += mine
        assert sum(builds) == 3 + accepted
        assert sum(kkts) == 3 + accepted  # one KKT matrix each
        rejected += sum(evaluations) - sum(builds)
    assert rejected > 0  # rejected candidates were evaluated and got no rows


@pytest.mark.parametrize("seed", (5, 29))
def test_fewer_restarts_are_a_prefix_of_more(seed):
    # lockstep with 3 restarts or with 8: each restart gets the same bits
    for n in range(2, 8):
        few = minimize(OptimizerConfig(n, restarts=3, seed=seed)).per_restart_values
        many = minimize(OptimizerConfig(n, restarts=8, seed=seed)).per_restart_values
        assert few == many[:3]


def test_restarts_run_in_blocks_of_the_byte_budget(monkeypatch):
    nu_max = 20  # n = 5
    per_restart = 8 * (nu_max * nu_max + (nu_max + 1) ** 2)
    blocks, rows = [], []
    polish, evaluate, build = (minimax._polish, minimax._abs_squared_and_powers,
                               minimax._abs_values_and_grads)
    monkeypatch.setattr(minimax, "_polish",
                        lambda starts, n: blocks.append(len(starts)) or polish(starts, n))
    monkeypatch.setattr(minimax, "_abs_squared_and_powers",
                        lambda thetas, *args: rows.append(thetas.shape[:-1])
                        or evaluate(thetas, *args))
    monkeypatch.setattr(minimax, "_abs_values_and_grads",
                        lambda u, *args: rows.append(u.shape[:-1]) or build(u, *args))
    for seed in (2, 3):
        blocks.clear()
        whole = minimize(OptimizerConfig(5, restarts=8, seed=seed)).to_record()
        assert blocks == [8]  # by default one block holds all 8
        with monkeypatch.context() as patch:
            patch.setattr(minimax, "_BLOCK_BYTES", 4 * per_restart - 1)
            blocks.clear(), rows.clear()
            blocked = minimize(OptimizerConfig(5, restarts=8, seed=seed)).to_record()
        assert blocks == [3, 3, 2]
        # a 1-d array is one tuple (the snap's objective)
        assert max(shape[0] if shape else 1 for shape in rows) == 3
        assert blocked == whole


def test_config_caps_n_by_the_bytes_of_one_restart():
    def restart_bytes(n):
        nu_max = n * n - n
        return 8 * (nu_max * nu_max + (nu_max + 1) ** 2)
    cap = minimax.MAX_OPTIMIZER_N
    assert restart_bytes(cap) < 40 * 10**6 <= restart_bytes(cap + 1)
    assert OptimizerConfig(cap).n == cap
    for n in (cap + 1, 200, 10**8):
        with pytest.raises(DomainError, match=f"^n = {n} exceeds the cap {cap}$"):
            OptimizerConfig(n, restarts=1)


def test_config_validation():
    with pytest.raises(DomainError, match="^n must be >= 2$"):
        OptimizerConfig(n=1)
    with pytest.raises(DomainError, match="^restarts must be >= 1$"):
        OptimizerConfig(n=3, restarts=0)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        OptimizerConfig(n=3, seed=-1)


@pytest.mark.parametrize("field, value", (("n", 3.5), ("restarts", 2.5), ("seed", 1.5),
                                          ("n", "3"), ("restarts", None),
                                          ("seed", np.float64(2.0))))
def test_config_rejects_a_non_integer(field, value):
    with pytest.raises(DomainError, match=f"^{field} {re.escape(repr(value))} is not an int$"):
        OptimizerConfig(**{"n": 3, field: value})


def test_config_takes_numpy_integers_as_ints():
    config = OptimizerConfig(np.int64(4), restarts=np.int32(2), seed=np.uint8(7))
    assert config == OptimizerConfig(4, restarts=2, seed=7)
    assert all(type(v) is int for v in (config.n, config.restarts, config.seed))
    assert minimize(config).per_restart_values == \
        minimize(OptimizerConfig(4, restarts=2, seed=7)).per_restart_values


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8))
def test_polish_converges_to_the_bound_near_a_minimizer(q):
    lattice = np.array(fabrykowski_tuple(singer_construct(q)).thetas)
    noise = np.random.default_rng(q).normal(0.0, 1e-4, lattice.size)
    start = (lattice + noise) % 1.0
    start = (start - start[0]) % 1.0
    (thetas,), (value,) = minimax._polish(start[None], q + 1)
    assert value - math.sqrt(q) <= 1e-9
    assert value == minimax._objective_raw(thetas, q + 1)  # to the bit
    assert thetas[0] == start[0] == 0.0
    recovered = recover_structure(UnimodularTuple(tuple(thetas)))
    assert recovered.status is RecoveryStatus.IS_MINIMIZER


def _snap_at_n3(thetas):
    # _snap takes the point's rounding, as _restarts passes it
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
    # a stand-in polish that leaves the starts where they are and reports a
    # fixed value: the snap (value sqrt 2) must win exactly when it is lower
    monkeypatch.setattr(minimax, "_polish",
                        lambda starts, n: (starts, [polished_value] * len(starts)))
    config = OptimizerConfig(3, seed=0)
    values = [value for _, value in minimax._restarts(config, range(8))]
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
                        lambda starts, n: (np.rint(starts * 7) % 7 / 7, [5.0] * len(starts)))
    minimax._restarts(config, range(8))
    assert len(calls) == 8
    # a stand-in polish that lands on the rounding (0, 1, 3): a new rounding
    # is verified as well, a repeated one is not
    lattice = np.array([0.0, 1.01 / 7, 2.98 / 7])
    monkeypatch.setattr(minimax, "_polish",
                        lambda starts, n: ([lattice] * len(starts), [5.0] * len(starts)))
    for r in range(8):
        calls.clear()
        [(_, value)] = minimax._restarts(config, range(r, r + 1))
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


def test_minimize_keeps_every_bit():
    # a sha256 over the records, the restart values and the best angles as
    # float.hex, serialized as tools/minimize_digest.py does over more cells
    h = hashlib.sha256()
    for n in range(2, 8):
        for restarts in (1, 3, 8):
            for seed in (0, 1):
                report = minimize(OptimizerConfig(n, restarts=restarts, seed=seed))
                h.update(json.dumps(report.to_record(), sort_keys=True).encode())
                h.update(repr([v.hex() for v in report.per_restart_values]).encode())
                h.update(repr([x.hex() for x in report.best_tuple.thetas]).encode())
    assert h.hexdigest() == "0c8a8bb5ae054c070f0b9649d025f950d60ae5b81806a393071e83bd3779e39c"


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
        minimax._polish(np.array([[0.0, 0.3, 0.55]]), 3)


def test_minimize_raises_when_a_value_falls_under_the_bound(monkeypatch):
    monkeypatch.setattr(minimax, "lower_bound", lambda n: n + 1.0)
    with pytest.raises(ArithmeticError, match="below the proven bound"):
        minimize(OptimizerConfig(n=3, restarts=2, seed=1))


def test_report_record_shape():
    report = minimize(OptimizerConfig(n=3, restarts=2, seed=3))
    record = report.to_record()
    assert set(record) == {"n", "best_value", "gap_to_bound",
                           "per_restart_values", "best_tuple", "recovered"}
    assert record["n"] == 3
    assert len(record["per_restart_values"]) == 2
