"""Optimizer tests: objective values, surrogate math, gradient correctness,
determinism, and small multi-start runs.

Heavy acceptance-scale runs (hundreds of restarts) live in the acceptance
suite; here the configs are small but still exercise every stage.
"""

import math

import numpy as np
import pytest

from powersum import minimax
from powersum.minimax import (
    OptimizerConfig,
    OptimizerReport,
    lower_bound,
    minimize,
    objective,
    smoothed_objective,
    smoothed_objective_gradient,
)
from powersum.pds import singer_construct, verify
from powersum.sums import (
    RecoveryStatus,
    UnimodularTuple,
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


def test_smoothed_objective_all_terms_equal():
    # flat profile: value = max|S|^2/2 + log(count)/(2 beta) exactly
    t = fabrykowski_tuple(singer_construct(2))
    for beta in (1.0, 4.0, 64.0):
        expected = 1.0 + math.log(6) / (2 * beta)
        assert smoothed_objective(t, beta) == pytest.approx(expected, abs=1e-9)


def test_smoothed_objective_matches_direct_formula():
    rng = np.random.default_rng(67)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        t = UnimodularTuple(tuple(rng.uniform(0, 1, n)))
        from powersum.sums import power_sums

        profile = power_sums(t)
        for beta in (0.5, 2.0, 8.0):
            direct = math.log(sum(math.exp(beta * a * a)
                                  for a in profile.abs_values)) / (2 * beta)
            assert smoothed_objective(t, beta) == pytest.approx(direct, rel=1e-9)


def test_smoothed_objective_monotone_toward_half_max_squared():
    rng = np.random.default_rng(71)
    t = UnimodularTuple(tuple(rng.uniform(0, 1, 4)))
    half_max_sq = objective(t) ** 2 / 2
    nu_count = t.horizon
    values = [smoothed_objective(t, beta) for beta in (1, 4, 16, 64, 256)]
    for v1, v2 in zip(values, values[1:]):
        assert v2 <= v1 + 1e-12
    for beta, v in zip((1, 4, 16, 64, 256), values):
        assert half_max_sq - 1e-12 <= v <= half_max_sq + math.log(nu_count) / (2 * beta)


def test_smoothed_objective_rejects_bad_beta():
    t = UnimodularTuple((0.0, 0.5))
    with pytest.raises(ValueError):
        smoothed_objective(t, 0.0)
    with pytest.raises(ValueError):
        smoothed_objective_gradient(t, -1.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(73)
    h = 1e-6
    for i in range(25):
        n = int(rng.integers(2, 7))
        t = UnimodularTuple(tuple(rng.uniform(0, 1, n)))
        beta = (1.0, 4.0, 16.0, 64.0)[i % 4]
        _, grad = smoothed_objective_gradient(t, beta)
        for k in range(n):
            up = list(t.thetas)
            dn = list(t.thetas)
            up[k] += h
            dn[k] -= h
            fd = (smoothed_objective(UnimodularTuple(tuple(up)), beta)
                  - smoothed_objective(UnimodularTuple(tuple(dn)), beta)) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(n=1)
    with pytest.raises(ValueError):
        OptimizerConfig(n=3, restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(n=3, smoothing_betas=(4.0, 1.0))
    with pytest.raises(ValueError):
        OptimizerConfig(n=3, smoothing_betas=())


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8))
def test_polish_converges_to_the_bound_near_a_minimizer(q):
    lattice = np.array(fabrykowski_tuple(singer_construct(q)).thetas)
    noise = np.random.default_rng(q).normal(0.0, 1e-4, lattice.size)
    start = (lattice + noise) % 1.0
    start = (start - start[0]) % 1.0
    thetas, value = minimax._polish(start, q + 1)
    assert value - math.sqrt(q) <= 1e-9
    assert thetas[0] == start[0] == 0.0
    recovered = recover_structure(UnimodularTuple(tuple(thetas)))
    assert recovered.status is RecoveryStatus.IS_MINIMIZER


def test_snap_verifies_a_repeated_rounding_once(monkeypatch):
    calls = []

    def counting_verify(candidate, q):
        calls.append(tuple(candidate))
        return verify(candidate, q)

    monkeypatch.setattr(minimax, "verify", counting_verify)
    snap = minimax._SnapTracker(3)
    thetas = np.array([0.0, 1.01 / 7, 2.98 / 7])
    snap.offer(thetas)
    snap.offer(thetas)
    assert calls == [(0, 1, 3)]
    assert snap.value == pytest.approx(math.sqrt(2), abs=1e-12)
    snap.offer(np.array([0.0, 0.99 / 7, 3.02 / 7]))  # same rounding
    assert len(calls) == 1
    snap.offer(np.array([0.0, 2.0 / 7, 6.0 / 7]))  # a new rounding
    assert calls == [(0, 1, 3), (0, 2, 6)]


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


def test_minimize_trace_rows():
    rows = []
    minimize(OptimizerConfig(n=3, restarts=2, seed=1),
             trace_sink=lambda r, row: rows.append((r, row)))
    assert rows
    restarts_seen = {r for r, _ in rows}
    assert restarts_seen <= {0, 1}
    for _, (it, beta, value) in rows:
        assert it >= 1 and beta > 0 and value >= lower_bound(3) - 1e-9
    # rows arrive grouped by restart in ascending order
    order = [r for r, _ in rows]
    assert order == sorted(order)


def test_report_record_shape():
    report = minimize(OptimizerConfig(n=3, restarts=2, seed=3))
    record = report.to_record()
    assert set(record) == {"n", "best_value", "gap_to_bound",
                           "per_restart_values", "best_tuple", "recovered"}
    assert record["n"] == 3
    assert len(record["per_restart_values"]) == 2
