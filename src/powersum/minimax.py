"""Numerical probe of the power-sum inf-max problem.

The objective is f(theta) = max over nu = 1 .. n^2-n of |S(nu)|, minimized
over unimodular tuples with the rotation gauge theta_1 = 0.  Each restart
runs three deterministic stages:

1. annealed log-sum-exp smoothing: gradient descent with backtracking line
   search on the surrogate, sharpening beta along the configured schedule;
2. polish on the true objective: coordinate descent followed by
   epsilon-active steepest descent (the search direction is the negated
   min-norm point of the convex hull of the active |S(nu)| gradients, which
   handles the heavily degenerate corners where single-coordinate moves
   stall);
3. lattice snapping: whenever an iterate rounds onto angles j_k/m whose j_k
   form a verified difference set, that exact lattice tuple is kept as a
   candidate and adopted at the end only if it beats the polished point on
   the true objective.  When no difference set of order n-1 exists the snap
   can never verify and the stage is a no-op.

Restarts run one after another, each on its own RNG stream derived from
(seed, restart index), so a fixed config always produces the same report.
The optimizer gathers evidence only: it lands on sqrt(n-1) with recovered
structure when a perfect difference set of order n-1 exists, and reports the
best value found (always strictly above the bound) when none does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .pds import verify
from .sums import RecoveryResult, UnimodularTuple, power_sums, recover_structure

LOWER_BOUND_GUARD = 1e-9
TWO_PI = 2.0 * math.pi


def lower_bound(n: int) -> float:
    """The proven floor sqrt(n-1) for the objective."""
    return math.sqrt(n - 1)


def objective(t: UnimodularTuple) -> float:
    """max over nu = 1 .. n^2-n of |S(nu)|, the quantity being minimized.

    Guarded by the proven lower bound: a value below sqrt(n-1) - 1e-9 can
    only mean a numerical defect, and raises.
    """
    value = power_sums(t).max_abs
    floor = lower_bound(t.n)
    if value < floor - LOWER_BOUND_GUARD:
        raise ArithmeticError(
            f"objective {value} fell below the proven bound {floor}")
    return value


def _abs_squared_and_powers(thetas: np.ndarray, nu_max: int):
    """u[nu-1] = |S(nu)|^2, S[nu-1], and the power matrix z_k^nu."""
    z = np.exp((2j * np.pi) * thetas)
    powers = np.cumprod(np.broadcast_to(z, (nu_max, z.size)), axis=0)
    s = powers.sum(axis=1)
    u = (s.real * s.real + s.imag * s.imag)
    return u, s, powers


def _objective_raw(thetas: np.ndarray, n: int) -> float:
    u, _, _ = _abs_squared_and_powers(thetas, n * n - n)
    value = math.sqrt(float(u.max()))
    if value < lower_bound(n) - LOWER_BOUND_GUARD:
        raise ArithmeticError(
            f"objective {value} fell below the proven bound {lower_bound(n)}")
    return value


def _smoothed_value(thetas: np.ndarray, n: int, beta: float) -> float:
    u, _, _ = _abs_squared_and_powers(thetas, n * n - n)
    shift = u.max()
    return float(shift / 2.0 +
                 math.log(np.exp(beta * (u - shift)).sum()) / (2.0 * beta))


def _smoothed_value_and_grad(thetas: np.ndarray, n: int, beta: float):
    nu_max = n * n - n
    u, s, powers = _abs_squared_and_powers(thetas, nu_max)
    shift = u.max()
    weights = np.exp(beta * (u - shift))
    total = weights.sum()
    value = shift / 2.0 + math.log(total) / (2.0 * beta)
    weights /= total
    # d|S(nu)|^2/dtheta_k = -4*pi*nu*Im(conj(S(nu)) * z_k^nu); the smoothed
    # gradient averages those with the softmax weights (and a factor 1/2
    # from the value's 1/(2 beta) scaling).
    nus = np.arange(1, nu_max + 1)
    inner = np.imag(np.conj(s)[:, None] * powers)
    grad = -TWO_PI * (weights * nus) @ inner
    return float(value), grad


def smoothed_objective(t: UnimodularTuple, beta: float) -> float:
    """Smooth surrogate (1/(2 beta)) * log sum over nu of exp(beta |S(nu)|^2).

    Decreasing in beta, always at least (max |S(nu)|^2) / 2, and approaches
    that limit as beta grows, so annealing beta drives the iterates toward
    minimizers of the true max.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    eff = (np.asarray(t.thetas) + t.alpha_turns) % 1.0
    return _smoothed_value(eff, t.n, beta)


def smoothed_objective_gradient(t: UnimodularTuple, beta: float):
    """(value, gradient) of the surrogate with respect to the angles."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    eff = (np.asarray(t.thetas) + t.alpha_turns) % 1.0
    value, grad = _smoothed_value_and_grad(eff, t.n, beta)
    return value, tuple(float(g) for g in grad)


@dataclass(frozen=True)
class OptimizerConfig:
    n: int
    restarts: int = 50
    max_iters: int = 600  # gradient steps per restart, shared by the betas
    seed: int = 0
    smoothing_betas: tuple[float, ...] = (1.0, 4.0, 16.0, 64.0)
    polish_tol: float = 1e-10

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        betas = tuple(float(b) for b in self.smoothing_betas)
        if not betas or any(b <= 0 for b in betas):
            raise ValueError("betas must be positive")
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("betas must be strictly increasing")
        object.__setattr__(self, "smoothing_betas", betas)


@dataclass(frozen=True)
class OptimizerReport:
    best_value: float
    best_tuple: UnimodularTuple
    per_restart_values: tuple[float, ...]
    recovered: RecoveryResult
    gap_to_bound: float

    def to_record(self) -> dict:
        return {
            "n": self.best_tuple.n,
            "best_value": self.best_value,
            "gap_to_bound": self.gap_to_bound,
            "per_restart_values": list(self.per_restart_values),
            "best_tuple": self.best_tuple.to_record(),
            "recovered": self.recovered.to_record(),
        }


TraceRow = tuple[int, float, float]  # (iter, beta, value)


# ---------------------------------------------------------------------------
# Stage helpers
# ---------------------------------------------------------------------------


def _snap_to_lattice(thetas: np.ndarray, n: int) -> Optional[np.ndarray]:
    """Round the shifted angles onto the grid j/m; return the exact lattice
    point when the j_k form a verified difference set, else None."""
    m = n * n - n + 1
    shifted = (thetas - thetas[0]) % 1.0
    js = np.rint(shifted * m).astype(int) % m
    if len(set(js.tolist())) != n:
        return None
    if not verify(js.tolist(), n - 1).valid:
        return None
    return (js / m + thetas[0]) % 1.0


class _SnapTracker:
    """Keeps the best verified lattice candidate seen along a trajectory."""

    def __init__(self, n: int):
        self.n = n
        self.point: Optional[np.ndarray] = None
        self.value = math.inf

    def offer(self, thetas: np.ndarray) -> None:
        snapped = _snap_to_lattice(thetas, self.n)
        if snapped is None:
            return
        value = _objective_raw(snapped, self.n)
        if value < self.value:
            self.point, self.value = snapped, value


def _descend_smoothed(thetas: np.ndarray, n: int, config: OptimizerConfig,
                      snap: _SnapTracker,
                      trace: Optional[list[TraceRow]]) -> np.ndarray:
    iters_per_beta = max(1, config.max_iters // len(config.smoothing_betas))
    it_global = 0
    for beta in config.smoothing_betas:
        step = 0.1
        for _ in range(iters_per_beta):
            value, grad = _smoothed_value_and_grad(thetas, n, beta)
            grad[0] = 0.0  # rotation gauge: the first angle stays pinned
            gnorm2 = float(grad @ grad)
            if gnorm2 < 1e-22:
                break
            step = min(step * 2.0, 1.0)
            while step > 1e-17:
                candidate = (thetas - step * grad) % 1.0
                candidate[0] = thetas[0]
                if _smoothed_value(candidate, n, beta) <= value - 1e-4 * step * gnorm2:
                    break
                step *= 0.5
            else:
                break
            thetas = candidate
            snap.offer(thetas)
            it_global += 1
            if trace is not None:
                trace.append((it_global, beta, _objective_raw(thetas, n)))
    return thetas


def _polish_coordinate_descent(thetas: np.ndarray, n: int,
                               polish_tol: float) -> tuple[np.ndarray, float]:
    # Sweeps per step level are capped: long zigzag marches gain little and
    # the min-norm stage that follows handles the tight convergence.
    value = _objective_raw(thetas, n)
    step = 0.05
    while step >= polish_tol:
        for _ in range(6):
            improved = False
            for k in range(1, n):
                for sign in (1.0, -1.0):
                    candidate = thetas.copy()
                    candidate[k] = (candidate[k] + sign * step) % 1.0
                    cand_value = _objective_raw(candidate, n)
                    if cand_value < value:
                        thetas, value = candidate, cand_value
                        improved = True
            if not improved:
                break
        step *= 0.5
    return thetas, value


def _abs_values_and_grads(thetas: np.ndarray, n: int):
    """r_nu = |S(nu)| and the gradient rows d r_nu / d theta (gauge-fixed)."""
    nu_max = n * n - n
    u, s, powers = _abs_squared_and_powers(thetas, nu_max)
    r = np.sqrt(u)
    nus = np.arange(1, nu_max + 1)
    inner = np.imag(np.conj(s)[:, None] * powers)
    grads = -TWO_PI * nus[:, None] * inner / np.maximum(r, 1e-300)[:, None]
    grads[:, 0] = 0.0
    return r, grads


def _min_norm_weights(gram: np.ndarray, iters: int = 80,
                      tol: float = 1e-12) -> np.ndarray:
    """Pairwise Frank-Wolfe for the min-norm point of a convex hull.

    Minimizes |sum w_i g_i|^2 over the simplex given the Gram matrix of the
    g_i; the hull member it returns (via the weights) is the steepest-descent
    generator for the max of the underlying functions.
    """
    k = gram.shape[0]
    weights = np.zeros(k)
    weights[int(np.argmin(np.diag(gram)))] = 1.0
    for _ in range(iters):
        scores = gram @ weights
        norm2 = float(weights @ scores)
        toward = int(np.argmin(scores))
        support = np.where(weights > 1e-15)[0]
        away = support[int(np.argmax(scores[support]))]
        if norm2 - float(scores[toward]) <= tol * max(1.0, norm2):
            break
        curvature = gram[toward, toward] - 2 * gram[toward, away] + gram[away, away]
        if curvature <= 0:
            break
        gamma = min(weights[away],
                    (scores[away] - scores[toward]) / curvature)
        if gamma <= 0:
            break
        weights[away] -= gamma
        weights[toward] += gamma
    return weights


def _polish_min_norm_descent(thetas: np.ndarray, n: int,
                             iter_budget: int = 120) -> tuple[np.ndarray, float]:
    """Epsilon-active steepest descent for the nonsmooth max.

    At each step the direction is the negated min-norm point of the convex
    hull of the gradients of the epsilon-active |S(nu)|; epsilon shrinks once
    no further progress is possible at the current activity width.  The line
    search warm-starts from the last accepted step to avoid long halving
    cascades near corners.
    """
    value = _objective_raw(thetas, n)
    eps = 0.1
    it = 0
    warm_step = 0.5
    idle_stages = 0
    while eps > 1e-11 and it < iter_budget and idle_stages < 2:
        moved = False
        while it < iter_budget:
            it += 1
            r, grads = _abs_values_and_grads(thetas, n)
            value = float(r.max())
            active = grads[r >= value - eps]
            weights = _min_norm_weights(active @ active.T)
            direction = -(weights @ active)
            norm2 = float(direction @ direction)
            if norm2 <= (1e-10 * max(1.0, value)) ** 2:
                break
            step = min(warm_step * 4.0, 1.0)
            accepted = False
            while step > 1e-13:
                candidate = (thetas + step * direction) % 1.0
                candidate[0] = thetas[0]
                cand_value = _objective_raw(candidate, n)
                if cand_value <= value - 1e-4 * step * norm2:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            warm_step = step
            thetas, value = candidate, cand_value
            moved = True
        idle_stages = 0 if moved else idle_stages + 1
        eps *= 0.1
    return thetas, value


def _run_restart(config: OptimizerConfig, index: int,
                 collect_trace: bool) -> tuple[np.ndarray, float, list[TraceRow]]:
    rng = np.random.default_rng([config.seed, index])
    thetas = rng.uniform(0.0, 1.0, config.n)
    thetas[0] = 0.0
    n = config.n
    snap = _SnapTracker(n)
    snap.offer(thetas)
    trace: Optional[list[TraceRow]] = [] if collect_trace else None
    thetas = _descend_smoothed(thetas, n, config, snap, trace)
    thetas, value = _polish_coordinate_descent(thetas, n, config.polish_tol)
    thetas, value = _polish_min_norm_descent(thetas, n)
    snap.offer(thetas)
    if snap.value < value:
        thetas, value = snap.point, snap.value
    return thetas, value, trace or []


def minimize(config: OptimizerConfig,
             trace_sink: Optional[Callable[[int, TraceRow], None]] = None
             ) -> OptimizerReport:
    """Multi-start minimization; deterministic for a fixed config.

    The restarts run in index order.  ``trace_sink``, when given, receives
    (restart_index, (iter, beta, value)) rows in restart order after the
    runs complete.
    """
    indices = range(config.restarts)
    collect = trace_sink is not None
    runs = [_run_restart(config, r, collect) for r in indices]

    values = tuple(value for _, value, _ in runs)
    best_index = min(indices, key=lambda r: (values[r], r))
    best_thetas = runs[best_index][0]
    best_tuple = UnimodularTuple(tuple(float(x) for x in best_thetas),
                                 alpha_turns=0.0)
    best_value = values[best_index]
    gap = best_value - lower_bound(config.n)
    if gap < -1e-6:
        raise ArithmeticError(f"best value {best_value} violates the bound")

    if trace_sink is not None:
        for r, (_, _, rows) in enumerate(runs):
            for row in rows:
                trace_sink(r, row)

    recovered = recover_structure(best_tuple)
    return OptimizerReport(best_value=best_value, best_tuple=best_tuple,
                           per_restart_values=values, recovered=recovered,
                           gap_to_bound=gap)
