"""Numerical probe of the power-sum inf-max problem.

The objective is f(theta) = max over nu = 1 .. n^2-n of |S(nu)|, minimized
over unimodular tuples with the rotation gauge theta_1 = 0.  Each restart
runs three deterministic stages:

1. annealed log-sum-exp smoothing: gradient descent with backtracking line
   search on the surrogate, sharpening beta along the configured schedule;
2. prox-linear polish on the true objective: each step minimizes the
   linearized max plus a proximal term (mu/2)|d|^2, solved through its dual
   over the simplex of the |S(nu)| gradients, and adapts mu to how well the
   model predicted the decrease (Madsen's minimax method), so it converges
   to a Clarke-stationary point of the max instead of stalling at its kinks;
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
from .sums import RecoveryResult, UnimodularTuple, _running_powers, recover_structure

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
    return _objective_raw((np.asarray(t.thetas) + t.alpha_turns) % 1.0, t.n)


def _abs_squared_and_powers(thetas: np.ndarray, nu_max: int):
    """u[nu-1] = |S(nu)|^2, S[nu-1], and the power matrix z_k^nu."""
    powers = _running_powers(thetas, nu_max)
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


class _SnapTracker:
    """Keeps the best verified lattice candidate seen along a trajectory.

    An offer rounds the shifted angles onto the grid j/m; the exact lattice
    point counts when the j_k form a verified difference set.  An offer that
    rounds to the same j_k, with the same first angle, as the previous offer
    has the same lattice point and is skipped.
    """

    def __init__(self, n: int):
        self.n = n
        self.point: Optional[np.ndarray] = None
        self.value = math.inf
        self._last = None

    def offer(self, thetas: np.ndarray) -> None:
        n = self.n
        m = n * n - n + 1
        shifted = (thetas - thetas[0]) % 1.0
        js = np.rint(shifted * m).astype(int) % m
        residues = js.tolist()
        key = (float(thetas[0]), residues)
        if key == self._last:
            return
        self._last = key
        if len(set(residues)) != n or not verify(residues, n - 1).valid:
            return
        snapped = (js / m + thetas[0]) % 1.0
        value = _objective_raw(snapped, n)
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


_QP_ITERS = 100
_QP_TOL = 1e-12
_QP_RIDGE = 1e-13
_POLISH_STEPS = 200


def _min_norm_weights(gram: np.ndarray, linear: np.ndarray,
                      weights: np.ndarray) -> np.ndarray:
    """Active-set solver for min 1/2 w'(gram)w - linear'w over the simplex.

    With ``gram`` the Gram matrix of the gradients g_i and ``linear`` =
    mu * r this is the dual of the prox-linear step; with ``linear`` = 0 it
    is the min-norm point of the hull of the g_i (Wolfe 1976).  Starting from
    the support of ``weights``, each pass minimizes over the affine hull of
    the support (a KKT solve; the tiny ridge keeps it nonsingular when
    gradients coincide), moving only as far as the simplex allows and
    dropping the weight that reaches zero, then adds the index of least
    gradient.  It stops when the Frank-Wolfe gap is below _QP_TOL relative
    to the linear term, or when that index is already in the support, which
    in exact arithmetic cannot happen and marks the rounding floor.
    """
    weights = weights.copy()
    ridge = _QP_RIDGE * max(1.0, float(np.trace(gram)))
    tol = _QP_TOL * max(1.0, float(np.abs(linear).max()))
    support = np.flatnonzero(weights)
    for _ in range(_QP_ITERS):
        while True:
            size = support.size
            kkt = np.ones((size + 1, size + 1))
            kkt[size, size] = 0.0
            kkt[:size, :size] = gram[np.ix_(support, support)] + ridge * np.eye(size)
            target = np.linalg.solve(kkt, np.append(linear[support], 1.0))[:size]
            if (target > 0).all():
                break
            current = weights[support]
            out = np.flatnonzero(target <= 0)
            ratios = current[out] / (current[out] - target[out])
            drop = support[out[int(np.argmin(ratios))]]
            weights[support] = current + ratios.min() * (target - current)
            weights[drop] = 0.0
            support = support[weights[support] > 0]
        weights[support] = target
        grad = gram @ weights - linear
        toward = int(np.argmin(grad))
        if float(weights @ grad) - grad[toward] <= tol or weights[toward] > 0:
            break
        support = np.append(support, toward)
    return weights


def _polish(thetas: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Prox-linear (SLP) minimax steps on the true objective (Madsen 1975).

    Each step minimizes max_nu (r_nu + g_nu . d) + (mu/2)|d|^2 through its
    dual over the simplex and takes d = -G'w/mu.  A step is accepted when the
    objective drops by at least a tenth of the decrease the linear model
    predicts, and mu then halves; a rejected step quadruples mu.  mu starts
    at the largest |g_nu|^2 (1 when every gradient vanishes, so d = 0).  The
    loop ends when the predicted decrease is down to rounding level.
    """
    r, grads = _abs_values_and_grads(thetas, n)
    value = float(r.max())
    mu = float((grads * grads).sum(axis=1).max()) or 1.0
    weights = np.zeros(r.size)
    weights[int(np.argmax(r))] = 1.0
    for _ in range(_POLISH_STEPS):
        weights = _min_norm_weights(grads @ grads.T, mu * r, weights)
        step = -(weights @ grads) / mu
        predicted = value - float((r + grads @ step).max())
        if predicted <= 1e-15 * value:
            break
        candidate = (thetas + step) % 1.0
        cand_r, cand_grads = _abs_values_and_grads(candidate, n)
        cand_value = float(cand_r.max())
        if value - cand_value >= 0.1 * predicted:
            thetas, r, grads, value = candidate, cand_r, cand_grads, cand_value
            mu *= 0.5
        else:
            mu *= 4.0
    return thetas, _objective_raw(thetas, n)


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
    thetas, value = _polish(thetas, n)
    snap.offer(thetas)
    if snap.value < value:
        thetas, value = snap.point, snap.value
    return thetas, value, trace or []


def minimize(config: OptimizerConfig,
             trace_sink: Optional[Callable[[int, TraceRow], None]] = None
             ) -> OptimizerReport:
    """Multi-start minimization; deterministic for a fixed config.

    Each restart smooths, runs the prox-linear polish on the true max and
    keeps a verified lattice snap when that is lower (see the module
    docstring).  The restarts run in index order.  ``trace_sink``, when
    given, receives (restart_index, (iter, beta, value)) rows in restart
    order after the runs complete.
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
