"""Numerical probe of the power-sum inf-max problem.

The objective is f(theta) = max over nu = 1 .. n^2-n of |S(nu)|, minimized
over unimodular tuples with the rotation gauge theta_1 = 0.  Each restart
draws a uniform random start and runs two deterministic stages:

1. prox-linear polish on the true objective: each step minimizes the
   linearized max plus a proximal term (mu/2)|d|^2, solved through its dual
   over the simplex of the |S(nu)| gradients, and adapts mu to how well the
   model predicted the decrease (Madsen's minimax method), so it converges
   to a Clarke-stationary point of the max instead of stalling at its kinks;
2. lattice snapping: the start and the polished point are each rounded onto
   angles j_k/m; when the j_k form a verified difference set, that exact
   lattice tuple is adopted if it is lower than the polished point on the
   true objective.  When no difference set of order n-1 exists the snap
   can never verify and the stage is a no-op.

Restarts run one after another, each on its own RNG stream derived from
(seed, restart index), so a fixed config always produces the same report.
The streams are numpy's: ``default_rng([seed, index]).uniform``, that is a
SeedSequence seeding PCG64, reproduced in pure Python by ``_uniform_angles``.
Importing ``numpy.random`` for them would cost more than a restart, and a
numpy release that changed ``Generator.uniform`` can no longer move the
starts.

The optimizer gathers evidence only.  At default settings (50 restarts) it
reaches sqrt(n-1), with the difference set recovered, at n <= 4 and, on some
seeds, at n = 5; at n = 6 it has not reached the bound on any seed tried.
At n = 7, where no difference set of order 6 exists, the report stays
NotMinimizer and the best value stays strictly above the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1

from .gf import DomainError
from .pds import verify
from .sums import (RecoveryResult, UnimodularTuple, _geometric_rows, _lattice_rounding,
                   recover_structure)

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
    z = np.exp((2j * np.pi) * thetas)
    powers = _geometric_rows(z, z, nu_max)
    s = powers.sum(axis=1)
    u = (s.real * s.real + s.imag * s.imag)
    return u, s, powers


def _guarded(value: float, n: int) -> float:
    """The objective value, once checked against the proven floor sqrt(n-1)."""
    if value < lower_bound(n) - LOWER_BOUND_GUARD:
        raise ArithmeticError(
            f"objective {value} fell below the proven bound {lower_bound(n)}")
    return value


def _objective_raw(thetas: np.ndarray, n: int) -> float:
    u, _, _ = _abs_squared_and_powers(thetas, n * n - n)
    return _guarded(math.sqrt(float(u.max())), n)


@dataclass(frozen=True)
class OptimizerConfig:
    n: int
    restarts: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("n must be >= 2")
        if self.restarts < 1:
            raise DomainError("restarts must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")


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


# ---------------------------------------------------------------------------
# Stage helpers
# ---------------------------------------------------------------------------


def _abs_values_and_grads(u: np.ndarray, s: np.ndarray, powers: np.ndarray,
                          scale: np.ndarray):
    """r_nu = |S(nu)| and gradient rows d r_nu / d theta (gauge-fixed) from
    ``_abs_squared_and_powers``, with ``scale`` the column -2 pi nu; the rows are
    fresh and C-contiguous, as a strided view moves ``grads @ grads.T`` by ulps."""
    r = np.sqrt(u)
    grads = scale * (np.conj(s)[:, None] * powers).imag / np.maximum(r, 1e-300)[:, None]
    grads[:, 0] = 0.0
    return r, grads


_QP_ITERS = 100
_QP_TOL = 1e-12
_QP_RIDGE = 1e-13
_POLISH_STEPS = 200


def _singular(err: str, flag: int) -> None:
    """errstate callback: the LAPACK solve flags a singular system as invalid."""
    raise ArithmeticError("Singular matrix")


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

    The bordered matrix [[gram + ridge I, 1], [1', 0]] and the right-hand
    side [linear, 1] are built once; each KKT system is one fancy index of
    them by the support and the border index, solved by LAPACK's gesv
    through ``solve1``, the gufunc behind ``np.linalg.solve``, with the same
    bits and without that wrapper's per-call cost.  A singular system raises
    ArithmeticError.
    """
    size = linear.size
    # a weight of 1 stands for the border, so filtering ``idx`` by weight
    # keeps the border index last
    extended = np.concatenate((weights, (1.0,)))
    weights = extended[:size]
    ridge = _QP_RIDGE * max(1.0, float(gram.trace()))
    tol = _QP_TOL * max(1.0, float(np.abs(linear).max()))
    bordered = np.empty((size + 1, size + 1))
    bordered[:size, :size] = gram
    bordered.reshape(-1)[:size * (size + 2):size + 2] += ridge  # its diagonal
    bordered[size], bordered[:size, size], bordered[size, size] = 1.0, 1.0, 0.0
    rhs = np.concatenate((linear, (1.0,)))
    idx = extended.nonzero()[0]
    with np.errstate(call=_singular, invalid="call"):
        for _ in range(_QP_ITERS):
            while True:
                target = _solve1(bordered[idx[:, None], idx], rhs[idx],
                                 signature="dd->d")[:-1]
                support = idx[:-1]
                if target.min() > 0:
                    break
                current = weights[support]
                out = (target <= 0).nonzero()[0]
                ratios = current[out] / (current[out] - target[out])
                first = int(ratios.argmin())
                weights[support] = current + ratios[first] * (target - current)
                weights[support[out[first]]] = 0.0
                idx = idx[extended[idx] > 0]
            weights[support] = target
            grad = gram @ weights - linear
            toward = int(grad.argmin())
            if float(weights @ grad) - grad[toward] <= tol or weights[toward] > 0:
                break
            idx = np.concatenate((support, (toward, size)))
    return weights


def _polish(thetas: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Prox-linear (SLP) minimax steps on the true objective (Madsen 1975).

    Each step minimizes max_nu (r_nu + g_nu . d) + (mu/2)|d|^2 through its
    dual over the simplex and takes d = -G'w/mu.  A step is accepted when the
    objective drops by at least a tenth of the decrease the linear model
    predicts, and mu then halves; a rejected step quadruples mu.  mu starts
    at the largest |g_nu|^2 (1 when every gradient vanishes, so d = 0).  The
    loop ends when the predicted decrease is down to rounding level.  A
    candidate is judged on its value alone: gradient rows and their Gram
    matrix are built only for the start and each accepted point, from the
    S(nu) and powers at hand, and a rejected step reuses them.
    """
    nu_max = n * n - n
    scale = -TWO_PI * np.arange(1, nu_max + 1)[:, None]
    r, grads = _abs_values_and_grads(*_abs_squared_and_powers(thetas, nu_max), scale)
    value = float(r.max())
    mu = float((grads * grads).sum(axis=1).max()) or 1.0
    weights = np.zeros(nu_max)
    weights[int(r.argmax())] = 1.0
    gram = grads @ grads.T
    for _ in range(_POLISH_STEPS):
        weights = _min_norm_weights(gram, mu * r, weights)
        step = -(weights @ grads) / mu
        predicted = value - float((r + grads @ step).max())
        if predicted <= 1e-15 * value:
            break
        candidate = (thetas + step) % 1.0
        u, s, powers = _abs_squared_and_powers(candidate, nu_max)
        cand_value = math.sqrt(float(u.max()))
        if value - cand_value >= 0.1 * predicted:
            thetas, value = candidate, cand_value
            r, grads = _abs_values_and_grads(u, s, powers, scale)
            gram = grads @ grads.T
            mu *= 0.5
        else:
            mu *= 4.0
    # value is _objective_raw(thetas, n) to the bit: sqrt is monotone and exact-rounded
    return thetas, _guarded(value, n)


def _snap(js: list[int], n: int) -> Optional[tuple[np.ndarray, float]]:
    """The exact lattice tuple j_k/m, with its value, for a point's rounding
    ``js`` by ``sums._lattice_rounding``; the restarts fix the first angle at 0.

    The tuple counts only when the j_k form a verified difference set of
    order n-1, and None is returned otherwise.
    """
    if not verify(js, n - 1).valid:
        return None
    snapped = np.array(js) / (n * n - n + 1)
    return snapped, _objective_raw(snapped, n)


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uniform_angles(entropy: list[int], n: int) -> list[float]:
    """``np.random.default_rng(entropy).uniform(0.0, 1.0, n).tolist()``, bit
    for bit, in pure Python; the ints of ``entropy`` are non-negative.

    A SeedSequence with a pool of four 32-bit words hashes the entropy, each
    int split into little-endian 32-bit words; four 64-bit words of its state
    seed PCG64 (the 128-bit LCG with the XSL-RR output), and each draw is
    (x >> 11) * 2^-53.  The constants are those of numpy's SeedSequence and
    PCG64.
    """
    words = []
    for value in entropy:
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    mult = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    mult, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ mult
        mult = mult * 0x58F38DED & _MASK32
        value = value * mult & _MASK32
        state.append(value ^ value >> 16)
    seed = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
    inc = (seed[2] << 64 | seed[3]) << 1 | 1
    # seeding steps once from 0, adds the initial state and steps again
    lcg = (inc + (seed[0] << 64 | seed[1])) * _PCG64_MULT + inc & _MASK128
    draws = []
    for _ in range(n):
        lcg = lcg * _PCG64_MULT + inc & _MASK128
        x, rot = (lcg >> 64 ^ lcg) & _MASK64, lcg >> 122
        draws.append((((x >> rot | x << (64 - rot)) & _MASK64) >> 11) * 2.0 ** -53)
    return draws


def _run_restart(config: OptimizerConfig, index: int) -> tuple[np.ndarray, float]:
    start = np.array(_uniform_angles([config.seed, index], config.n))
    start[0] = 0.0
    thetas, value = _polish(start, config.n)
    # each point is rounded once; the polish leaves the first angle at 0, so
    # a repeated rounding names the same lattice tuple and is verified once
    roundings = [_lattice_rounding(start)[0]]
    polished = _lattice_rounding(thetas)[0]
    if polished != roundings[0]:
        roundings.append(polished)
    for js in roundings:
        snapped = _snap(js, config.n)
        if snapped is not None and snapped[1] < value:
            thetas, value = snapped
    return thetas, value


def minimize(config: OptimizerConfig) -> OptimizerReport:
    """Multi-start minimization; deterministic for a fixed config.

    Each restart polishes a random start with the prox-linear method on the
    true max, then adopts the verified lattice snap of the start or of the
    polished point when that is lower (see the module docstring).  The
    restarts run in index order.
    """
    indices = range(config.restarts)
    runs = [_run_restart(config, r) for r in indices]

    values = tuple(value for _, value in runs)
    best_index = min(indices, key=lambda r: (values[r], r))
    best_thetas = runs[best_index][0]
    best_tuple = UnimodularTuple(tuple(float(x) for x in best_thetas),
                                 alpha_turns=0.0)
    best_value = values[best_index]
    gap = best_value - lower_bound(config.n)
    if gap < -1e-6:
        raise ArithmeticError(f"best value {best_value} violates the bound")

    recovered = recover_structure(best_tuple)
    return OptimizerReport(best_value=best_value, best_tuple=best_tuple,
                           per_restart_values=values, recovered=recovered,
                           gap_to_bound=gap)
