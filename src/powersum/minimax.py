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

The restarts are polished in lockstep, one step of every unfinished restart
per round, in blocks of consecutive indices sized by a byte budget on their
Gram and KKT matrices; each restart's KKT matrix is built once per accepted
point.  The dual weights of a block are one stack of rows [w, 1], each
updated in place by its restart's active-set solve, and the polish enters
the errstate under which a singular KKT system raises once for all its
rounds, so a dual solve pays for little beyond its LAPACK call and the numpy
calls its active set needs.  Every arithmetic operation of a restart is the
one it would get alone, and each restart has its own RNG stream derived from
(seed, restart index), so a fixed config always produces the same report,
bit for bit, whatever the block size.  The streams are numpy's:
``default_rng([seed, index]).uniform``, that is a SeedSequence seeding
PCG64, reproduced in pure Python by ``_uniform_angles``.  Importing
``numpy.random`` for them would cost more than a restart, and a numpy
release that changed ``Generator.uniform`` can no longer move the starts.

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

from .gf import DomainError, checked_int
from .pds import verify
from .sums import (RecoveryResult, UnimodularTuple, _geometric_rows, _lattice_rounding,
                   power_sums, recover_structure)

LOWER_BOUND_GUARD = 1e-9
TWO_PI = 2.0 * math.pi
# One restart's Gram and KKT matrices take 8 (nu^2 + (nu+1)^2) bytes, with
# nu = n^2 - n: 39 MB at n = 40 and 43 MB at n = 41.
MAX_OPTIMIZER_N = 40


def lower_bound(n: int) -> float:
    """The proven floor sqrt(n-1) for the objective."""
    return math.sqrt(n - 1)


def objective(t: UnimodularTuple) -> float:
    """max over nu = 1 .. n^2-n of |S(nu)|, the quantity being minimized: the
    ``max_abs`` of the tuple's profile (``sums.power_sums``), a ``DomainError``
    past the caps of ``sums``.  Guarded by the proven lower bound: a value
    below sqrt(n-1) - 1e-9 can only mean a numerical defect, and raises."""
    return _guarded(power_sums(t).max_abs, t.n)


def _abs_squared_and_powers(thetas: np.ndarray, nu_max: int):
    """u[..., nu-1] = |S(nu)|^2, S and the power matrices z_k^nu of a tuple's
    angles, or of each row of a stack of them, built by
    ``sums._geometric_rows``."""
    z = np.exp((2j * np.pi) * thetas)
    powers = _geometric_rows(z, z, nu_max)
    s = powers.sum(axis=-1)
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
    """A ``minimize`` call: n in 2 .. MAX_OPTIMIZER_N, restarts >= 1 and
    seed >= 0, each an int (``checked_int``), else ``DomainError``."""

    n: int
    restarts: int = 50
    seed: int = 0

    def __post_init__(self):
        # the polish sizes its stacks by these: a non-integer fails here, not deep inside
        for name, least in (("n", 2), ("restarts", 1), ("seed", 0)):
            object.__setattr__(self, name, checked_int(getattr(self, name), name, least))
        if self.n > MAX_OPTIMIZER_N:
            raise DomainError(f"n = {self.n} exceeds the cap {MAX_OPTIMIZER_N}")


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
    grads = scale * (np.conj(s)[..., None] * powers).imag / np.maximum(r, 1e-300)[..., None]
    grads[..., 0] = 0.0
    return r, grads


_QP_ITERS = 100
_QP_TOL = 1e-12
_QP_RIDGE = 1e-13
_POLISH_STEPS = 200
# Restarts are polished in blocks whose Gram and KKT matrices, 8 (nu^2 +
# (nu+1)^2) bytes per restart, fit in this many bytes: about a core's L2
# cache, as each round of the lockstep reads every one of them.
_BLOCK_BYTES = 1 << 21


def _singular(err: str, flag: int) -> None:
    """errstate callback: the LAPACK solve flags a singular system as invalid."""
    raise ArithmeticError("Singular matrix")


def _singular_raises() -> np.errstate:
    """The floating-point state the dual solves run under: a singular KKT
    system, which LAPACK's solve flags as invalid, raises ArithmeticError
    instead of returning NaN."""
    return np.errstate(call=_singular, invalid="call")


def _set_grams(grams: list, bordered: np.ndarray, slots: np.ndarray, grads) -> None:
    """For each slot and its gradient rows g in ``grads``, replace grams[slot]
    by the Gram matrix g g' and set it, with a tiny ridge on its diagonal,
    into the top-left block of bordered[slot], a KKT matrix [[*, 1], [1', 0]]
    of the dual; the ridge keeps the KKT systems nonsingular when gradients
    coincide.  Each Gram matrix is dropped before its successor is formed,
    so the product lands in the memory just freed, still in cache, where
    holding both would fault fresh memory in at every round."""
    size = bordered.shape[-1] - 1
    for slot, g in zip(slots.tolist(), grads):
        grams[slot] = None
        grams[slot] = g @ g.T
        bordered[slot, :size, :size] = grams[slot]
    diagonals = bordered.reshape(len(bordered), -1)[:, :size * (size + 2):size + 2]
    entries = diagonals.take(slots, 0)  # their sums are the traces, to the bit
    diagonals[slots] = entries + _QP_RIDGE * np.fmax(1.0, entries.sum(axis=1))[:, None]


def _min_norm_weights(gram: np.ndarray, bordered: np.ndarray, rhs: np.ndarray,
                      tol: float, row: np.ndarray) -> None:
    """Active-set solver for min 1/2 w'(gram)w - linear'w over the simplex.

    With ``gram`` the Gram matrix of the gradients g_i and ``linear`` =
    mu * r this is the dual of the prox-linear step; with ``linear`` = 0 it
    is the min-norm point of the hull of the g_i (Wolfe 1976).  Starting from
    the support of the weights w, each pass minimizes over the affine hull
    of the support (a KKT solve), moving only as far as the simplex allows
    and dropping the weight that reaches zero, then adds the index of least
    gradient.  It stops when the Frank-Wolfe gap is below ``tol`` (_QP_TOL
    relative to the linear term), or when that index is already in the
    support, which in exact arithmetic cannot happen and marks the rounding
    floor.

    ``row`` is [w, 1], the warm start, and the solution is written into it
    in place; its last entry, the border's 1, is never written, so the
    indices of its nonzero entries are the support followed by the border
    index.  ``bordered`` is the KKT matrix of ``gram`` (``_set_grams``),
    built once per point, and ``rhs`` is [linear, 1]; each KKT system is
    gathered from them by the support and the border index with ``take``,
    which copies the same entries as a fancy index at less cost, and solved
    by LAPACK's gesv through ``solve1``, the gufunc behind
    ``np.linalg.solve`` (float64 operands select its double loop), with the
    same bits and without that wrapper's per-call cost; ``ndarray.dot``
    makes the same BLAS calls as ``@`` at about half the call cost.  The
    caller holds the errstate of ``_singular_raises``, under which a
    singular system raises ArithmeticError; without it the solve only warns
    and returns NaN.
    """
    size = row.size - 1
    weights = row[:size]
    linear = rhs[:size]
    idx = row.nonzero()[0]
    for _ in range(_QP_ITERS):
        while True:
            target = _solve1(bordered.take(idx, 0).take(idx, 1), rhs.take(idx))[:-1]
            support = idx[:-1]
            if min(target.tolist()) > 0:
                break
            current = weights[support]
            out = (target <= 0).nonzero()[0]
            shrink = current[out]
            ratios = shrink / (shrink - target[out])
            first = int(ratios.argmin())
            weights[support] = current + ratios[first] * (target - current)
            weights[support[out[first]]] = 0.0
            idx = idx[row[idx] > 0]
        weights[support] = target
        grad = gram.dot(weights) - linear
        toward = int(grad.argmin())
        if float(weights.dot(grad)) - grad[toward] <= tol or weights[toward] > 0:
            break
        idx = np.concatenate((support, (toward, size)))


def _polish(starts: np.ndarray, n: int) -> tuple[np.ndarray, list[float]]:
    """Prox-linear (SLP) minimax steps on the true objective (Madsen 1975)
    from each row of ``starts``: the polished rows and their values.

    Each step minimizes max_nu (r_nu + g_nu . d) + (mu/2)|d|^2 through its
    dual over the simplex and takes d = -G'w/mu.  A step is accepted when the
    objective drops by at least a tenth of the decrease the linear model
    predicts, and mu then halves; a rejected step quadruples mu.  mu starts
    at the largest |g_nu|^2 (1 when every gradient vanishes, so d = 0).  A
    row's steps end when its predicted decrease is down to rounding level.

    The rows move in lockstep, one step per round.  The evaluation, the
    gradient rows, the right-hand sides mu*r, the tolerances, the step, the
    predicted decrease and the accept test are each one numpy call on the
    stacked rows still running, and a row leaves the stack when its
    predicted decrease ends it.  Each row keeps its own Gram matrix (a syrk
    product, whose bits a batched product would not keep) and KKT matrix,
    and only the dual's active-set iterations run row by row: the dual
    weights are one stack of rows [w, 1], each passed to
    ``_min_norm_weights`` and updated there in place, and the step reads
    their first nu columns.  The rounds run under ``_singular_raises()``,
    entered once, so any invalid operation in them raises ArithmeticError;
    from finite starts only a singular KKT system makes one.  A candidate is
    judged on its value alone: gradient rows, the Gram matrix and the KKT
    matrix are built only for the start and each accepted point, and a
    rejected step reuses them.  Each row gets the bits it would get alone.
    """
    nu_max = n * n - n
    scale = -TWO_PI * np.arange(1, nu_max + 1)[:, None]
    thetas = starts.copy()
    r, grads = _abs_values_and_grads(*_abs_squared_and_powers(thetas, nu_max), scale)
    values = r.max(axis=1)
    mu = (grads * grads).sum(axis=2).max(axis=1)
    mu[mu == 0.0] = 1.0
    # row i holds restart i's dual weights w and, last, the border's 1
    weights = np.zeros((len(r), nu_max + 1))
    weights[:, nu_max] = 1.0
    weights[np.arange(len(r)), r.argmax(axis=1)] = 1.0
    # row i of starts has its Gram and KKT matrices in slot i, and live
    # holds the slot of each row still running
    live = np.arange(len(thetas))
    grams = [None] * len(thetas)
    kkts = np.ones((len(thetas), nu_max + 1, nu_max + 1))
    kkts[:, nu_max, nu_max] = 0.0
    _set_grams(grams, kkts, live, grads)
    polished, final = thetas.copy(), values.copy()
    with _singular_raises():
        for _ in range(_POLISH_STEPS):
            rhs = np.ones((len(live), nu_max + 1))
            np.multiply(mu[:, None], r, out=rhs[:, :nu_max])
            # max |mu r| is mu times the value exactly, as rounding is monotone
            tols = (_QP_TOL * np.fmax(1.0, mu * values)).tolist()
            for slot, b, tol, row in zip(live.tolist(), rhs, tols, weights):
                _min_norm_weights(grams[slot], kkts[slot], b, tol, row)
            step = -np.matmul(weights[:, None, :nu_max], grads)[:, 0] / mu[:, None]
            predicted = values - (r + np.matmul(grads, step[:, :, None])[..., 0]).max(axis=1)
            ended = predicted <= 1e-15 * values
            if ended.any():
                polished[live[ended]], final[live[ended]] = thetas[ended], values[ended]
                going = ~ended
                if not going.any():
                    break
                live, thetas, values, mu, r, grads, weights, step, predicted = (
                    a[going] for a in (live, thetas, values, mu, r, grads, weights, step,
                                       predicted))
            candidate = (thetas + step) % 1.0
            u, s, powers = _abs_squared_and_powers(candidate, nu_max)
            cand_values = np.sqrt(u.max(axis=1))
            accepted = values - cand_values >= 0.1 * predicted
            mu *= np.where(accepted, 0.5, 4.0)
            rows = accepted.nonzero()[0]
            if not rows.size:
                continue
            if rows.size == accepted.size:  # every row moves: no gather, no scatter
                thetas, values = candidate, cand_values
                r, grads = _abs_values_and_grads(u, s, powers, scale)
                fresh = grads
            else:
                thetas[rows], values[rows] = candidate[rows], cand_values[rows]
                r[rows], fresh = _abs_values_and_grads(u[rows], s[rows], powers[rows], scale)
                grads[rows] = fresh
            _set_grams(grams, kkts, live[rows], fresh)
        else:
            polished[live], final[live] = thetas, values
    # a value is _objective_raw of its row to the bit: sqrt is monotone and exact-rounded
    return polished, [_guarded(value, n) for value in final.tolist()]


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


def _restarts(config: OptimizerConfig, indices: range) -> list[tuple[np.ndarray, float]]:
    """The restarts ``indices``, polished in lockstep and each then snapped."""
    starts = np.array([_uniform_angles([config.seed, index], config.n)
                       for index in indices])
    starts[:, 0] = 0.0
    polished, values = _polish(starts, config.n)
    runs = []
    for start, thetas, value in zip(starts, polished, values):
        # each point is rounded once; the polish leaves the first angle at 0,
        # so a repeated rounding names the same lattice tuple and is verified once
        roundings = [_lattice_rounding(start)[0]]
        rounded = _lattice_rounding(thetas)[0]
        if rounded != roundings[0]:
            roundings.append(rounded)
        for js in roundings:
            snapped = _snap(js, config.n)
            if snapped is not None and snapped[1] < value:
                thetas, value = snapped
        runs.append((thetas, value))
    return runs


def minimize(config: OptimizerConfig) -> OptimizerReport:
    """Multi-start minimization; deterministic for a fixed config.

    Each restart polishes a random start with the prox-linear method on the
    true max, then adopts the verified lattice snap of the start or of the
    polished point when that is lower (see the module docstring).  The
    restarts are polished in lockstep, in blocks of consecutive indices
    sized by ``_BLOCK_BYTES``, so memory stays bounded at any n and any
    number of restarts; every restart gets the bits it would get alone.
    """
    nu_max = config.n * config.n - config.n
    size = max(1, _BLOCK_BYTES // (8 * (nu_max * nu_max + (nu_max + 1) ** 2)))
    runs = []
    for first in range(0, config.restarts, size):
        runs += _restarts(config, range(first, min(first + size, config.restarts)))
    indices = range(config.restarts)

    values = tuple(value for _, value in runs)
    best_index = min(indices, key=lambda r: (values[r], r))
    best_thetas = runs[best_index][0]
    best_tuple = UnimodularTuple(tuple(float(x) for x in best_thetas),
                                 alpha_turns=0.0)
    best_value = values[best_index]
    gap = best_value - lower_bound(config.n)
    recovered = recover_structure(best_tuple)
    return OptimizerReport(best_value=best_value, best_tuple=best_tuple,
                           per_restart_values=values, recovered=recovered,
                           gap_to_bound=gap)
