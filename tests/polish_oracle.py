"""Reference polish for tests of ``powersum.minimax``: the prox-linear steps,
their active-set dual and the gradient rows of |S(nu)| as they were before
the polish assembled its KKT systems by index and built gradient rows only
for accepted points.

Every function is kept as it was, except that ``_polish`` returns its value
without the lower-bound guard.  Each evaluation builds the gradient rows,
and each KKT system is assembled from ``np.ix_``, ``np.eye``, ``np.ones`` and
``np.append``.  ``powersum.minimax`` must return the same bits: the same
weights from ``_min_norm_weights``, the same gradient rows and the same
polished points and values.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _running_powers(effective_thetas: np.ndarray, nu_max: int) -> np.ndarray:
    """Matrix P[nu-1, k] = z_k^nu built by iterated multiplication.

    Cumulative products avoid evaluating trig at large arguments: each row is
    the previous one times z, exactly the running-powers recurrence.
    """
    z = np.exp((2j * np.pi) * effective_thetas)
    return np.cumprod(np.broadcast_to(z, (nu_max, z.size)), axis=0)


def _abs_squared_and_powers(thetas: np.ndarray, nu_max: int):
    """u[nu-1] = |S(nu)|^2, S[nu-1], and the power matrix z_k^nu."""
    powers = _running_powers(thetas, nu_max)
    s = powers.sum(axis=1)
    u = (s.real * s.real + s.imag * s.imag)
    return u, s, powers


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
    return thetas, value
