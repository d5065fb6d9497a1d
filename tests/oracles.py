"""Reference implementations the tests check the package against.

Each oracle computes a quantity the slow, obvious way: per-agent loops
for the stacked solver steps, partial-product closed forms for the
sensitivity recursions, and one draw at a time for the counter-based
noise.  None of them is used by the package itself.
"""

import numpy as np

from dpopt.errors import RangeError
from dpopt.noise import (
    _SEED_MASK,
    _STREAMS,
    _counter_words,
    _open_uniform,
    laplace_inverse_cdf,
)


def step_static_per_agent(x, grads, W, gamma_k, lam_k, zeta):
    """Reference per-agent loop for the static-consensus update."""
    m, d = x.shape
    out = np.empty_like(x)
    for i in range(m):
        acc = np.zeros(d)
        for j in range(m):
            if j != i and W[i, j] != 0.0:
                acc += W[i, j] * (x[j] + zeta[j] - x[i])
        out[i] = x[i] + gamma_k * acc - lam_k * grads[i]
    return out


def step_tracking_per_agent(x, y, g_prev, problem, R, C,
                            gamma1_k, gamma2_k, alpha_k, lam_k, zeta, xi):
    """Reference per-agent loop for the gradient-tracking update."""
    m, d = x.shape
    x_next = np.empty_like(x)
    for i in range(m):
        acc = np.zeros(d)
        for j in range(m):
            if j != i and R[i, j] != 0.0:
                acc += R[i, j] * (x[j] + zeta[j])
        x_next[i] = (1.0 + gamma1_k * R[i, i]) * x[i] + gamma1_k * acc \
            - lam_k * y[i]
    g_next = np.array(
        [problem.local_gradient(i, x_next[i]) for i in range(m)]
    )
    y_next = np.empty_like(y)
    for i in range(m):
        acc = np.zeros(d)
        for j in range(m):
            if j != i and C[i, j] != 0.0:
                acc += C[i, j] * (y[j] + xi[j])
        y_next[i] = (1.0 - alpha_k + gamma2_k * C[i, i]) * y[i] \
            + gamma2_k * acc + g_next[i] - (1.0 - alpha_k) * g_prev[i]
    return x_next, y_next, g_next


def sensitivity_static_closed_form(stepsize, coupling, min_coupling, k):
    """Partial-product closed form of the static sensitivity at one k.

    s^k = sum_{p=1..k-1} prod_{q=p..k-1}(1 - wbar gamma^q) lam^{p-1}
          + lam^{k-1}.

    Quadratic in k; an independent reference for the recursion.
    """
    if k < 1:
        raise RangeError("closed form defined for k >= 1")
    total = 0.0
    for p in range(1, k):
        prod = 1.0
        for q in range(p, k):
            prod *= 1.0 - min_coupling * coupling.value(q)
        total += prod * stepsize.value(p - 1)
    return total + stepsize.value(k - 1)


def sensitivity_tracking_closed_form(stepsize, tracker_mix, coupling_state,
                                     coupling_tracker, min_diag_pull,
                                     min_diag_push, k):
    """Partial-product closed forms (s_x^k, s_y^k) at one index."""
    if k < 1:
        raise RangeError("closed form defined for k >= 1")

    def alpha(j):
        return 0.0 if tracker_mix is None else tracker_mix.value(j)

    def sy_at(kk):
        if kk < 1:
            return 0.0
        total = 0.0
        for p in range(1, kk):
            prod = 1.0
            for q in range(p, kk):
                prod *= 1.0 - alpha(q) - min_diag_push * coupling_tracker.value(q)
            total += prod * (2.0 - alpha(p - 1))
        return total + (2.0 - alpha(kk - 1))

    total = 0.0
    for p in range(1, k):
        prod = 1.0
        for q in range(p, k):
            prod *= 1.0 - min_diag_pull * coupling_state.value(q)
        total += prod * stepsize.value(p - 1) * sy_at(p - 1)
    sx = total + stepsize.value(k - 1) * sy_at(k - 1)
    return sx, sy_at(k)


def sample(source, agent, stream, iteration, dim):
    """The noise vector `agent` attaches to its message at `iteration`,
    drawn alone from a LaplaceNoiseSource; zeros for a silent source."""
    if agent < 0 or iteration < 0 or dim < 1:
        raise RangeError("agent, iteration and dim must be nonnegative")
    if source.scale is None:
        return np.zeros(dim)
    words = _counter_words(
        source.seed & _SEED_MASK, np.full(dim, agent), _STREAMS[stream],
        iteration, np.arange(dim),
    )
    return laplace_inverse_cdf(_open_uniform(words),
                               source.scale.value(iteration))


def variance(source, iteration):
    """Per-coordinate message noise variance of a source at an iteration."""
    if source.scale is None:
        return 0.0
    s = source.scale.value(iteration)
    return 2.0 * s * s
