"""Reference implementations the tests check the package against.

Each oracle computes a quantity the slow, obvious way: per-agent loops
for the stacked solver steps, partial-product closed forms for the
sensitivity recursions, one draw at a time for the counter-based
noise, and one iteration at a time, with its own draws and checks, for
the measured difference traces.  None of them is used by the package
itself.
"""

import numpy as np

from dpopt.errors import RangeError
from dpopt.noise import (
    _SEED_MASK,
    _STREAMS,
    _counter_words,
    _open_uniform,
    laplace_draws,
    laplace_inverse_cdf,
)
from dpopt.privacy import sensitivity_static, sensitivity_tracking
from dpopt.solvers import (
    _off_diagonal,
    effective_schedules,
    step_static,
    step_tracking,
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


def sample(scale, seed, agent, stream, iteration, dim):
    """The noise vector `agent` attaches to its message at `iteration`
    under a noise-scale schedule and seed, drawn alone; zeros for a None
    scale."""
    if agent < 0 or iteration < 0 or dim < 1:
        raise RangeError("agent, iteration and dim must be nonnegative")
    if scale is None:
        return np.zeros(dim)
    words = _counter_words(
        seed & _SEED_MASK, np.full(dim, agent), _STREAMS[stream],
        iteration, np.arange(dim),
    )
    return laplace_inverse_cdf(_open_uniform(words), scale.value(iteration))


def variance(scale, iteration):
    """Per-coordinate message noise variance under a noise-scale
    schedule at an iteration; 0 for a None scale."""
    if scale is None:
        return 0.0
    s = scale.value(iteration)
    return 2.0 * s * s


def _draw(scale, seed, m, stream, k, d):
    """The (m, d) message noise of one run at iteration k alone."""
    return laplace_draws(scale, [seed], m, stream, [k], d)[0, 0]


def difference_static_measured(variant, setup, adjacent, iterations, seed):
    """(diff, bound) of a measured static difference trace, stepped one
    iteration at a time with its shrink factor checked at each k."""
    sch = effective_schedules(variant, setup)
    agent = adjacent.agent
    W = setup.consensus.matrix
    self_mag = abs(float(W[agent, agent]))
    lam = sch.stepsize.values(np.arange(iterations))
    gam = sch.coupling.values(np.arange(iterations))
    s_bound = sensitivity_static(sch.stepsize, sch.coupling,
                                 setup.consensus.min_diag_mag, iterations)
    diff = np.zeros(iterations + 1)
    bound = np.zeros(iterations + 1)
    problem = setup.problem
    m, d = problem.m, problem.dim
    x = setup.init_radius * np.random.default_rng(seed).standard_normal((m, d))
    W_off = _off_diagonal(W)
    grads = problem.all_gradients(x)
    e = np.zeros(d)
    run_env = 0.0
    for k in range(iterations):
        if 1.0 - self_mag * gam[k] <= 0.0:
            raise RangeError("coupling too strong for the perturbed agent")
        zeta = _draw(sch.noise_scale, seed, m, "state", k, d)
        gdiff = problem.local_gradient(agent, x[agent]) \
            - adjacent.local_gradient(agent, x[agent] - e)
        run_env = max(run_env, float(np.abs(gdiff).sum()))
        e = (1.0 - self_mag * gam[k]) * e - lam[k] * gdiff
        x = step_static(x, grads, W, W_off, gam[k], lam[k], zeta)
        grads = problem.all_gradients(x)
        diff[k + 1] = float(np.abs(e).sum())
        bound[k + 1] = run_env * s_bound[k + 1]
    return diff, bound


def difference_tracking_measured(variant, setup, adjacent, iterations, seed):
    """(xdiff, xbound, ydiff, ybound) of a measured tracking difference
    trace, stepped one iteration at a time with its shrink factors
    checked at each k."""
    sch = effective_schedules(variant, setup)
    agent = adjacent.agent
    weights = setup.push_pull
    R, C = weights.pull, weights.push
    self_pull = abs(float(R[agent, agent]))
    self_push = abs(float(C[agent, agent]))
    idx = np.arange(iterations)
    lam = sch.stepsize.values(idx)
    g1 = sch.coupling_state.values(idx)
    g2 = sch.coupling_tracker.values(idx)
    alpha = np.zeros(iterations) if sch.tracker_mix is None \
        else sch.tracker_mix.values(idx)
    sx_bound, sy_bound = sensitivity_tracking(
        sch.stepsize, sch.tracker_mix, sch.coupling_state,
        sch.coupling_tracker, weights.min_diag_pull, weights.min_diag_push,
        iterations,
    )
    xdiff, xbound = np.zeros(iterations + 1), np.zeros(iterations + 1)
    ydiff, ybound = np.zeros(iterations + 1), np.zeros(iterations + 1)
    problem = setup.problem
    m, d = problem.m, problem.dim
    x = setup.init_radius * np.random.default_rng(seed).standard_normal((m, d))
    R_off, C_off = _off_diagonal(R), _off_diagonal(C)
    grads = problem.all_gradients(x)
    y = grads.copy()
    gdiff_prev = problem.local_gradient(agent, x[agent]) \
        - adjacent.local_gradient(agent, x[agent])
    ex = np.zeros(d)
    ey = np.zeros(d)
    run_env = float(np.abs(gdiff_prev).sum())
    for k in range(iterations):
        shrink_y = 1.0 - alpha[k] - self_push * g2[k]
        shrink_x = 1.0 - self_pull * g1[k]
        if shrink_y <= 0.0 or shrink_x <= 0.0:
            raise RangeError("coupling too strong for the perturbed agent")
        zeta = _draw(sch.noise_scale, seed, m, "state", k, d)
        xi = _draw(sch.noise_scale, seed, m, "tracker", k, d)
        ex_next = shrink_x * ex - lam[k] * ey
        x, y, grads = step_tracking(
            x, y, grads, problem, R, R_off, C, C_off,
            g1[k], g2[k], alpha[k], lam[k], zeta, xi,
        )
        gdiff = problem.local_gradient(agent, x[agent]) \
            - adjacent.local_gradient(agent, x[agent] - ex_next)
        run_env = max(run_env, float(np.abs(gdiff).sum()))
        ey = shrink_y * ey + gdiff - (1.0 - alpha[k]) * gdiff_prev
        ex = ex_next
        xdiff[k + 1] = float(np.abs(ex).sum())
        ydiff[k + 1] = float(np.abs(ey).sum())
        xbound[k + 1] = run_env * sx_bound[k + 1]
        ybound[k + 1] = run_env * sy_bound[k + 1]
        gdiff_prev = gdiff
    return xdiff, xbound, ydiff, ybound
