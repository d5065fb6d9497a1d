"""Coupled difference traces: the measured counterpart of the
sensitivity bound.

A difference trace runs the solver on one problem and tracks, for one
perturbed agent, how far its iterate would drift on the adjacent problem
when both runs observe identical incoming messages.  The drift is set
against the sensitivity recursion of the privacy accountant, scaled by
the gradient-difference envelope, and must stay below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .noise import NOISE_CHUNK, laplace_draws
from .objectives import AdjacentVariant
from .privacy import (
    _recurse,
    _recurse_pair,
    sensitivity_static,
    sensitivity_tracking,
)
from .solvers import (
    RunSetup,
    Variant,
    _off_diagonal,
    effective_schedules,
    step_static,
    step_tracking,
)


@dataclass
class DifferenceTrace:
    """Coupled difference dynamics against the sensitivity bound.

    state_diff[k] is ||x_i^k - x'_i^k||_1 for the perturbed agent under
    observation-matched coupling, state_bound[k] the analytic bound it
    must stay below; tracking runs also carry the tracker pair.  The
    ratio maximum is taken over k >= 1 with 0/0 counted as 0, and ok
    flips to False at the first bound violation.
    """

    ks: np.ndarray
    state_diff: np.ndarray
    state_bound: np.ndarray
    tracker_diff: np.ndarray | None
    tracker_bound: np.ndarray | None
    max_ratio: float
    ok: bool
    violation_k: int | None


def _ratio_scan(ks, diffs, bounds):
    """Largest diff/bound ratio over k >= 1 and all streams, and the
    first k at which any stream exceeds 1 + 1e-9.

    A zero bound counts as ratio 0 for a zero difference and inf
    otherwise; NaN ratios are skipped.
    """
    d = np.vstack(diffs)[:, 1:]
    b = np.vstack(bounds)[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(b > 0, d / b, np.where(d == 0.0, 0.0, math.inf))
    positive = ratio[ratio > 0.0]
    worst = float(positive.max()) if positive.size else 0.0
    over = np.flatnonzero((ratio > 1.0 + 1e-9).any(axis=0))
    violation = int(ks[over[0] + 1]) if over.size else None
    return worst, violation


def _trace(diffs, bounds) -> DifferenceTrace:
    """The trace of the state pair, plus the tracker pair when given."""
    ks = np.arange(len(diffs[0]))
    worst, violation = _ratio_scan(ks, diffs, bounds)
    tracker = (diffs[1], bounds[1]) if len(diffs) > 1 else (None, None)
    return DifferenceTrace(ks, diffs[0], bounds[0], *tracker,
                           worst, violation is None, violation)


def _draws(scale, seed, n_agents, stream, iterations, dim):
    """Yield one run's (n_agents, dim) draws of iterations 0, 1, ...,
    iterations - 1 in turn, drawn NOISE_CHUNK iterations at a time."""
    for start in range(0, iterations, NOISE_CHUNK):
        ks = np.arange(start, min(start + NOISE_CHUNK, iterations))
        yield from laplace_draws(scale, [seed], n_agents, stream, ks,
                                 dim)[:, 0]


def coupled_difference_trace(
    variant: str,
    setup: RunSetup,
    adjacent: AdjacentVariant,
    iterations: int,
    seed: int,
    envelope: float | None = None,
) -> DifferenceTrace:
    """Simulate the per-agent difference dynamics between adjacent runs.

    With envelope=None the difference equation is driven by measured
    gradient differences along the primal trajectory, and the bound uses
    the running maximum of those differences.  With a numeric envelope
    the worst-case scalar recursion replaces the measured one (the
    gradient-difference norm is capped by the envelope at every step)
    and the bound uses the constant envelope throughout; domination is
    then exact in exact arithmetic.  In floating point max_ratio can
    reach 1 + a few ulp (1.0000000000000024 on alg2 at envelope 0.3
    over 5000 iterations), which the 1e-9 slack of _ratio_scan
    absorbs.
    """
    if iterations < 1:
        raise RangeError("iterations must be positive")
    sch = effective_schedules(variant, setup)
    difference = _difference_tracking if Variant.of(variant).tracking \
        else _difference_static
    return difference(setup, adjacent, sch, iterations, seed, envelope)


def _difference_static(setup, adjacent, sch, iterations, seed, envelope):
    agent = adjacent.agent
    W = setup.consensus.matrix
    ks = np.arange(iterations)
    lam = sch.stepsize.values(ks)
    gam = sch.coupling.values(ks)
    s_bound = sensitivity_static(sch.stepsize, sch.coupling,
                                 setup.consensus.min_diag_mag, iterations)
    shrink = 1.0 - abs(float(W[agent, agent])) * gam
    if np.any(shrink <= 0.0):
        raise RangeError("coupling too strong for the perturbed agent")

    bound = np.zeros(iterations + 1)
    if envelope is not None:
        bound[1:] = envelope * s_bound[1:]
        return _trace([_recurse(shrink, lam * envelope)], [bound])

    diff = np.zeros(iterations + 1)
    problem = setup.problem
    m, d_dim = problem.m, problem.dim
    rng = np.random.default_rng(seed)
    x = setup.init_radius * rng.standard_normal((m, d_dim))
    W_off = _off_diagonal(W)
    grads = problem.all_gradients(x)
    e = np.zeros(d_dim)
    run_env = 0.0
    zetas = _draws(sch.noise_scale, seed, m, "state", iterations, d_dim)
    for k, zeta in enumerate(zetas):
        gdiff = problem.local_gradient(agent, x[agent]) \
            - adjacent.local_gradient(agent, x[agent] - e)
        run_env = max(run_env, float(np.abs(gdiff).sum()))
        e = shrink[k] * e - lam[k] * gdiff
        x = step_static(x, grads, W, W_off, gam[k], lam[k], zeta)
        grads = problem.all_gradients(x)
        diff[k + 1] = float(np.abs(e).sum())
        bound[k + 1] = run_env * s_bound[k + 1]
    return _trace([diff], [bound])


def _difference_tracking(setup, adjacent, sch, iterations, seed, envelope):
    agent = adjacent.agent
    weights = setup.push_pull
    R, C = weights.pull, weights.push
    ks = np.arange(iterations)
    lam = sch.stepsize.values(ks)
    g1 = sch.coupling_state.values(ks)
    g2 = sch.coupling_tracker.values(ks)
    alpha = np.zeros(iterations) if sch.tracker_mix is None \
        else sch.tracker_mix.values(ks)
    sx_bound, sy_bound = sensitivity_tracking(
        sch.stepsize, sch.tracker_mix, sch.coupling_state,
        sch.coupling_tracker, weights.min_diag_pull, weights.min_diag_push,
        iterations,
    )
    shrink_y = 1.0 - alpha - abs(float(C[agent, agent])) * g2
    shrink_x = 1.0 - abs(float(R[agent, agent])) * g1
    if np.any(shrink_y <= 0.0) or np.any(shrink_x <= 0.0):
        raise RangeError("coupling too strong for the perturbed agent")

    xbound = np.zeros(iterations + 1)
    ybound = np.zeros(iterations + 1)
    if envelope is not None:
        xbound[1:] = 2.0 * envelope * sx_bound[1:]
        ybound[1:] = 2.0 * envelope * sy_bound[1:]
        return _trace(
            _recurse_pair(shrink_x, lam, shrink_y,
                          (2.0 - alpha) * 2.0 * envelope),
            [xbound, ybound],
        )

    xdiff = np.zeros(iterations + 1)
    ydiff = np.zeros(iterations + 1)
    problem = setup.problem
    m, d_dim = problem.m, problem.dim
    rng = np.random.default_rng(seed)
    x = setup.init_radius * rng.standard_normal((m, d_dim))
    R_off, C_off = _off_diagonal(R), _off_diagonal(C)
    grads = problem.all_gradients(x)
    y = grads.copy()
    # The tracker sensitivity recursion starts the coupled difference at
    # zero, which matches coupled runs sharing the tracker init; the
    # initial gradient difference enters through the first update.  The
    # iteration-0 tracker message itself is outside this accounting (see
    # the module docstring).
    gdiff_prev = problem.local_gradient(agent, x[agent]) \
        - adjacent.local_gradient(agent, x[agent])
    ex = np.zeros(d_dim)
    ey = np.zeros(d_dim)
    run_env = float(np.abs(gdiff_prev).sum())
    zetas = _draws(sch.noise_scale, seed, m, "state", iterations, d_dim)
    xis = _draws(sch.noise_scale, seed, m, "tracker", iterations, d_dim)
    for k, (zeta, xi) in enumerate(zip(zetas, xis)):
        ex_next = shrink_x[k] * ex - lam[k] * ey
        x, y, grads = step_tracking(
            x, y, grads, problem, R, R_off, C, C_off,
            g1[k], g2[k], alpha[k], lam[k], zeta, xi,
        )
        gdiff = problem.local_gradient(agent, x[agent]) \
            - adjacent.local_gradient(agent, x[agent] - ex_next)
        run_env = max(run_env, float(np.abs(gdiff).sum()))
        ey = shrink_y[k] * ey + gdiff - (1.0 - alpha[k]) * gdiff_prev
        ex = ex_next
        xdiff[k + 1] = float(np.abs(ex).sum())
        ydiff[k + 1] = float(np.abs(ey).sum())
        xbound[k + 1] = run_env * sx_bound[k + 1]
        ybound[k + 1] = run_env * sy_bound[k + 1]
        gdiff_prev = gdiff
    return _trace([xdiff, ydiff], [xbound, ybound])
