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
from .noise import LaplaceNoiseSource
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


def _ratio_scan(ks, diffs, bounds, tolerance=1e-9):
    """Largest diff/bound ratio over k >= 1 and all streams, and the
    first k at which any stream exceeds 1 + tolerance.

    A zero bound counts as ratio 0 for a zero difference and inf
    otherwise; NaN ratios are skipped.
    """
    d = np.vstack(diffs)[:, 1:]
    b = np.vstack(bounds)[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(b > 0, d / b, np.where(d == 0.0, 0.0, math.inf))
    positive = ratio[ratio > 0.0]
    worst = float(positive.max()) if positive.size else 0.0
    over = np.flatnonzero((ratio > 1.0 + tolerance).any(axis=0))
    violation = int(ks[over[0] + 1]) if over.size else None
    return worst, violation


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
    over 5000 iterations), which the 1e-9 tolerance of _ratio_scan
    absorbs.
    """
    if iterations < 1:
        raise RangeError("iterations must be positive")
    sch = effective_schedules(variant, setup)
    agent = adjacent.agent
    ks_axis = np.arange(iterations + 1)
    difference = _difference_tracking if Variant.of(variant).tracking \
        else _difference_static
    return difference(setup, adjacent, sch, agent, iterations, seed,
                      envelope, ks_axis)


def _difference_static(setup, adjacent, sch, agent, iterations, seed,
                       envelope, ks_axis):
    W = setup.consensus.matrix
    wbar = setup.consensus.min_diag_mag
    self_mag = abs(float(W[agent, agent]))
    lam = sch.stepsize.values(np.arange(iterations))
    gam = sch.coupling.values(np.arange(iterations))
    s_bound = sensitivity_static(sch.stepsize, sch.coupling, wbar, iterations)

    bound = np.zeros(iterations + 1)

    if envelope is not None:
        shrink = 1.0 - self_mag * gam
        if np.any(shrink <= 0.0):
            raise RangeError("coupling too strong for the perturbed agent")
        diff = _recurse(shrink, lam * envelope)
        bound[1:] = envelope * s_bound[1:]
        worst, violation = _ratio_scan(ks_axis, [diff], [bound])
        return DifferenceTrace(ks_axis, diff, bound, None, None,
                               worst, violation is None, violation)

    diff = np.zeros(iterations + 1)
    problem = setup.problem
    m, d_dim = problem.m, problem.dim
    rng = np.random.default_rng(seed)
    x = setup.init_radius * rng.standard_normal((m, d_dim))
    noise = LaplaceNoiseSource(sch.noise_scale, seed)
    W_off = _off_diagonal(W)
    grads = problem.all_gradients(x)
    e = np.zeros(d_dim)
    run_env = 0.0
    zetas = noise.iter_draws(m, "state", iterations, d_dim)
    for k, zeta in zip(range(iterations), zetas):
        if 1.0 - self_mag * gam[k] <= 0.0:
            raise RangeError("coupling too strong for the perturbed agent")
        gdiff = problem.local_gradient(agent, x[agent]) \
            - adjacent.local_gradient(agent, x[agent] - e)
        run_env = max(run_env, float(np.abs(gdiff).sum()))
        e = (1.0 - self_mag * gam[k]) * e - lam[k] * gdiff
        x = step_static(x, grads, W, W_off, gam[k], lam[k], zeta)
        grads = problem.all_gradients(x)
        diff[k + 1] = float(np.abs(e).sum())
        bound[k + 1] = run_env * s_bound[k + 1]
    worst, violation = _ratio_scan(ks_axis, [diff], [bound])
    return DifferenceTrace(ks_axis, diff, bound, None, None,
                           worst, violation is None, violation)


def _difference_tracking(setup, adjacent, sch, agent, iterations, seed,
                         envelope, ks_axis):
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

    xbound = np.zeros(iterations + 1)
    ybound = np.zeros(iterations + 1)

    if envelope is not None:
        shrink_y = 1.0 - alpha - self_push * g2
        shrink_x = 1.0 - self_pull * g1
        if np.any(shrink_y <= 0.0) or np.any(shrink_x <= 0.0):
            raise RangeError("coupling too strong for the perturbed agent")
        xdiff, ydiff = _recurse_pair(
            shrink_x, lam, shrink_y, (2.0 - alpha) * 2.0 * envelope
        )
        xbound[1:] = 2.0 * envelope * sx_bound[1:]
        ybound[1:] = 2.0 * envelope * sy_bound[1:]
        worst, violation = _ratio_scan(
            ks_axis, [xdiff, ydiff], [xbound, ybound]
        )
        return DifferenceTrace(ks_axis, xdiff, xbound, ydiff, ybound,
                               worst, violation is None, violation)

    xdiff = np.zeros(iterations + 1)
    ydiff = np.zeros(iterations + 1)
    problem = setup.problem
    m, d_dim = problem.m, problem.dim
    rng = np.random.default_rng(seed)
    x = setup.init_radius * rng.standard_normal((m, d_dim))
    noise = LaplaceNoiseSource(sch.noise_scale, seed)
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
    zetas = noise.iter_draws(m, "state", iterations, d_dim)
    xis = noise.iter_draws(m, "tracker", iterations, d_dim)
    for k, zeta, xi in zip(range(iterations), zetas, xis):
        shrink_y = 1.0 - alpha[k] - self_push * g2[k]
        shrink_x = 1.0 - self_pull * g1[k]
        if shrink_y <= 0.0 or shrink_x <= 0.0:
            raise RangeError("coupling too strong for the perturbed agent")
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
    worst, violation = _ratio_scan(ks_axis, [xdiff, ydiff], [xbound, ybound])
    return DifferenceTrace(ks_axis, xdiff, xbound, ydiff, ybound,
                           worst, violation is None, violation)
