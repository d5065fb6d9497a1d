"""Coupled difference traces: the measured counterpart of the
sensitivity bound.

A difference trace runs the solver on one problem and tracks, for one
perturbed agent, how far its iterate would drift on the adjacent problem
when both runs observe identical incoming messages.  The drift is set
against the sensitivity recursion of the privacy accountant, scaled by
the gradient-difference envelope, and must stay below it.

A trace first fills its bounds from the accountant's sensitivity walk
(privacy._static_walk or _tracking_walk), so a coupling too strong for
the recursion fails before any step.  It then walks k in blocks of
NOISE_CHUNK iterations and holds only its outputs over the whole
horizon.  A measured block takes two passes.
Pass 1 steps the primal state in the per-agent form (all_gradients, one
iteration at a time) and keeps the perturbed agent's iterates.  Pass 2
runs the difference recursion along them: the agent's own gradients
come from one stacked problem.local_gradient call, so only
AdjacentVariant.local_gradient, whose ramp is not affine, is called in
the loop.  Both are the objectives module's own gradients; the trace
keeps no copy of either.  The envelope, norms and bounds are then
block-wide array operations, bit for bit the per-iteration values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .noise import NOISE_CHUNK, laplace_draws
from .objectives import AdjacentVariant
from .privacy import _one_minus, _recurse, _static_walk, _tracking_walk
from .solvers import RunSetup, Variant, _off_diagonal, effective_schedules


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
    otherwise; NaN ratios are skipped.  The scan goes NOISE_CHUNK
    columns at a time, so its temporaries stay one block long.
    """
    worst, violation = 0.0, None
    for lo in range(1, len(ks), NOISE_CHUNK):
        cols = slice(lo, lo + NOISE_CHUNK)
        d = np.vstack([a[cols] for a in diffs])
        b = np.vstack([a[cols] for a in bounds])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(b > 0, d / b, np.where(d == 0.0, 0.0, math.inf))
        positive = ratio[ratio > 0.0]
        if positive.size:
            worst = max(worst, float(positive.max()))
        over = np.flatnonzero((ratio > 1.0 + 1e-9).any(axis=0))
        if violation is None and over.size:
            violation = int(ks[lo + over[0]])
    return worst, violation


def _trace(diffs, bounds) -> DifferenceTrace:
    """The trace of the state pair, plus the tracker pair when given."""
    ks = np.arange(len(diffs[0]))
    worst, violation = _ratio_scan(ks, diffs, bounds)
    tracker = (diffs[1], bounds[1]) if len(diffs) > 1 else (None, None)
    return DifferenceTrace(ks, diffs[0], bounds[0], *tracker,
                           worst, violation is None, violation)


def _running_max(start: float, values: np.ndarray) -> np.ndarray:
    """Python's run = max(run, v) from start at each v in turn: a NaN v
    is skipped, and a NaN start stays NaN."""
    run = np.fmax.accumulate(values)
    return np.full_like(run, start) if math.isnan(start) \
        else np.fmax(run, start, out=run)


def _messages(off_diagonal, scale, seed, stream, ks, dim):
    """off_diagonal @ zeta of each of the block's draws, stacked."""
    draws = laplace_draws(scale, [seed], len(off_diagonal), stream, ks, dim)
    return np.matmul(off_diagonal, draws[:, 0])


def _perturbed_shrink(self_weight, coupling, ks, offset=0.0):
    """1 - offset - |self_weight| coupling(ks), checked positive."""
    shrink = _one_minus(abs(float(self_weight)), coupling.values(ks), offset)
    if np.any(shrink <= 0.0):
        raise RangeError("coupling too strong for the perturbed agent")
    return shrink


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
    difference = _difference_tracking if Variant.of(variant).tracking \
        else _difference_static
    return difference(variant, setup, adjacent, iterations, seed, envelope)


def _difference_static(variant, setup, adjacent, iterations, seed, envelope):
    sch = effective_schedules(variant, setup)
    weights = Variant.of(variant).weights(setup)
    agent = adjacent.agent
    W = weights.matrix
    # The sensitivity bound s[k], scaled into the state bound in place.
    diff, bound = np.zeros((2, iterations + 1))
    for ks, s in _static_walk(sch.stepsize, sch.coupling,
                              weights.min_diag_mag, iterations):
        bound[ks + 1] = s
    problem, d_dim = setup.problem, setup.problem.dim
    x = setup.init_radius \
        * np.random.default_rng(seed).standard_normal((problem.m, d_dim))
    W_off = _off_diagonal(W)
    grads = problem.all_gradients(x)
    e = np.zeros(d_dim)
    run_env = 0.0
    for lo in range(0, iterations, NOISE_CHUNK):
        ks = np.arange(lo, min(lo + NOISE_CHUNK, iterations))
        hi = lo + len(ks)
        lam = sch.stepsize.values(ks)
        shrink = _perturbed_shrink(W[agent, agent], sch.coupling, ks)
        if envelope is not None:
            diff[lo + 1:hi + 1] = _recurse(shrink, lam * envelope,
                                           float(diff[lo]))
            continue
        gam = sch.coupling.values(ks)
        noise = _messages(W_off, sch.noise_scale, seed, "state", ks, d_dim)
        xa = np.empty((len(ks), d_dim))
        for j, (g, l) in enumerate(zip(memoryview(gam), memoryview(lam))):
            xa[j] = x[agent]
            x = x + g * (W @ x + noise[j]) - l * grads
            grads = problem.all_gradients(x)
        own = problem.local_gradient(agent, xa)
        es, gdiffs = np.empty_like(xa), np.empty_like(xa)
        for j, (s, l) in enumerate(zip(memoryview(shrink), memoryview(lam))):
            gdiff = own[j] - adjacent.local_gradient(agent, xa[j] - e)
            e = s * e - l * gdiff
            es[j], gdiffs[j] = e, gdiff
        env = _running_max(run_env, np.abs(gdiffs).sum(axis=1))
        run_env = float(env[-1])
        diff[lo + 1:hi + 1] = np.abs(es).sum(axis=1)
        bound[lo + 1:hi + 1] *= env
    if envelope is not None:
        bound[1:] *= envelope
    return _trace([diff], [bound])


def _difference_tracking(variant, setup, adjacent, iterations, seed,
                         envelope):
    sch = effective_schedules(variant, setup)
    weights = Variant.of(variant).weights(setup)
    agent = adjacent.agent
    R, C = weights.pull, weights.push
    # The sensitivity bounds, scaled into the bounds in place.
    xdiff, ydiff, xbound, ybound = np.zeros((4, iterations + 1))
    for ks, sx, sy in _tracking_walk(
        sch.stepsize, sch.tracker_mix, sch.coupling_state,
        sch.coupling_tracker, weights.min_diag_pull, weights.min_diag_push,
        iterations,
    ):
        xbound[ks + 1], ybound[ks + 1] = sx, sy
    problem, d_dim = setup.problem, setup.problem.dim
    x = setup.init_radius \
        * np.random.default_rng(seed).standard_normal((problem.m, d_dim))
    R_off, C_off = _off_diagonal(R), _off_diagonal(C)
    grads = problem.all_gradients(x)
    y = grads.copy()
    # The tracker difference starts at zero, as for coupled runs sharing
    # the tracker init; the initial gradient difference enters through
    # the first update (see the privacy module docstring).
    gdiff_prev = problem.local_gradient(agent, x[agent]) \
        - adjacent.local_gradient(agent, x[agent])
    ex, ey = np.zeros((2, d_dim))
    run_env = float(np.abs(gdiff_prev).sum())
    for lo in range(0, iterations, NOISE_CHUNK):
        ks = np.arange(lo, min(lo + NOISE_CHUNK, iterations))
        hi = lo + len(ks)
        lam = sch.stepsize.values(ks)
        alpha = np.zeros(len(ks)) if sch.tracker_mix is None \
            else sch.tracker_mix.values(ks)
        shrink_y = _perturbed_shrink(C[agent, agent], sch.coupling_tracker,
                                     ks, alpha)
        shrink_x = _perturbed_shrink(R[agent, agent], sch.coupling_state, ks)
        if envelope is not None:
            ydiff[lo + 1:hi + 1] = _recurse(
                shrink_y, (2.0 - alpha) * 2.0 * envelope, float(ydiff[lo]))
            xdiff[lo + 1:hi + 1] = _recurse(shrink_x, lam * ydiff[lo:hi],
                                            float(xdiff[lo]))
            continue
        g1 = sch.coupling_state.values(ks)
        g2 = sch.coupling_tracker.values(ks)
        zetas = _messages(R_off, sch.noise_scale, seed, "state", ks, d_dim)
        xis = _messages(C_off, sch.noise_scale, seed, "tracker", ks, d_dim)
        xa = np.empty((len(ks), d_dim))
        steps = zip(memoryview(g1), memoryview(g2), memoryview(alpha),
                    memoryview(lam))
        for j, (a, b, c, l) in enumerate(steps):
            x = x + a * (R @ x + zetas[j]) - l * y
            g_next = problem.all_gradients(x)
            y = (1.0 - c) * (y - grads) + b * (C @ y + xis[j]) + g_next
            grads = g_next
            xa[j] = x[agent]
        own = problem.local_gradient(agent, xa)
        exs, eys, gdiffs = (np.empty_like(xa) for _ in range(3))
        steps = zip(memoryview(shrink_x), memoryview(lam),
                    memoryview(shrink_y), memoryview(1.0 - alpha))
        for j, (sx, l, sy, kp) in enumerate(steps):
            ex_next = sx * ex - l * ey
            gdiff = own[j] - adjacent.local_gradient(agent, xa[j] - ex_next)
            ey = sy * ey + gdiff - kp * gdiff_prev
            ex = ex_next
            exs[j], eys[j], gdiffs[j] = ex, ey, gdiff
            gdiff_prev = gdiff
        env = _running_max(run_env, np.abs(gdiffs).sum(axis=1))
        run_env = float(env[-1])
        xdiff[lo + 1:hi + 1] = np.abs(exs).sum(axis=1)
        ydiff[lo + 1:hi + 1] = np.abs(eys).sum(axis=1)
        xbound[lo + 1:hi + 1] *= env
        ybound[lo + 1:hi + 1] *= env
    if envelope is not None:
        xbound[1:] *= 2.0 * envelope
        ybound[1:] *= 2.0 * envelope
    return _trace([xdiff, ydiff], [xbound, ybound])
