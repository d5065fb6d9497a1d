"""Privacy budget accounting for the noisy decentralized solvers.

The accountant bounds how far one agent's iterate can drift between two
adjacent problems (same network, one agent's data changed) when both
runs observe identical incoming messages.  That drift is the
sensitivity of the messages the agent sends, and dividing by the
Laplace scale of each message and summing over iterations gives the
cumulative differential-privacy budget.

Static consensus sensitivity obeys

    s^{k+1} = (1 - wbar * gamma^k) s^k + lam^k,    s^1 = lam^0,

with wbar the smallest diagonal magnitude of the weight matrix; the
budget through iteration T is sum_{k=1..T} C s^k / nu^k with C the
gradient-difference bound.  Gradient tracking carries a pair of
recursions, one for the tracker difference driven by the (2 - alpha^k)
gradient turnover and one for the state difference driven by the
stepsize times the tracker difference; its budget term is
2 C (s_x^k + s_y^k) / nu^k.  Both tracker recursions start the coupled
difference at zero, which models adjacent runs sharing the tracker
initialization; the iteration-0 tracker message is therefore outside
the accounted sums (the state message at iteration 0 is identical
across adjacent runs and costs nothing).

Two budget flavors are exposed.  The conservative series uses the
recursions above with a constant gradient-difference envelope; it is a
valid bound at every finite horizon but keeps growing when the
stepsize-to-coupling ratio decays slowly.  The asymptotic series uses
the per-iteration injection envelope lam^k / nu^k that governs whether
the budget stays finite as T grows without bound: its per-term values
are the dominating power law A k^(-e) >= lam(k)/nu(k), so its partial
sums settle exactly when sum lam/nu converges, and the matching
integral-test tail bound covers everything paid after any horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .noise import LaplaceNoiseSource
from .objectives import AdjacentVariant
from .schedules import PowerSchedule, ScheduleExpr, series_class
from .solvers import (
    RunSetup,
    STATIC_VARIANTS,
    effective_schedules,
    step_static,
    step_tracking,
)


# Iterations per block of the scalar recursions.  Each block is turned
# into Python floats, which step about twice as fast as numpy scalars
# under the same IEEE rounding, and written back in one slice.  Small
# blocks keep those lists from raising peak memory; at 1024 a block's
# overhead is already lost in the loop's cost.
BLOCK = 1024


def _blocks(horizon: int, *arrays):
    """Yield (start, stop, lists) over consecutive blocks of the arrays."""
    for start in range(0, horizon, BLOCK):
        stop = min(start + BLOCK, horizon)
        yield start, stop, [a[start:stop].tolist() for a in arrays]


def _recurse(shrink: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """out[0] = 0 and out[k + 1] = shrink[k] * out[k] + drive[k]."""
    horizon = len(shrink)
    out = np.zeros(horizon + 1)
    s = 0.0
    for start, stop, (shrink_b, drive_b) in _blocks(horizon, shrink, drive):
        block = []
        for a, b in zip(shrink_b, drive_b):
            s = a * s + b
            block.append(s)
        out[start + 1:stop + 1] = block
    return out


def _recurse_pair(shrink_x, lam, shrink_y, drive_y):
    """Coupled pair from zero: x[k + 1] = shrink_x[k] x[k] + lam[k] y[k]
    and y[k + 1] = shrink_y[k] y[k] + drive_y[k]."""
    horizon = len(shrink_x)
    x_out = np.zeros(horizon + 1)
    y_out = np.zeros(horizon + 1)
    sx, sy = 0.0, 0.0
    for start, stop, blocks in _blocks(horizon, shrink_x, lam, shrink_y,
                                       drive_y):
        x_block, y_block = [], []
        for ax, lk, ay, dy in zip(*blocks):
            sx, sy = ax * sx + lk * sy, ay * sy + dy
            x_block.append(sx)
            y_block.append(sy)
        x_out[start + 1:stop + 1] = x_block
        y_out[start + 1:stop + 1] = y_block
    return x_out, y_out


def sensitivity_static(
    stepsize: PowerSchedule,
    coupling: PowerSchedule,
    min_coupling: float,
    horizon: int,
) -> np.ndarray:
    """Sensitivity bounds s[k] for k = 0..horizon (s[0] = 0).

    Raises RangeError when the coupling is too strong for the recursion
    to contract (min_coupling * gamma^k >= 1 for some k < horizon).
    """
    if horizon < 1:
        raise RangeError("horizon must be at least 1")
    if min_coupling < 0:
        raise RangeError("min_coupling must be nonnegative")
    ks = np.arange(horizon)
    lam = stepsize.values(ks)
    shrink = 1.0 - min_coupling * coupling.values(ks)
    if np.any(shrink <= 0.0):
        raise RangeError("coupling too strong: min_coupling * gamma >= 1")
    return _recurse(shrink, lam)


def sensitivity_static_closed_form(
    stepsize: PowerSchedule,
    coupling: PowerSchedule,
    min_coupling: float,
    k: int,
) -> float:
    """Partial-product closed form of the static sensitivity at one k.

    s^k = sum_{p=1..k-1} prod_{q=p..k-1}(1 - wbar gamma^q) lam^{p-1}
          + lam^{k-1}.

    Quadratic in k; used as an independent reference for the recursion.
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


def sensitivity_tracking(
    stepsize: PowerSchedule,
    tracker_mix: PowerSchedule | None,
    coupling_state: PowerSchedule,
    coupling_tracker: PowerSchedule,
    min_diag_pull: float,
    min_diag_push: float,
    horizon: int,
):
    """State and tracker sensitivity bounds (s_x, s_y), each k = 0..horizon.

    The tracker difference is seeded at zero: the initial tracker's
    data dependence is folded into the first recursion step, whose
    turnover term 2 - alpha^0 dominates it.
    """
    if horizon < 1:
        raise RangeError("horizon must be at least 1")
    ks = np.arange(horizon)
    lam = stepsize.values(ks)
    alpha = np.zeros(horizon) if tracker_mix is None else tracker_mix.values(ks)
    shrink_x = 1.0 - min_diag_pull * coupling_state.values(ks)
    shrink_y = 1.0 - alpha - min_diag_push * coupling_tracker.values(ks)
    if np.any(shrink_x <= 0.0) or np.any(shrink_y <= 0.0):
        raise RangeError("coupling or mix too strong for the sensitivity bound")
    # The turnover 2 - alpha overwrites alpha, so no array is added.
    turnover = np.subtract(2.0, alpha, out=alpha)
    return _recurse_pair(shrink_x, lam, shrink_y, turnover)


def sensitivity_tracking_closed_form(
    stepsize: PowerSchedule,
    tracker_mix: PowerSchedule | None,
    coupling_state: PowerSchedule,
    coupling_tracker: PowerSchedule,
    min_diag_pull: float,
    min_diag_push: float,
    k: int,
):
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


@dataclass(frozen=True)
class BudgetSeries:
    """Per-iteration budget breakdown over k = 1..horizon.

    varsigma is the sensitivity bound entering each term (for tracking
    the sum of the state and tracker parts), per_term the budget paid at
    that iteration, epsilon_partial the running total.
    """

    ks: np.ndarray
    varsigma: np.ndarray
    per_term: np.ndarray
    epsilon_partial: np.ndarray

    @property
    def epsilon_total(self) -> float:
        return float(self.epsilon_partial[-1])

    def epsilon_at(self, k: int) -> float:
        idx = np.searchsorted(self.ks, k)
        if idx >= len(self.ks) or self.ks[idx] != k:
            raise RangeError(f"no budget term recorded at k={k}")
        return float(self.epsilon_partial[idx])


def _nu_values(nu: PowerSchedule | None, horizon: int) -> np.ndarray:
    if nu is None:
        raise RangeError("budget accounting needs a noise scale schedule")
    return nu.values(np.arange(1, horizon + 1))


def conservative_budget_static(
    stepsize: PowerSchedule,
    coupling: PowerSchedule,
    min_coupling: float,
    nu: PowerSchedule,
    gradient_bound: float,
    horizon: int,
) -> BudgetSeries:
    """Finite-horizon budget from the static sensitivity recursion."""
    s = sensitivity_static(stepsize, coupling, min_coupling, horizon)[1:]
    per = gradient_bound * s / _nu_values(nu, horizon)
    return BudgetSeries(
        ks=np.arange(1, horizon + 1), varsigma=s, per_term=per,
        epsilon_partial=np.cumsum(per),
    )


def conservative_budget_tracking(
    stepsize: PowerSchedule,
    tracker_mix: PowerSchedule | None,
    coupling_state: PowerSchedule,
    coupling_tracker: PowerSchedule,
    min_diag_pull: float,
    min_diag_push: float,
    nu: PowerSchedule,
    gradient_bound: float,
    horizon: int,
) -> BudgetSeries:
    """Finite-horizon budget from the tracking sensitivity recursions."""
    sx, sy = sensitivity_tracking(
        stepsize, tracker_mix, coupling_state, coupling_tracker,
        min_diag_pull, min_diag_push, horizon,
    )
    s = (sx + sy)[1:]
    per = 2.0 * gradient_bound * s / _nu_values(nu, horizon)
    return BudgetSeries(
        ks=np.arange(1, horizon + 1), varsigma=s, per_term=per,
        epsilon_partial=np.cumsum(per),
    )


def asymptotic_budget(
    stepsize: PowerSchedule,
    nu: PowerSchedule,
    gradient_bound: float,
    horizon: int,
    message_factor: float = 1.0,
) -> BudgetSeries:
    """Infinite-horizon budget column driven by the lam/nu envelope.

    Once the trajectories of adjacent runs approach the shared optimum,
    the per-message sensitivity is driven by the stepsize alone, so the
    per-iteration budget follows lam/nu up to the gradient-difference
    constant.  Power-law schedule pairs get the dominating envelope
    A k^(-e) >= lam(k)/nu(k) (all k >= 1, tight in the limit) so the
    reported partial sums settle exactly when sum lam/nu converges and
    are covered by the integral-test tail bound.  Geometric pairs use
    their exact terms, which already sum in closed form.

    message_factor carries the per-iteration message count of the
    mechanism (1 for the single-state solver, 2 for state plus tracker).
    """
    if nu is None:
        raise RangeError("budget accounting needs a noise scale schedule")
    ks = np.arange(1, horizon + 1)
    expr = ScheduleExpr.of(stepsize) / nu
    envelope = expr.power_envelope()
    if envelope is None:
        base = expr.terms(ks)
    else:
        e, constant = envelope
        base = constant * ks.astype(float) ** (-e)
    per = message_factor * gradient_bound * base
    return BudgetSeries(
        ks=ks, varsigma=base * nu.values(ks), per_term=per,
        epsilon_partial=np.cumsum(per),
    )


def infinite_tail(stepsize: PowerSchedule, nu: PowerSchedule) -> bool:
    """True when the budget series sum lam/nu diverges."""
    return not series_class(ScheduleExpr.of(stepsize) / nu).convergent


def budget_tail_bound(
    stepsize: PowerSchedule,
    nu: PowerSchedule,
    horizon: int,
    gradient_bound: float = 1.0,
    message_factor: float = 1.0,
) -> float:
    """Upper bound on the budget paid after iteration `horizon`.

    Returns math.inf when sum lam/nu diverges.  Geometric envelopes get
    the geometric tail t_T * rho / (1 - rho); power-law envelopes with
    decay exponent e > 1 get the integral-test bound t_T * T / (e - 1),
    with t_T the envelope term at the horizon so the bound dominates
    both the envelope series and the raw lam/nu series beyond it.
    """
    expr = ScheduleExpr.of(stepsize) / nu
    res = series_class(expr)
    if not res.convergent:
        return math.inf
    scale = message_factor * gradient_bound
    if res.geometric_log_ratio < 0:
        # Any polynomially growing factor k^{-e} with e < 0 is absorbed
        # into the ratio via (k/T)^{-e} <= exp(-e (k - T) / T) for k >= T.
        log_rho = res.geometric_log_ratio \
            + max(0.0, -res.decay_exponent) / horizon
        if log_rho >= 0.0:
            raise RangeError(
                "horizon too small for the geometric tail bound"
            )
        rho = math.exp(log_rho)
        return scale * expr.term(horizon) * rho / (1.0 - rho)
    e, constant = expr.power_envelope()
    t_last = scale * constant * float(horizon) ** (-e)
    return t_last * horizon / (e - 1.0)


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
    then exact, so the ratio must stay at or below one.
    """
    if iterations < 1:
        raise RangeError("iterations must be positive")
    sch = effective_schedules(variant, setup)
    agent = adjacent.agent
    ks_axis = np.arange(iterations + 1)
    if variant in STATIC_VARIANTS:
        return _difference_static(
            variant, setup, adjacent, sch, agent, iterations, seed,
            envelope, ks_axis,
        )
    return _difference_tracking(
        variant, setup, adjacent, sch, agent, iterations, seed,
        envelope, ks_axis,
    )


def _difference_static(variant, setup, adjacent, sch, agent, iterations,
                       seed, envelope, ks_axis):
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
    W_off = W.copy()
    np.fill_diagonal(W_off, 0.0)
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


def _difference_tracking(variant, setup, adjacent, sch, agent, iterations,
                         seed, envelope, ks_axis):
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
    R_off = R.copy()
    np.fill_diagonal(R_off, 0.0)
    C_off = C.copy()
    np.fill_diagonal(C_off, 0.0)
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
