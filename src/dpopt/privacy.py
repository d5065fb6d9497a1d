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

This module is accounting only: the solver's epsilon_partial column and
the budget report both read conservative_budget, and the simulated
drift the recursions must dominate lives in the difference module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .graphs import ConsensusWeights, PushPullWeights
from .schedules import PowerSchedule, ScheduleExpr, ScheduleSet, series_class


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


def conservative_budget(
    schedules: ScheduleSet,
    weights: ConsensusWeights | PushPullWeights,
    gradient_bound: float,
    horizon: int,
) -> BudgetSeries:
    """Conservative budget series of a schedule bundle over
    k = 1..horizon: C s^k / nu^k from the static recursion for
    consensus weights, 2 C (s_x^k + s_y^k) / nu^k from the tracking
    pair for push-pull weights.

    Raises RangeError at the first k whose term is not finite, as when
    a geometric noise scale underflows on a long horizon.
    """
    sch = schedules
    if sch.noise_scale is None:
        raise RangeError("budget accounting needs a noise scale schedule")
    if isinstance(weights, ConsensusWeights):
        s = sensitivity_static(sch.stepsize, sch.coupling,
                               weights.min_diag_mag, horizon)[1:]
        scale = gradient_bound
    else:
        sx, sy = sensitivity_tracking(
            sch.stepsize, sch.tracker_mix, sch.coupling_state,
            sch.coupling_tracker, weights.min_diag_pull,
            weights.min_diag_push, horizon,
        )
        s = (sx + sy)[1:]
        scale = 2.0 * gradient_bound
    ks = np.arange(1, horizon + 1)
    nu = sch.noise_scale.values(ks)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        per = scale * s / nu
    bad = np.flatnonzero(~np.isfinite(per))
    if bad.size:
        i = bad[0]
        raise RangeError(
            f"conservative budget term not finite at k = {i + 1}: "
            f"sensitivity {s[i]:.6g} over noise scale {nu[i]:.6g}"
        )
    return BudgetSeries(ks=ks, varsigma=s, per_term=per,
                        epsilon_partial=np.cumsum(per))


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

    Returns math.inf when sum lam/nu diverges; raises RangeError when a
    geometric pair underflows to 0 / 0 by the tail.  Geometric
    envelopes get the geometric tail t_T * rho / (1 - rho); from a
    horizon before the first T' with rho <= sqrt(r), the terms up to T'
    are each bounded by their envelope's peak and the tail is taken
    from T' (for lam = 0.99^k, nu = 1 / (1 + k^2) the bound is 2.45
    times the remainder at T = 1 and 1.24 times just past the peak,
    T = 199 and 200).  Power-law
    envelopes with decay exponent e > 1 get the integral-test bound
    t_T * T / (e - 1), with t_T the envelope term at the horizon so the
    bound dominates both the envelope series and the raw lam/nu series
    beyond it.
    """
    expr = ScheduleExpr.of(stepsize) / nu
    res = series_class(expr)
    if not res.convergent:
        return math.inf
    scale = message_factor * gradient_bound
    if res.geometric_log_ratio < 0:
        # Any polynomially growing factor k^{-e} with e < 0 is absorbed
        # into the ratio via (k/T)^{-e} <= exp(-e (k - T) / T) for k >= T.
        log_r = res.geometric_log_ratio
        growth = max(0.0, -res.decay_exponent)
        # From T' = ceil(2 growth / -log r) on the ratio is <= sqrt(r).
        start, head = max(horizon, math.ceil(2.0 * growth / -log_r)), 0.0
        if horizon < start:
            # Each term up to T' is at most t_T r^(k-T) (k/T)^growth,
            # which peaks at max(T, k*), k* = growth / -log r.
            peak_k = max(float(horizon), growth / -log_r)
            try:
                head = (start - horizon) * expr.term(horizon) * math.exp(
                    (peak_k - horizon) * log_r
                    + growth * math.log(peak_k / horizon)
                )
            except OverflowError:
                head = math.inf
        rho = math.exp(log_r + growth / start)
        tail = scale * expr.term(start) * rho / (1.0 - rho) + scale * head
        if math.isnan(tail):
            raise RangeError(f"budget tail undefined at T = {horizon}: a "
                             "schedule underflows to zero")
        return tail
    e, constant = expr.power_envelope()
    t_last = scale * constant * float(horizon) ** (-e)
    return t_last * horizon / (e - 1.0)
