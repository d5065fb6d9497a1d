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

Both series are computed in one walk over k = 1..T in blocks of BLOCK
iterations.  The recursion state crosses blocks as Python floats and
each block's running sums start from the previous block's last one, so
the values are the same bits as whole-horizon arrays; a caller passes
the k's it reads (`keep`) and the series holds only those, so memory
stays flat in T.

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


# Iterations per block of the accountant's walk over k = 1..T.  Every
# array the walk builds (schedule values, recursion terms, running sums)
# is one block long, so memory stays flat in the horizon.  The
# recursions step a block as Python floats, which run about twice as
# fast as numpy scalars under the same IEEE rounding.  Measured on the
# shipped alg1 and alg2 budgets to 1e6 (2-CPU Xeon): 1024-iteration
# blocks took 1.5 to 1.8 times as long, from per-block numpy overhead;
# 4096 and 8192 were level; 65536 raised the peak RSS by 5 to 9 MB.
BLOCK = 8192


def _blocks(horizon: int, start: int = 0):
    """Recursion indices start..horizon - 1 in consecutive blocks."""
    for first in range(start, horizon, BLOCK):
        yield np.arange(first, min(first + BLOCK, horizon))


def _recurse(shrink: np.ndarray, drive: np.ndarray, s: float = 0.0):
    """out[i] = shrink[i] * out[i - 1] + drive[i], entered with
    out[-1] = s.  The memoryviews yield the terms as Python floats one
    at a time, so no list of the block is built."""
    steps = (s := a * s + b
             for a, b in zip(memoryview(shrink), memoryview(drive)))
    return np.fromiter(steps, float, len(shrink))


def _static_walk(stepsize, coupling, min_coupling, horizon: int):
    """Yield (ks, s) per block: s[k] for k = ks + 1."""
    if horizon < 1:
        raise RangeError("horizon must be at least 1")
    if min_coupling < 0:
        raise RangeError("min_coupling must be nonnegative")
    s = 0.0
    for ks in _blocks(horizon):
        shrink = 1.0 - min_coupling * coupling.values(ks)
        if np.any(shrink <= 0.0):
            raise RangeError("coupling too strong: min_coupling * gamma >= 1")
        block = _recurse(shrink, stepsize.values(ks), s)
        s = float(block[-1])
        yield ks, block


def _tracking_walk(stepsize, tracker_mix, coupling_state, coupling_tracker,
                   min_diag_pull, min_diag_push, horizon: int):
    """Yield (ks, s_x, s_y) per block, at k = ks + 1.

    The tracker recursion runs first, driven by the turnover 2 - alpha[k];
    the state recursion is then driven by lam[k] * s_y[k], the tracker
    bound before each step.
    """
    if horizon < 1:
        raise RangeError("horizon must be at least 1")
    sx = sy = 0.0
    for ks in _blocks(horizon):
        lam = stepsize.values(ks)
        alpha = np.zeros(len(ks)) if tracker_mix is None \
            else tracker_mix.values(ks)
        shrink_x = 1.0 - min_diag_pull * coupling_state.values(ks)
        shrink_y = 1.0 - alpha - min_diag_push * coupling_tracker.values(ks)
        if np.any(shrink_x <= 0.0) or np.any(shrink_y <= 0.0):
            raise RangeError(
                "coupling or mix too strong for the sensitivity bound"
            )
        # The turnover 2 - alpha overwrites alpha, so no array is added.
        y = _recurse(shrink_y, np.subtract(2.0, alpha, out=alpha), sy)
        x = _recurse(shrink_x, lam * np.append(sy, y[:-1]), sx)
        sx, sy = float(x[-1]), float(y[-1])
        yield ks, x, y


def _whole(walk):
    """Each part of a walk over the whole horizon, with s[0] = 0."""
    blocks = [parts for _, *parts in walk]
    return [np.concatenate([[0.0], *column]) for column in zip(*blocks)]


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
    return _whole(_static_walk(stepsize, coupling, min_coupling, horizon))[0]


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
    return tuple(_whole(_tracking_walk(
        stepsize, tracker_mix, coupling_state, coupling_tracker,
        min_diag_pull, min_diag_push, horizon,
    )))


@dataclass(frozen=True)
class BudgetSeries:
    """Per-iteration budget breakdown at the kept k's of 1..horizon
    (every k unless the caller kept fewer).

    varsigma is the sensitivity bound entering each term (for tracking
    the sum of the state and tracker parts), per_term the budget paid at
    that iteration, epsilon_partial the running total from k = 1.
    """

    ks: np.ndarray
    varsigma: np.ndarray
    per_term: np.ndarray
    epsilon_partial: np.ndarray

    @property
    def epsilon_total(self) -> float:
        """The running total at the last kept k."""
        return float(self.epsilon_partial[-1])

    def epsilon_at(self, k: int) -> float:
        idx = np.searchsorted(self.ks, k)
        if idx >= len(self.ks) or self.ks[idx] != k:
            raise RangeError(f"no budget term recorded at k={k}")
        return float(self.epsilon_partial[idx])


def _series(keep, horizon: int, blocks) -> BudgetSeries:
    """The series at the kept k's from blocks of (ks, varsigma, per_term)
    over consecutive k's of 1..horizon.

    Each block's running sums start from the previous block's last one
    (total + per[0], then one add per term), the same sequential adds
    as one np.cumsum over the whole horizon.  keep=None keeps every k;
    otherwise its k's must increase strictly within 1..horizon.
    """
    if keep is None:
        keep = np.arange(1, horizon + 1)
    keep = np.asarray(keep, dtype=np.int64)
    if keep.size and (keep[0] < 1 or keep[-1] > horizon
                      or np.any(np.diff(keep) <= 0)):
        raise RangeError(
            f"kept k's must increase strictly within 1..{horizon}"
        )
    columns = [np.empty(len(keep)) for _ in range(3)]
    total = 0.0
    for ks, varsigma, per in blocks:
        partial = per.copy()
        partial[0] += total
        np.cumsum(partial, out=partial)
        total = float(partial[-1])
        lo, hi = np.searchsorted(keep, (ks[0], ks[-1] + 1))
        for column, block in zip(columns, (varsigma, per, partial)):
            np.take(block, keep[lo:hi] - ks[0], out=column[lo:hi])
    return BudgetSeries(keep, *columns)


def conservative_budget(
    schedules: ScheduleSet,
    weights: ConsensusWeights | PushPullWeights,
    gradient_bound: float,
    horizon: int,
    keep=None,
) -> BudgetSeries:
    """Conservative budget series of a schedule bundle over
    k = 1..horizon: C s^k / nu^k from the static recursion for
    consensus weights, 2 C (s_x^k + s_y^k) / nu^k from the tracking
    pair for push-pull weights.

    The series holds the k's in keep (increasing, default every k);
    the walk itself covers every k in blocks, so memory does not grow
    with the horizon.  Raises RangeError when the coupling cannot
    contract anywhere before the horizon, else at the first k whose
    term is not finite, as when a geometric noise scale underflows on a
    long horizon.
    """
    sch = schedules
    if sch.noise_scale is None:
        raise RangeError("budget accounting needs a noise scale schedule")
    if isinstance(weights, ConsensusWeights):
        walk = _static_walk(sch.stepsize, sch.coupling, weights.min_diag_mag,
                            horizon)
        scale = gradient_bound
    else:
        walk = _tracking_walk(
            sch.stepsize, sch.tracker_mix, sch.coupling_state,
            sch.coupling_tracker, weights.min_diag_pull,
            weights.min_diag_push, horizon,
        )
        scale = 2.0 * gradient_bound

    def blocks():
        for ks, first, *rest in walk:
            s = sum(rest, first)  # s, or s_x + s_y
            nu = sch.noise_scale.values(ks + 1)
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                per = scale * s / nu
            bad = np.flatnonzero(~np.isfinite(per))
            if bad.size:
                # A coupling that cannot contract later on wins.
                for _ in walk:
                    pass
                i = bad[0]
                raise RangeError(
                    f"conservative budget term not finite at k = "
                    f"{ks[i] + 1}: sensitivity {s[i]:.6g} over noise "
                    f"scale {nu[i]:.6g}"
                )
            yield ks + 1, s, per

    return _series(keep, horizon, blocks())


def asymptotic_budget(
    stepsize: PowerSchedule,
    nu: PowerSchedule,
    gradient_bound: float,
    horizon: int,
    keep=None,
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

    gradient_bound is the gradient-difference constant already scaled
    by the mechanism's messages per iteration (1 for the single-state
    solver, 2 for state plus tracker).  keep selects the k's the series
    holds, as in conservative_budget.
    """
    if nu is None:
        raise RangeError("budget accounting needs a noise scale schedule")
    expr = ScheduleExpr.of(stepsize) / nu
    envelope = expr.power_envelope()

    def blocks():
        for ks in _blocks(horizon + 1, 1):
            if envelope is None:
                base = expr.terms(ks)
            else:
                e, constant = envelope
                base = constant * ks.astype(float) ** (-e)
            yield ks, base * nu.values(ks), gradient_bound * base

    return _series(keep, horizon, blocks())


def infinite_tail(stepsize: PowerSchedule, nu: PowerSchedule) -> bool:
    """True when the budget series sum lam/nu diverges."""
    return not series_class(ScheduleExpr.of(stepsize) / nu).convergent


def budget_tail_bound(
    stepsize: PowerSchedule,
    nu: PowerSchedule,
    horizon: int,
    gradient_bound: float = 1.0,
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
    beyond it.  gradient_bound scales every term, as in asymptotic_budget.
    """
    expr = ScheduleExpr.of(stepsize) / nu
    res = series_class(expr)
    if not res.convergent:
        return math.inf
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
        tail = (gradient_bound * expr.term(start) * rho / (1.0 - rho)
                + gradient_bound * head)
        if math.isnan(tail):
            raise RangeError(f"budget tail undefined at T = {horizon}: a "
                             "schedule underflows to zero")
        return tail
    e, constant = expr.power_envelope()
    t_last = gradient_bound * constant * float(horizon) ** (-e)
    return t_last * horizon / (e - 1.0)
