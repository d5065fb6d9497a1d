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

Two budget flavors are exposed, and they support different claims.

The conservative series (budget.csv's epsilon_bound) sums the
recursions above with a constant gradient-difference bound C.  In
exact arithmetic it is the sum through T of the recursion's terms at
the schedule values: a bound on the loss at that finite horizon when
the recursion bounds the coupled drift (the difference module
measures that) and C bounds the gradient difference.  It is not a
finite budget.  The recursion gives s ~ lam/gamma, which the noise
scale does not outgrow, so the series grows without limit on both
shipped configs: about T^0.65 on alg1 (105.5 at 1e4, 11,614 at 1e7)
and about T^1.67 on alg2 (6.18e6 at 1e4, 6.44e11 at 1e7).  Its sums
round to nearest, not upward, so a reported total can sit below the
exact sum of its float terms by about 1e-14 relative.

The asymptotic series (epsilon_envelope) is the column that settles,
under an assumption it adds: once adjacent runs near the shared
optimum, the per-message sensitivity tracks lam^k, not lam^k/gamma^k.
Nothing here checks that assumption.  Under it the per-iteration
budget follows the injection envelope lam^k / nu^k: its per-term
values are the dominating power law A k^(-e) >= lam(k)/nu(k), so its
partial sums settle exactly when sum lam/nu converges, and the
matching integral-test tail bound covers everything paid after any
horizon (alg1 reads 7.81 at 1e7 plus a tail of 0.053, alg2 34.36 plus
7.98).

Both series are computed in one walk over k = 1..T in blocks of BLOCK
iterations.  The recursion state crosses blocks as Python floats and
each block's running sums start from the previous block's last one, so
the values are the same bits as whole-horizon arrays; a caller passes
the k's it reads (`keep`) and the series holds only those, so memory
stays flat in T.  Each stage (the walk, the series' terms, the running
sums) computes a block's terms in place and drops the block before the
next one is computed, so a few blocks are alive at a time.

This module is accounting only: the solver's epsilon_partial column and
the budget report both read conservative_budget, and the simulated
drift the recursions must dominate lives in the difference module,
whose traces fill their bounds from the same walks (_static_walk,
_tracking_walk) block by block.
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


def _one_minus(c: float, gamma: np.ndarray, alpha=0.0) -> np.ndarray:
    """The shrink factor 1 - alpha - c gamma, computed in gamma's
    array."""
    np.multiply(c, gamma, out=gamma)
    return np.subtract(np.subtract(1.0, alpha), gamma, out=gamma)


def _static_walk(stepsize, coupling, min_coupling, horizon: int):
    """Yield (ks, s) per block: s[k] for k = ks + 1."""
    if horizon < 1:
        raise RangeError("horizon must be at least 1")
    if min_coupling < 0:
        raise RangeError("min_coupling must be nonnegative")
    s = 0.0
    for ks in _blocks(horizon):
        shrink = _one_minus(min_coupling, coupling.values(ks))
        if np.any(shrink <= 0.0):
            raise RangeError("coupling too strong: min_coupling * gamma >= 1")
        block = _recurse(shrink, stepsize.values(ks), s)
        del shrink
        s = float(block[-1])
        yield ks, block
        del ks, block


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
        alpha = np.zeros(len(ks)) if tracker_mix is None \
            else tracker_mix.values(ks)
        shrink_x = _one_minus(min_diag_pull, coupling_state.values(ks))
        shrink_y = _one_minus(min_diag_push, coupling_tracker.values(ks),
                              alpha)
        if np.any(shrink_x <= 0.0) or np.any(shrink_y <= 0.0):
            raise RangeError(
                "coupling or mix too strong for the sensitivity bound"
            )
        # The turnover 2 - alpha overwrites alpha, and the state drive
        # lam * s_y its shifted copy, so no array is added.
        y = _recurse(shrink_y, np.subtract(2.0, alpha, out=alpha), sy)
        del shrink_y, alpha
        drive = np.append(sy, y[:-1])
        x = _recurse(shrink_x, np.multiply(stepsize.values(ks), drive,
                                           out=drive), sx)
        del shrink_x, drive
        sx, sy = float(x[-1]), float(y[-1])
        yield ks, x, y
        del ks, x, y


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


def _series(keep, horizon: int, blocks, name=None) -> BudgetSeries:
    """The series at the kept k's from blocks of (ks, varsigma, per_term)
    over consecutive k's of 1..horizon.

    Each block's running sums start from the previous block's last one
    (total + per[0], then one add per term), the same sequential adds
    as one np.cumsum over the whole horizon.  keep=None keeps every k;
    otherwise its k's must increase strictly within 1..horizon.  With a
    name, a running total past the float range raises RangeError at its
    first k; without one it reads inf.
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
        lo, hi = np.searchsorted(keep, (ks[0], ks[-1] + 1))
        rows = keep[lo:hi] - ks[0]
        np.take(varsigma, rows, out=columns[0][lo:hi])
        np.take(per, rows, out=columns[1][lo:hi])
        # The running sums overwrite the terms once they are kept.
        per[0] += total
        with np.errstate(over="ignore"):
            partial = np.cumsum(per, out=per)
        total = float(partial[-1])
        if name and not math.isfinite(total):
            k = ks[np.flatnonzero(~np.isfinite(partial))[0]]
            raise RangeError(f"{name} running total not finite at k = {k}: "
                             "its terms sum past the float range")
        np.take(partial, rows, out=columns[2][lo:hi])
        del ks, varsigma, per, partial, rows
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
    term, noise scale or running total is not finite, as when a
    geometric noise scale underflows or a growing one overflows.
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
        for ks, s, *tracker in walk:
            if tracker:  # s_x + s_y, in s_x's array
                s += tracker[0]
            ks = ks + 1
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                nu = sch.noise_scale.values(ks)
                per = np.multiply(scale, s)
                per /= nu
            bad = np.flatnonzero(~(np.isfinite(per) & np.isfinite(nu)))
            if bad.size:
                i = bad[0]
                what = ("conservative budget term" if np.isfinite(nu[i])
                        else "noise scale")
                raise RangeError(
                    f"{what} not finite at k = {ks[i]}: sensitivity "
                    f"{s[i]:.6g} over noise scale {nu[i]:.6g}"
                )
            del nu, tracker
            yield ks, s, per
            del ks, s, per

    try:
        return _series(keep, horizon, blocks(), "conservative budget")
    except RangeError:
        for _ in walk:  # a coupling that cannot contract later on wins
            pass
        raise


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
                base = np.power(ks.astype(float), -e)
                base *= constant
            varsigma = nu.values(ks)
            varsigma *= base
            base *= gradient_bound  # the per-iteration terms
            yield ks, varsigma, base
            del ks, varsigma, base

    with np.errstate(over="ignore"):  # past the float range: inf
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
