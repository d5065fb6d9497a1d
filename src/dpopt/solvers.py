"""Decentralized solvers with privacy noise on every message.

Two update families are implemented.

Static consensus: each agent mixes the obscured states of its neighbors
with an attenuation factor gamma^k and takes a local gradient step,

    x_i^{k+1} = x_i^k
        + gamma^k * sum_j w_ij (x_j^k + zeta_j^k - x_i^k)
        - lam^k * grad f_i(x_i^k).

Gradient tracking (directed graphs): the state is pulled through a
zero-row-sum matrix and a tracker of the average gradient is pushed
through a zero-column-sum matrix, with its own attenuation and mixing
factor.  The update order within one iteration is fixed: state first,
then gradients at the new state, then the tracker; the gradient at the
old state is cached, never recomputed.

Baseline variants reuse the same steps with frozen couplings: "dgd" is
static consensus with gamma == 1, "push_pull" is gradient tracking
with both couplings == 1 and no tracker mix, and the "pdop_*" variants
swap in geometric stepsize and noise schedules.  The variant table
below declares each name's family and schedules once; every other
module reads it through Variant.of.

Every message is obscured by one fresh Laplace draw per sender per
iteration; all receivers observe the same copy and the sender's own
update uses its clean state.

run_batch steps all R runs of a Monte Carlo batch together: states are
stacked as (R, m, d) and every update, gradient and divergence check
acts on the whole stack, while the seed-independent budget series is
computed once per batch, before the loop, by the privacy accountant
(the series `dpopt budget` reports).  Noise is keyed by (seed, agent,
stream, iteration, coordinate), and is drawn in blocks of
NOISE_CHUNK // R iterations, so memory stays flat in R and each run
gets exactly its own draws.  Every batched trace therefore equals the serial run of its
seed bit for bit; run is the R = 1 case.  A diverged run keeps its
serial record (its gradient bound includes the diverging iteration)
and leaves the batch, so it is never stepped further.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import ConditionReport
from .errors import ConditionError, DivergenceError, RangeError
from .graphs import (
    ConsensusWeights,
    PushPullWeights,
    contraction_at,
    validate_consensus_matrix,
)
from .noise import NOISE_CHUNK, laplace_draws
from .objectives import QuadraticEstimationProblem, optimal_solution
from .privacy import conservative_budget
from .schedules import (
    PowerSchedule,
    ScheduleSet,
    validate_static_schedules,
    validate_tracking_schedules,
)


@dataclass(frozen=True)
class Variant:
    """What a variant name means.

    tracking: gradient tracking on push-pull weights, else static
        consensus on consensus weights.
    schedules: "attenuated" runs the configured bundle and is checked
        against the schedule conditions; "unit" pins every coupling at
        one and drops the tracker mix; "pdop" also swaps in the
        geometric stepsize and noise schedules.
    """

    tracking: bool
    schedules: str

    @staticmethod
    def of(name: str) -> "Variant":
        try:
            return _VARIANT_TABLE[name]
        except KeyError:
            raise ValueError(f"unknown variant {name!r}") from None

    def weights(self, setup: "RunSetup"):
        return setup.push_pull if self.tracking else setup.consensus


_VARIANT_TABLE = {
    "alg1": Variant(tracking=False, schedules="attenuated"),
    "dgd": Variant(tracking=False, schedules="unit"),
    "pdop_alg1": Variant(tracking=False, schedules="pdop"),
    "alg2": Variant(tracking=True, schedules="attenuated"),
    "push_pull": Variant(tracking=True, schedules="unit"),
    "pdop_push_pull": Variant(tracking=True, schedules="pdop"),
}
VARIANTS = tuple(_VARIANT_TABLE)


@dataclass(frozen=True)
class RunSetup:
    """Everything a solver run needs besides the variant and the seed."""

    problem: QuadraticEstimationProblem
    theta_star: np.ndarray
    f_star: float
    schedules: ScheduleSet
    consensus: ConsensusWeights | None = None
    push_pull: PushPullWeights | None = None
    init_radius: float = 1.0
    stride: int = 10
    divergence_threshold: float = 1e12
    pdop_stepsize: PowerSchedule | None = None
    pdop_noise: PowerSchedule | None = None

    @classmethod
    def create(cls, problem, schedules, **kwargs) -> "RunSetup":
        theta_star, f_star = optimal_solution(problem)
        return cls(
            problem=problem, theta_star=theta_star, f_star=f_star,
            schedules=schedules, **kwargs,
        )


@dataclass
class Trace:
    """Recorded metrics of one run, sampled every `stride` iterations.

    epsilon_partial is the conservative privacy budget series read at
    each recorded iteration, scaled at finalization by the harvested
    gradient bound (the largest ||grad f_i||_1 seen on the trajectory);
    it is NaN for noiseless runs.  A diverged run keeps its records up
    to the divergence point and marks diverged_at.
    """

    variant: str
    ks: np.ndarray
    consensus: np.ndarray
    gap: np.ndarray
    dist_opt: np.ndarray
    tracking: np.ndarray
    epsilon_partial: np.ndarray
    diverged: bool = False
    diverged_at: int | None = None
    diverged_magnitude: float = float("nan")
    gradient_bound: float = 0.0

    def raise_if_diverged(self) -> None:
        if self.diverged:
            raise DivergenceError(
                self.variant, self.diverged_at, self.diverged_magnitude
            )

    @property
    def final_k(self) -> int:
        return int(self.ks[-1])

    @property
    def final_gap(self) -> float:
        return np.inf if self.diverged else float(self.gap[-1])

    @property
    def final_consensus(self) -> float:
        return np.inf if self.diverged else float(self.consensus[-1])

    def column(self, name: str) -> np.ndarray:
        return getattr(self, name)


def effective_schedules(variant: str, setup: RunSetup) -> ScheduleSet:
    """Resolve the schedule bundle a variant actually runs with."""
    spec = Variant.of(variant)
    sch = setup.schedules
    if spec.schedules == "attenuated":
        (sch.require_tracking if spec.tracking else sch.require_static)()
        return sch
    stepsize, noise = sch.stepsize, sch.noise_scale
    if spec.schedules == "pdop":
        if setup.pdop_stepsize is None or setup.pdop_noise is None:
            raise ConditionError(
                "pdop variants need geometric stepsize and noise schedules"
            )
        stepsize, noise = setup.pdop_stepsize, setup.pdop_noise
    one = PowerSchedule.constant(1.0)
    if spec.tracking:
        return ScheduleSet(
            stepsize=stepsize, coupling_state=one, coupling_tracker=one,
            tracker_mix=None, noise_scale=noise,
        )
    return ScheduleSet(stepsize=stepsize, coupling=one, noise_scale=noise)


def validate_for_variant(variant: str, setup: RunSetup) -> ConditionReport:
    """Structural checks and the peak of each coupling for every
    variant; schedule condition checks only for the two attenuated
    variants (baselines run schedules that intentionally violate them).

    A coupling passes when its peak over all k keeps every diagonal of
    the mixed matrix positive, the inequality contraction_at enforces
    at run time."""
    spec = Variant.of(variant)
    w = spec.weights(setup)
    if w is None:
        kind = "push-pull" if spec.tracking else "consensus"
        raise ConditionError(f"variant {variant!r} needs {kind} weights")
    sch = effective_schedules(variant, setup)
    if spec.tracking:
        report = ConditionReport(f"{variant} structural conditions")
        resid_u = float(np.max(np.abs(w.left_eigvec @ w.pull)))
        resid_v = float(np.max(np.abs(w.push @ w.right_eigvec)))
        report.add("pull_left_null_residual", "<= 1e-9", resid_u, resid_u <= 1e-9)
        report.add("push_right_null_residual", "<= 1e-9", resid_v, resid_v <= 1e-9)
        couplings = {"coupling_state": (sch.coupling_state, w.pull),
                     "coupling_tracker": (sch.coupling_tracker, w.push)}
    else:
        report = validate_consensus_matrix(w.matrix)
        couplings = {"coupling": (sch.coupling, w.matrix)}
    for name, (coupling, A) in couplings.items():
        diag = float(np.max(np.abs(np.diag(A))))
        # One agent's zero diagonal stays zero at any coupling.
        value = coupling.peak * diag if diag else 0.0
        report.add(f"{name}_peak_diag_positive",
                   f"peak {name} * max|A_ii| < 1", value, value < 1.0)
    if spec.schedules == "attenuated":
        sub = (validate_tracking_schedules if spec.tracking
               else validate_static_schedules)(sch)
        report.entries.extend(sub.entries)
        report.warnings.extend(sub.warnings)
    return report


def step_static(x, grads, W, W_off, gamma_k, lam_k, zeta):
    """One stacked static-consensus update."""
    return x + gamma_k * (W @ x + W_off @ zeta) - lam_k * grads


def step_tracking(x, y, g_prev, problem, R, R_off, C, C_off,
                  gamma1_k, gamma2_k, alpha_k, lam_k, zeta, xi):
    """One stacked gradient-tracking update; returns (x, y, grads)."""
    x_next = x + gamma1_k * (R @ x + R_off @ zeta) - lam_k * y
    g_next = problem.all_gradients(x_next)
    y_next = (1.0 - alpha_k) * (y - g_prev) \
        + gamma2_k * (C @ y + C_off @ xi) + g_next
    return x_next, y_next, g_next


def _off_diagonal(A: np.ndarray) -> np.ndarray:
    out = A.copy()
    np.fill_diagonal(out, 0.0)
    return out


def _record_points(iterations: int, stride: int) -> np.ndarray:
    ks = np.arange(0, iterations + 1, stride)
    if ks[-1] != iterations:
        ks = np.append(ks, iterations)
    return ks


def run(variant: str, setup: RunSetup, iterations: int, seed: int,
        force: bool = False) -> Trace:
    """Execute one solver run and return its metric trace.

    The seed fixes both the random initial states and the noise
    substreams, so two variants run with the same seed see identical
    initializations and identical message noise.  This is the one-run
    case of run_batch.
    """
    return run_batch(variant, setup, iterations, [seed], force=force)[0]


def _max_abs(a: np.ndarray) -> np.ndarray:
    """Largest |entry| of each run's (m, d) block."""
    return np.abs(a).max(axis=(-2, -1))


def _gradient_norms(grads: np.ndarray) -> np.ndarray:
    """Largest per-agent ||grad f_i||_1 of each run, along leading axes."""
    return np.abs(grads).sum(axis=-1).max(axis=-1)


def run_batch(variant: str, setup: RunSetup, iterations: int, seeds,
              force: bool = False) -> list[Trace]:
    """Execute one run per seed, all stepped together; the traces come
    back in seed order, each equal bit for bit to run() with its seed."""
    spec = Variant.of(variant)
    if iterations < 1:
        raise RangeError("iterations must be positive")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise RangeError("at least one seed is required")
    if not force:
        report = validate_for_variant(variant, setup)
        if not report.overall:
            raise ConditionError(
                f"variant {variant!r} fails validation: "
                + ", ".join(report.failed_names())
            )
    sch = effective_schedules(variant, setup)
    problem = setup.problem
    m, d = problem.m, problem.dim
    n_runs = len(seeds)
    x = np.stack([
        setup.init_radius * np.random.default_rng(s).standard_normal((m, d))
        for s in seeds
    ])

    record_ks = _record_points(iterations, setup.stride)
    n_rec = len(record_ks)
    cons = np.full((n_runs, n_rec), np.nan)
    gap = np.full((n_runs, n_rec), np.nan)
    dist = np.full((n_runs, n_rec), np.nan)
    track = np.full((n_runs, n_rec), np.nan)

    ks_all = np.arange(iterations)
    lam_vals = sch.stepsize.values(ks_all)
    tracking = spec.tracking
    weights = spec.weights(setup)
    if tracking:
        R, C = weights.pull, weights.push
        R_off, C_off = _off_diagonal(R), _off_diagonal(C)
        u, v = weights.left_eigvec, weights.right_eigvec
        g1_vals = sch.coupling_state.values(ks_all)
        g2_vals = sch.coupling_tracker.values(ks_all)
        if sch.tracker_mix is None:
            al_vals = np.zeros(iterations)
        else:
            al_vals = sch.tracker_mix.values(ks_all)
        # Coupling must keep the mixed diagonals positive at every k.
        contraction_at(weights, g1_vals.max(), side="pull")
        contraction_at(weights, g2_vals.max(), side="push")
        grads = problem.all_gradients(x)
        y = grads.copy()
    else:
        W = weights.matrix
        W_off = _off_diagonal(W)
        gmm_vals = sch.coupling.values(ks_all)
        contraction_at(weights, gmm_vals.max())
        grads = problem.all_gradients(x)

    # The raw (unit gradient bound) budget does not depend on the seed:
    # one conservative series per batch, read at the record points.
    if sch.noise_scale is None:
        eps = np.full(n_rec, np.nan)
    else:
        partial = conservative_budget(
            sch, weights, 1.0, iterations
        ).epsilon_partial
        eps = np.append(0.0, partial[record_ks[1:] - 1])

    grad_bound = _gradient_norms(grads)

    # Rows of x (and y, grads) belong to the runs listed in `active`.
    active = np.arange(n_runs)
    kept = np.full(n_runs, n_rec)
    diverged_at = [None] * n_runs
    magnitude = [float("nan")] * n_runs

    # Record points of a chunk are snapshotted, (record index, runs, x,
    # y), and reduced in bulk by flush_records; the steps return fresh
    # arrays, so a snapshot needs no copy.
    pending = []

    def capture(idx):
        pending.append((idx, active, x, y if tracking else None))

    def flush_records():
        if not pending:
            return
        rec = np.concatenate([np.full(len(p[1]), p[0]) for p in pending])
        runs = np.concatenate([p[1] for p in pending])
        xs = np.concatenate([p[2] for p in pending])
        if tracking:
            ys = np.concatenate([p[3] for p in pending])
            xbar = (u @ xs) / m
            ybar = ys.mean(axis=-2)
            track[runs, rec] = np.sum(
                (ys - v[:, None] * ybar[:, None, :]) ** 2, axis=(-2, -1)
            )
        else:
            xbar = xs.mean(axis=-2)
        cons[runs, rec] = np.sum((xs - xbar[:, None, :]) ** 2, axis=(-2, -1))
        gap[runs, rec] = problem.global_cost(xbar) - setup.f_star
        err = xbar - setup.theta_star
        # A stacked (1, d) @ (d, 1) product takes the same BLAS dot as
        # np.linalg.norm on one vector, so the distance matches it bitwise.
        dist[runs, rec] = np.sqrt((err[:, None, :] @ err[:, :, None])[:, 0, 0])
        pending.clear()

    rec_idx = 0
    capture(rec_idx)
    rec_idx += 1
    next_rec = int(record_ks[rec_idx]) if rec_idx < n_rec else -1

    threshold = setup.divergence_threshold
    start = 0
    while start < iterations and active.size:
        # Noise blocks hold about NOISE_CHUNK x m x d draws per stream
        # whatever the batch size.
        stop = min(start + max(1, NOISE_CHUNK // active.size), iterations)
        ks_chunk = np.arange(start, stop)
        run_seeds = [seeds[r] for r in active]
        zeta_block = laplace_draws(sch.noise_scale, run_seeds, m, "state",
                                   ks_chunk, d)
        xi_block = laplace_draws(sch.noise_scale, run_seeds, m, "tracker",
                                 ks_chunk, d) if tracking else None
        # Gradients of the chunk, reduced to gradient bounds in bulk;
        # rows from `flushed` on are not reduced yet.
        grad_rows = np.empty((stop - start,) + grads.shape)
        flushed = 0
        for k in range(start, stop):
            row = k - start
            if tracking:
                x, y, grads = step_tracking(
                    x, y, grads, problem, R, R_off, C, C_off,
                    g1_vals[k], g2_vals[k], al_vals[k], lam_vals[k],
                    zeta_block[row], xi_block[row],
                )
                extreme = max(np.abs(x).max(), np.abs(y).max())
            else:
                x = step_static(
                    x, grads, W, W_off, gmm_vals[k], lam_vals[k],
                    zeta_block[row],
                )
                grads = problem.all_gradients(x)
                extreme = np.abs(x).max()
            grad_rows[row] = grads
            if not np.isfinite(extreme) or extreme > threshold:
                # The batch maximum trips whenever some run's own check
                # does; resolve which runs those are.
                if tracking:
                    ext_x, ext_y = _max_abs(x), _max_abs(y)
                    per_run = np.where(ext_y > ext_x, ext_y, ext_x)
                else:
                    per_run = _max_abs(x)
                gone = ~np.isfinite(per_run) | (per_run > threshold)
                if gone.any():
                    _raise_bound(grad_bound, active,
                                 grad_rows[flushed:row + 1])
                    flushed = row + 1
                    for pos in np.flatnonzero(gone):
                        r = active[pos]
                        diverged_at[r] = k + 1
                        magnitude[r] = float(per_run[pos])
                        kept[r] = rec_idx
                    alive = ~gone
                    active = active[alive]
                    if not active.size:
                        break
                    x, grads = x[alive], grads[alive]
                    zeta_block = zeta_block[:, alive]
                    grad_rows = grad_rows[:, alive]
                    if tracking:
                        y = y[alive]
                        xi_block = xi_block[:, alive]
            if k + 1 == next_rec:
                capture(rec_idx)
                rec_idx += 1
                next_rec = int(record_ks[rec_idx]) if rec_idx < n_rec else -1
        if active.size:
            _raise_bound(grad_bound, active, grad_rows[flushed:stop - start])
        flush_records()
        start = stop

    traces = []
    for r in range(n_runs):
        keep = kept[r]
        # The budget bound scales linearly with the gradient bound,
        # which is only fully harvested at the end of the run; a
        # noiseless run's NaN column stays NaN.
        eps_r = eps[:keep] * grad_bound[r]
        traces.append(Trace(
            variant=variant,
            ks=record_ks[:keep],
            consensus=cons[r, :keep],
            gap=gap[r, :keep],
            dist_opt=dist[r, :keep],
            tracking=track[r, :keep],
            epsilon_partial=eps_r,
            diverged=diverged_at[r] is not None,
            diverged_at=diverged_at[r],
            diverged_magnitude=magnitude[r],
            gradient_bound=float(grad_bound[r]),
        ))
    return traces


def _raise_bound(grad_bound, active, grad_rows) -> None:
    """Raise each active run's gradient bound to the largest norm in
    grad_rows (iterations x active runs x m x d).  NaN norms are
    skipped, as a serial `if norm > bound` update skips them."""
    if not len(grad_rows):
        return
    peak = np.fmax.reduce(_gradient_norms(grad_rows), axis=0)
    current = grad_bound[active]
    grad_bound[active] = np.where(peak > current, peak, current)
