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
below declares each name's family, schedules and needed config blocks
once; every other module reads it through Variant.of.

Both families mix through I + gamma^k A (A = W, R or C), sound only
while every diagonal of that matrix stays positive, that is, while the
diagonal load gamma^k * max(0, -min_i A_ii) is below 1 (_diagonal_load):
validate_for_variant reports it at each coupling's peak; run_batch
raises RangeError before it steps when it reaches 1 at the run's
largest coupling, found block by block.

Every message is obscured by one fresh Laplace draw per sender per
iteration; all receivers observe the same copy and the sender's own
update uses its clean state.

run_batch steps all R runs of a Monte Carlo batch together.  Every
objective in the package is quadratic, grads = H x - c with H
block-diagonal (objectives.affine_gradient), so one iteration of either
family is an affine map of the flattened state: z <- z A_k^T + b_k,
with z = x of width N = m d for static consensus and z = (x, y) of
width N = 2 m d for tracking, where the gradient at the new state and
the cached one at the old state fold into the y rows (_AffineStep
states A_k and b_k).  A non-quadratic objective would need the
per-agent form back.  The dense operators also assume a small state:
an iteration costs O(R N^2) against O(R (m^2 d + m s d)) per agent,
which the affine form beats at the shipped m d = 10 but loses to from
about m d = 50 on (README gives the timings).  The schedule values,
the operators A_k^T and the noise offsets b_k of all runs are built
with vectorized operations once per chunk of NOISE_CHUNK // max(R, N)
iterations, so every chunk array holds at most NOISE_CHUNK x N floats
whatever R, N or the horizon (at R = 1 and 1e6 iterations the heap
peaks at 5.7 MB on alg1_rate and 5.6 MB on alg2_nonoise, against 29.7
and 45.6 MB with schedules evaluated over the whole run), and the loop
body is one per-row product and one add per iteration.  Divergence,
gradient bounds and record captures are then read from the chunk's
stored states; the per-state max |z| is taken only when a whole-array
max and min put the chunk past the threshold, as a NaN or an infinity
always does; the noise is drawn in place (noise.py).  The
seed-independent budget series is computed once per batch, before the
loop, by the privacy accountant (the series `dpopt budget` reports).

Noise is keyed by (seed, agent, stream, iteration, coordinate), so each
run gets exactly its own draws, and every product that involves run
states is per row (_vecmat, a stacked (R, 1, n) @ (n, n) matmul): a
row's result does not depend on which rows share the stack, where a
2-D (R, n) @ (n, n) matmul may change with R.  A one-row product,
row.dot(A) on the (n,) row, gives the same bits as its (1, 1, n)
stack, so _step_chunk steps a one-run batch that way, without the
stack.  Every batched trace therefore equals the serial run of its
seed, the one-seed batch, bit for bit.  A run diverges at the first
iteration whose max |z| is NaN or above DIVERGENCE_THRESHOLD; for
tracking that is over x and y together, so a NaN tracker stops the run
while x is still finite.  A diverged run keeps its serial record
(diverged_at = k + 1, its gradient bound includes that iteration, its
records stop at the last capture before it) and leaves the batch at
the end of the chunk; rows never mix, so the states it reaches past
divergence touch no other run.

The affine arithmetic rounds differently from the per-agent form (the
updates above with all_gradients): on the shipped configs recorded gaps
move by up to about 1e-11 relative, pdop_alg1 consensus by up to about
2e-10, gradient bounds by up to about 6e-14.  The per-agent form lives
only in difference.py and the test oracles: a measured trace steps it
in two passes per block (the primal states, then the difference
recursion along them), bit-identical to earlier releases.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .conditions import ConditionReport
from .errors import ConditionError, RangeError
from .graphs import ConsensusWeights, PushPullWeights, validate_consensus_matrix
from .noise import NOISE_CHUNK, laplace_draws
from .objectives import QuadraticEstimationProblem, optimal_solution
from .privacy import _blocks, conservative_budget
from .schedules import (
    PowerSchedule,
    ScheduleSet,
    validate_static_schedules,
    validate_tracking_schedules,
)


@dataclass(frozen=True)
class Variant:
    """What a variant name means.

    name: the variant's name, as given to Variant.of.
    tracking: gradient tracking on push-pull weights, else static
        consensus on consensus weights.
    schedules: "attenuated" runs the configured bundle and is checked
        against the schedule conditions; "unit" pins every coupling at
        one and drops the tracker mix; "pdop" also swaps in the
        geometric stepsize and noise schedules.
    needs: the config's schedule blocks (keys <block>.*) the variant
        reads besides schedules.stepsize and noise.scale.
    """

    name: str
    tracking: bool
    schedules: str
    needs: tuple[str, ...] = ()

    @staticmethod
    def of(name: str) -> "Variant":
        try:
            return _VARIANT_TABLE[name]
        except KeyError:
            raise ValueError(f"unknown variant {name!r}") from None

    def weights(self, setup: "RunSetup"):
        """The setup's weights of this variant's family; ConditionError
        when the setup was built without them."""
        weights = setup.push_pull if self.tracking else setup.consensus
        if weights is None:
            kind = "push-pull" if self.tracking else "consensus"
            raise ConditionError(f"variant {self.name!r} needs {kind} weights")
        return weights


_VARIANT_TABLE = {v.name: v for v in (
    Variant("alg1", tracking=False, schedules="attenuated",
            needs=("schedules.coupling",)),
    Variant("dgd", tracking=False, schedules="unit"),
    Variant("pdop_alg1", tracking=False, schedules="pdop",
            needs=("pdop.stepsize", "pdop.noise")),
    Variant("alg2", tracking=True, schedules="attenuated",
            needs=("schedules.coupling_state", "schedules.coupling_tracker",
                   "schedules.tracker_mix")),
    Variant("push_pull", tracking=True, schedules="unit"),
    Variant("pdop_push_pull", tracking=True, schedules="pdop",
            needs=("pdop.stepsize", "pdop.noise")),
)}
VARIANTS = tuple(_VARIANT_TABLE)


DIVERGENCE_THRESHOLD = 1e12  # on max |z| (module docstring)


@dataclass(frozen=True)
class RunSetup:
    """Everything a solver run needs besides the variant and the seed.

    theta_star and f_star, the problem's minimizer and optimal value,
    are derived from the problem (objectives.optimal_solution).
    """

    problem: QuadraticEstimationProblem
    schedules: ScheduleSet
    consensus: ConsensusWeights | None = None
    push_pull: PushPullWeights | None = None
    init_radius: float = 1.0
    stride: int = 10
    pdop_stepsize: PowerSchedule | None = None
    pdop_noise: PowerSchedule | None = None
    theta_star: np.ndarray = field(init=False)
    f_star: float = field(init=False)

    def __post_init__(self):
        theta_star, f_star = optimal_solution(self.problem)
        object.__setattr__(self, "theta_star", theta_star)
        object.__setattr__(self, "f_star", f_star)


@dataclass
class Trace:
    """Recorded metrics of one run, sampled every `stride` iterations.

    `columns` is run_NNN.csv as {header: column}: k, consensus, gap,
    dist_opt, tracking and epsilon_partial, the conservative privacy
    budget series at each record scaled by the harvested gradient bound
    (the largest ||grad f_i||_1 seen on the trajectory), NaN for
    noiseless runs.  A diverged run keeps its records up to the
    divergence point and marks diverged_at.
    """

    variant: str
    seed: int
    columns: dict
    diverged_at: int | None = None
    diverged_magnitude: float = float("nan")
    gradient_bound: float = 0.0

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    @property
    def final_gap(self) -> float:
        return np.inf if self.diverged else float(self.columns["gap"][-1])

    @property
    def final_consensus(self) -> float:
        return (np.inf if self.diverged
                else float(self.columns["consensus"][-1]))


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
    couplings = (("coupling_state", "coupling_tracker") if spec.tracking
                 else ("coupling",))
    return ScheduleSet(stepsize=stepsize, noise_scale=noise,
                       **dict.fromkeys(couplings, PowerSchedule.constant(1.0)))


def _diagonal_load(gamma: float, A: np.ndarray) -> float:
    """gamma * max(0, -min_i A_ii): I + gamma A keeps every diagonal
    positive while this is below 1.  Zero, at any gamma, if no A_ii < 0."""
    worst = max(0.0, -float(np.min(np.diag(A))))
    return gamma * worst if worst else 0.0


def validate_for_variant(variant: str, setup: RunSetup) -> ConditionReport:
    """Structural checks and the peak of each coupling for every
    variant; schedule condition checks only for the two attenuated
    variants (baselines run schedules that intentionally violate them).

    A coupling passes when its diagonal load (_diagonal_load) at its
    peak over all k is below 1; run_batch refuses a run whose largest
    coupling loads 1 or more."""
    spec = Variant.of(variant)
    w = spec.weights(setup)
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
        value = _diagonal_load(coupling.peak, A)
        report.add(f"{name}_peak_diag_positive",
                   f"peak {name} * max|A_ii| < 1", value, value < 1.0)
    if spec.tracking:
        # The tracker sensitivity needs 1 - alpha^k - min|C_ii| gamma2^k
        # > 0 at every k; the peaks bound both terms at once.
        mix = 0.0 if sch.tracker_mix is None else sch.tracker_mix.peak
        push = w.min_diag_push
        value = mix + (push * sch.coupling_tracker.peak if push else 0.0)
        report.add("tracker_mix_peak_contraction",
                   "peak tracker_mix + min|C_ii| * peak coupling_tracker < 1",
                   value, value < 1.0)
    if spec.schedules == "attenuated":
        sub = (validate_tracking_schedules if spec.tracking
               else validate_static_schedules)(sch)
        report.entries.extend(sub.entries)
        report.warnings.extend(sub.warnings)
    return report


def _off_diagonal(A: np.ndarray) -> np.ndarray:
    out = A.copy()
    np.fill_diagonal(out, 0.0)
    return out


def _record_points(iterations: int, stride: int) -> np.ndarray:
    ks = np.arange(0, iterations + 1, stride)
    if ks[-1] != iterations:
        ks = np.append(ks, iterations)
    return ks


def _gradient_norms(grads: np.ndarray) -> np.ndarray:
    """Largest per-agent ||grad f_i||_1 of each run, along leading axes:
    the bits of sum and max, without their reductions over short axes
    (numpy adds fewer than 8 columns in order; max is exact)."""
    mags = np.abs(grads)
    if mags.shape[-1] >= 8:
        norms = mags.sum(axis=-1)
    else:
        norms = mags[..., 0]
        for c in range(1, mags.shape[-1]):
            norms = norms + mags[..., c]
    peak = norms[..., 0]
    for i in range(1, norms.shape[-1]):
        peak = np.maximum(peak, norms[..., i])
    return peak


def _divergence(Z: np.ndarray, threshold: float):
    """(max |z|, diverged) of every state of a chunk, (K, R) each; no
    |Z| temporary, and NaN propagates."""
    extreme = np.maximum(Z.max(axis=-1), -Z.min(axis=-1))
    return extreme, ~np.isfinite(extreme) | (extreme > threshold)


def _transposed(A: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(A.T)


def _vecmat(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """x A for every row of x (..., n): one (1, n) @ (n, n) product per
    row, so each row's bits are those of the row alone."""
    return np.matmul(x[..., None, :], A)[..., 0, :]


def _chunk_length(runs: int, width: int) -> int:
    """Iterations per chunk: the offsets (K, runs, width) and the
    operators (K, width, width) hold at most NOISE_CHUNK x width floats
    each, and so do the noise blocks (K, runs, m, d)."""
    return max(1, NOISE_CHUNK // max(runs, width))


class _AffineStep:
    """One iteration of either family as an affine map of the
    flattened state, z <- z T_k + b_k on row vectors (T_k = A_k^T).

    Every objective is quadratic: grads = H x - c on the flattened
    state x of shape (n,) = (m d,) (objectives.affine_gradient).
    Writing [W] for W kron I_d, the static step is

        A_k = I + gamma_k [W] - lam_k H,
        b_k = lam_k c + gamma_k [W_off] zeta_k.

    Tracking steps z = (x, y); the gradient at the new state and the
    cached one at the old state, g = H x - c, fold into the y rows:

        A_k = [[I + g1_k [R],            -lam_k I                         ],
               [alpha_k H + g1_k H [R],  (1 - alpha_k) I + g2_k [C] - lam_k H]],
        b_k = (g1_k [R_off] zeta_k,
               g1_k H [R_off] zeta_k + g2_k [C_off] xi_k - alpha_k c).

    The methods take a chunk's K schedule values as (K, 1, 1) columns.
    Every product with states or noise is per row (_vecmat), so a
    run's rows do not depend on how many runs are stacked.
    """

    def __init__(self, spec: Variant, weights, problem):
        self.tracking = spec.tracking
        H, self.c = problem.affine_gradient()
        self.n = H.shape[0]
        self.eye = np.eye(self.n)
        self.HT = _transposed(H)

        def spread(A):
            return np.kron(A, np.eye(problem.dim))

        if spec.tracking:
            R, C = spread(weights.pull), spread(weights.push)
            R_off = spread(_off_diagonal(weights.pull))
            self.RT, self.CT = _transposed(R), _transposed(C)
            self.HRT = _transposed(H @ R)
            self.RoffT = _transposed(R_off)
            self.HRoffT = _transposed(H @ R_off)
            self.CoffT = _transposed(spread(_off_diagonal(weights.push)))
        else:
            self.WT = _transposed(spread(weights.matrix))
            self.WoffT = _transposed(spread(_off_diagonal(weights.matrix)))

    def gradients(self, x: np.ndarray) -> np.ndarray:
        """H x - c of every flattened state row x (..., n)."""
        grads = _vecmat(x, self.HT)
        grads -= self.c
        return grads

    # The operators are assembled block by block in place: sums are
    # commutative, so the values are those of the formulas above, and a
    # chunk holds at most one (K, n, n) temporary besides T.

    def operators(self, coefs) -> np.ndarray:
        """T_k of every iteration of a chunk, (K, N, N)."""
        n = self.n
        if not self.tracking:
            lam, gam = coefs
            T = np.multiply(gam, self.WT)
            T += self.eye
            T -= lam * self.HT
            return T
        lam, g1, g2, alpha = coefs
        T = np.empty((len(lam), 2 * n, 2 * n))
        top_left, top_right = T[:, :n, :n], T[:, :n, n:]
        bottom_left, bottom_right = T[:, n:, :n], T[:, n:, n:]
        np.multiply(g1, self.RT, out=top_left)
        top_left += self.eye
        np.multiply(g1, self.HRT, out=top_right)
        top_right += alpha * self.HT
        np.multiply(-lam, self.eye, out=bottom_left)
        np.multiply(g2, self.CT, out=bottom_right)
        bottom_right += (1.0 - alpha) * self.eye
        bottom_right -= lam * self.HT
        return T

    def offsets(self, coefs, draw) -> np.ndarray:
        """b_k of every iteration and run of a chunk, (K, R, N);
        draw(stream) gives that stream's (K, R, n) noise."""
        zeta = draw("state")
        if not self.tracking:
            lam, gam = coefs
            B = np.multiply(gam, _vecmat(zeta, self.WoffT))
            B += lam * self.c
            return B
        lam, g1, g2, alpha = coefs
        n = self.n
        B = np.empty(zeta.shape[:-1] + (2 * n,))
        np.multiply(g1, _vecmat(zeta, self.RoffT), out=B[..., :n])
        b_y = B[..., n:]
        np.multiply(g1, _vecmat(zeta, self.HRoffT), out=b_y)
        del zeta
        b_y += g2 * _vecmat(draw("tracker"), self.CoffT)
        b_y -= alpha * self.c
        return B


def _step_chunk(z, T, Z) -> None:
    """Overwrite the offsets Z (K, R, N) with the states they lead to
    from z (R, N): Z[k] = z_k T[k] + Z[k], z_{k+1} = Z[k].  The states
    are stepped as (R, 1, N) stacks, so each product is per row; one
    run steps its row as row.dot(T[k]), the same bits without the
    stack."""
    if len(z) == 1:
        row = z[0]
        for T_k, z_next in zip(T, Z[:, 0]):
            z_next += row.dot(T_k)
            row = z_next
        return
    z = z[:, None, :]
    product = np.empty_like(z)
    for T_k, z_next in zip(T, Z[:, :, None, :]):
        np.matmul(z, T_k, out=product)
        z_next += product
        z = z_next


def run_batch(variant: str, setup: RunSetup, iterations: int, seeds,
              force: bool = False) -> list[Trace]:
    """Execute one run per seed, all stepped together; the traces come
    back in seed order, each equal bit for bit to the one-seed batch of
    its seed.  A seed fixes its run's initial state and noise, so two
    variants run with one seed see the same ones."""
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

    record_ks = _record_points(iterations, setup.stride)
    n_rec = len(record_ks)
    # The records of every run, by run_NNN.csv header.
    table = {name: np.full((n_runs, n_rec), np.nan)
             for name in ("consensus", "gap", "dist_opt", "tracking")}

    tracking = spec.tracking
    weights = spec.weights(setup)
    if tracking:
        u, v = weights.left_eigvec, weights.right_eigvec
        schedules = (sch.stepsize, sch.coupling_state, sch.coupling_tracker,
                     sch.tracker_mix)
        mixed = (weights.pull, weights.push)
    else:
        schedules = (sch.stepsize, sch.coupling)
        mixed = (weights.matrix,)
    # Each coupling must keep its mixed diagonals positive at every k;
    # its maximum is taken block by block (NaN wins, as in one max).
    for coupling, A in zip(schedules[1:], mixed):
        peak = np.max([coupling.values(ks).max()
                       for ks in _blocks(iterations)])
        if _diagonal_load(peak, A) >= 1.0:
            raise RangeError("gamma too large: a diagonal entry of the "
                             "mixed matrix is nonpositive")

    # The raw (unit gradient bound) budget does not depend on the seed:
    # one conservative series per batch, read at the record points.
    if sch.noise_scale is None:
        eps = np.full(n_rec, np.nan)
    else:
        partial = conservative_budget(
            sch, weights, 1.0, iterations, keep=record_ks[1:]
        ).epsilon_partial
        eps = np.append(0.0, partial)

    step = _AffineStep(spec, weights, problem)
    n = step.n
    x0 = setup.init_radius * np.stack([
        np.random.default_rng(s).standard_normal(n) for s in seeds
    ])
    grads0 = step.gradients(x0)
    grad_bound = _gradient_norms(grads0.reshape(n_runs, m, d))
    # Row r of z is the flattened state of run active[r]: x, then y.
    z = np.concatenate([x0, grads0], axis=1) if tracking else x0

    def record(rec, runs, states):
        """Metrics of flattened states at record indices rec of runs."""
        xs = states[:, :n].reshape(-1, m, d)
        if tracking:
            ys = states[:, n:].reshape(-1, m, d)
            xbar = (u @ xs) / m
            ybar = ys.mean(axis=-2)
            table["tracking"][runs, rec] = np.sum(
                (ys - v[:, None] * ybar[:, None, :]) ** 2, axis=(-2, -1)
            )
        else:
            xbar = xs.mean(axis=-2)
        table["consensus"][runs, rec] = np.sum((xs - xbar[:, None, :]) ** 2,
                                               axis=(-2, -1))
        table["gap"][runs, rec] = problem.global_cost(xbar) - setup.f_star
        err = xbar - setup.theta_star
        # A stacked (1, d) @ (d, 1) product takes the same BLAS dot as
        # np.linalg.norm on one vector, so the distance matches it bitwise.
        table["dist_opt"][runs, rec] = np.sqrt(
            (err[:, None, :] @ err[:, :, None])[:, 0, 0])

    active = np.arange(n_runs)
    # A start past the divergence threshold overflows the metrics.
    with np.errstate(over="ignore", invalid="ignore"):
        record(np.zeros(n_runs, dtype=int), active, z)
    kept = np.full(n_runs, n_rec)
    diverged_at = [None] * n_runs
    magnitude = [float("nan")] * n_runs

    threshold = DIVERGENCE_THRESHOLD
    # No finite state within +-limit diverges, whatever the threshold.
    limit = min(threshold, sys.float_info.max)
    start = 0
    while start < iterations and active.size:
        stop = min(start + _chunk_length(active.size, z.shape[1]),
                   iterations)
        ks_chunk = np.arange(start, stop)
        run_seeds = [seeds[r] for r in active]
        shape = (stop - start, active.size, n)

        def draw(stream):
            return laplace_draws(sch.noise_scale, run_seeds, m, stream,
                                 ks_chunk, d).reshape(shape)

        coefs = [(np.zeros(len(ks_chunk)) if s is None
                  else s.values(ks_chunk))[:, None, None] for s in schedules]
        Z = step.offsets(coefs, draw)
        # A run that diverges inside the chunk is stepped on to its end
        # (rows never mix) and its states past divergence are ignored.
        with np.errstate(over="ignore", invalid="ignore"):
            _step_chunk(z, step.operators(coefs), Z)
            norms = _gradient_norms(
                step.gradients(Z[..., :n]).reshape(shape[:2] + (m, d))
            )
            # A NaN fails both tests.
            if Z.max() <= limit and -Z.min() <= limit:
                gone = np.zeros(active.size, dtype=bool)
            else:
                extreme, bad = _divergence(Z, threshold)
                gone = bad.any(axis=0)
            if gone.any():
                # The gradient bound includes the diverging iteration;
                # NaN norms are skipped by fmax.
                first = np.where(gone, bad.argmax(axis=0), shape[0])
                norms[np.arange(shape[0])[:, None] > first] = np.nan
                for pos in np.flatnonzero(gone):
                    r = active[pos]
                    diverged_at[r] = start + int(first[pos]) + 1
                    magnitude[r] = float(extreme[first[pos], pos])
                    kept[r] = np.searchsorted(record_ks, diverged_at[r])
            peak = np.fmax.reduce(norms, axis=0)
            current = grad_bound[active]
            grad_bound[active] = np.where(peak > current, peak, current)
            # Records of a diverged run past its last capture are
            # written here but cut off by `kept`.
            in_chunk = np.arange(*np.searchsorted(record_ks, (start, stop),
                                                  side="right"))
            if in_chunk.size:
                rows = record_ks[in_chunk] - start - 1
                record(np.repeat(in_chunk, active.size),
                       np.tile(active, in_chunk.size),
                       Z[rows].reshape(-1, Z.shape[-1]))
        alive = ~gone
        active = active[alive]
        z = Z[-1][alive]
        del Z  # before the next chunk's offsets are allocated
        start = stop

    traces = []
    for r in range(n_runs):
        keep = kept[r]
        # The budget bound scales linearly with the gradient bound,
        # which is only fully harvested at the end of the run; a
        # noiseless run's NaN column stays NaN, and a run whose gradient
        # bound is infinite reads NaN at k = 0 (0 * inf).
        with np.errstate(over="ignore", invalid="ignore"):
            columns = {"k": record_ks[:keep],
                       **{name: all_runs[r, :keep]
                          for name, all_runs in table.items()},
                       "epsilon_partial": eps[:keep] * grad_bound[r]}
        traces.append(Trace(variant, seeds[r], columns, diverged_at[r],
                            magnitude[r], float(grad_bound[r])))
    return traces
