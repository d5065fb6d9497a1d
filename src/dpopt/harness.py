"""Monte Carlo orchestration, aggregation and CSV reports.

Runs are seeded from the configured base seed and the run index, so a
rerun of the same config reproduces every file byte for byte and two
variants launched from the same config see identical initial states and
identical message noise, run for run.  Aggregation is a deterministic
reduce ordered by run index.

Diverged runs never enter the aggregate statistics silently: each one
becomes a row in failures.csv, and trace files are written only for
completed runs, so file counts satisfy completed + failed = requested.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RangeError
from .noise import derive_seed
from .privacy import (
    BudgetSeries,
    asymptotic_budget,
    budget_tail_bound,
    conservative_budget,
    infinite_tail,
)
from .solvers import (
    RunSetup,
    Trace,
    Variant,
    effective_schedules,
    run_batch,
)

# Rows per block when writing whole columns.  Small blocks hold few
# cell strings at once, so peak memory stays that of a row-by-row
# writer; at 128 rows the per-block cost is lost in the formatting.
CSV_BLOCK = 128


def format_column(column: np.ndarray) -> list[str]:
    """The cells of a column: repr, the shortest round-trip decimal
    form, for a float dtype; str for any other."""
    return list(map(repr if column.dtype.kind == "f" else str,
                    column.tolist()))


def write_csv(path: str, columns: dict) -> None:
    """Write a table given as {header: column}: the header line, then
    the columns (sequences of equal length) formatted one block of
    CSV_BLOCK rows at a time."""
    data = [np.asarray(column) for column in columns.values()]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(columns) + "\n")
        for start in range(0, len(data[0]), CSV_BLOCK):
            cells = [format_column(c[start:start + CSV_BLOCK]) for c in data]
            handle.writelines(",".join(row) + "\n" for row in zip(*cells))


@dataclass(frozen=True)
class Failure:
    run_index: int
    seed: int
    diverged_at: int
    magnitude: float


@dataclass
class Aggregate:
    """Cross-run statistics of one variant's Monte Carlo batch.

    Means and variances are taken over completed runs on the shared
    record grid; per-run finals keep diverged runs as +inf entries so
    order statistics can count divergence against a variant.
    """

    variant: str
    requested: int
    ks: np.ndarray
    mean_gap: np.ndarray
    var_gap: np.ndarray
    mean_consensus: np.ndarray
    var_consensus: np.ndarray
    mean_tracking: np.ndarray
    var_tracking: np.ndarray
    epsilon_partial: np.ndarray
    final_gaps: np.ndarray
    final_consensus: np.ndarray
    failures: list[Failure] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.requested - len(self.failures)

    @property
    def mean_final_gap(self) -> float:
        return float(np.mean(self.final_gaps))

    @property
    def se_final_gap(self) -> float:
        """Standard error of the completed-run final gaps."""
        finite = self.final_gaps[np.isfinite(self.final_gaps)]
        if finite.size < 2:
            return 0.0
        return float(np.std(finite, ddof=1) / math.sqrt(finite.size))


def monte_carlo(
    variant: str,
    setup: RunSetup,
    iterations: int,
    base_seed: int,
    n_runs: int,
    force: bool = False,
) -> list[Trace]:
    """Execute n_runs independent runs with index-derived seeds, all
    stepped together in one batch."""
    seeds = [derive_seed(base_seed, index) for index in range(n_runs)]
    return run_batch(variant, setup, iterations, seeds, force=force)


def aggregate(variant: str, traces: list[Trace], base_seed: int) -> Aggregate:
    if not traces:
        raise ValueError("cannot aggregate an empty run list")
    failures = [
        Failure(
            run_index=i,
            seed=derive_seed(base_seed, i),
            diverged_at=t.diverged_at,
            magnitude=t.diverged_magnitude,
        )
        for i, t in enumerate(traces) if t.diverged
    ]
    # With every run diverged there is no shared full grid; fall back to
    # the k = 0 record, which every trace carries.
    basis = [t for t in traces if not t.diverged]
    width = None if basis else 1
    basis = basis or traces

    def stats(name: str):
        stack = np.vstack([getattr(t, name)[:width] for t in basis])
        if stack.shape[0] < 2:
            return stack.mean(axis=0), np.zeros(stack.shape[1])
        # Diverged runs' k = 0 records may be inf.
        with np.errstate(over="ignore", invalid="ignore"):
            return stack.mean(axis=0), stack.var(axis=0, ddof=1)

    mean_gap, var_gap = stats("gap")
    mean_cons, var_cons = stats("consensus")
    mean_track, var_track = stats("tracking")
    eps, _ = stats("epsilon_partial")
    return Aggregate(
        variant=variant,
        requested=len(traces),
        ks=basis[0].ks[:width],
        mean_gap=mean_gap,
        var_gap=var_gap,
        mean_consensus=mean_cons,
        var_consensus=var_cons,
        mean_tracking=mean_track,
        var_tracking=var_track,
        epsilon_partial=eps,
        final_gaps=np.array([t.final_gap for t in traces]),
        final_consensus=np.array([t.final_consensus for t in traces]),
        failures=failures,
    )


def write_trace(path: str, trace: Trace) -> None:
    write_csv(path, {
        "k": trace.ks, "consensus": trace.consensus, "gap": trace.gap,
        "dist_opt": trace.dist_opt, "tracking": trace.tracking,
        "epsilon_partial": trace.epsilon_partial,
    })


def write_aggregate(path: str, agg: Aggregate) -> None:
    write_csv(path, {
        "k": agg.ks, "mean_gap": agg.mean_gap, "var_gap": agg.var_gap,
        "mean_consensus": agg.mean_consensus,
        "var_consensus": agg.var_consensus,
        "mean_tracking": agg.mean_tracking,
        "var_tracking": agg.var_tracking,
        "epsilon_partial": agg.epsilon_partial,
    })


def write_failures(path: str, agg: Aggregate) -> None:
    failures = agg.failures
    write_csv(path, {
        "run": [f.run_index for f in failures],
        "seed": [f.seed for f in failures],
        "diverged_at": [f.diverged_at for f in failures],
        "magnitude": [f.magnitude for f in failures],
    })


@dataclass(frozen=True)
class BudgetRow:
    horizon: int
    conservative: float
    envelope: float
    tail: float
    summable: bool


@dataclass(frozen=True)
class BudgetAccount:
    """A variant's budget series through the largest horizon, and its
    rows at each requested horizon."""

    conservative: BudgetSeries
    envelope: BudgetSeries
    rows: list[BudgetRow]


def budget_account(
    variant: str,
    setup: RunSetup,
    gradient_bound: float,
    horizons,
) -> BudgetAccount:
    """Budget series and rows of one variant, each series walked once to
    the largest horizon.  Both series are kept at the horizons and each
    horizon // 10 (the rows and the growth line read them), the
    conservative one also at the breakdown grid of the largest horizon.

    conservative: the finite-horizon sensitivity-recursion bound.
    envelope: partial sums of the dominating stepsize-over-noise power
        law, the column whose stabilization signals a finite budget at
        unbounded horizons.
    tail: integral-test bound on everything the envelope series pays
        after the horizon; inf when the series diverges.
    """
    horizons = sorted(int(h) for h in horizons)
    if not horizons or horizons[0] < 1:
        raise ConfigError("budget horizons must be positive integers")
    top = horizons[-1]
    spec = Variant.of(variant)
    sch = effective_schedules(variant, setup)
    nu = sch.noise_scale
    if nu is None:
        raise ConfigError(
            "budget accounting needs a nonzero noise scale",
            key="noise.scale.form",
        )
    marks = sorted({*horizons, *(h // 10 for h in horizons if h >= 10)})
    # The marks merged into the sorted grid, duplicates dropped by a
    # diff mask: np.unique imports numpy.ma, about 1 MB, and np.sort
    # faults in about 0.2 MB of sort code.
    keep = _breakdown_ks(top)
    keep = np.insert(keep, np.searchsorted(keep, marks), marks)
    keep = keep[np.diff(keep, prepend=0) > 0]
    conservative = conservative_budget(
        sch, spec.weights(setup), gradient_bound, top, keep
    )
    # Tracking variants send two noisy messages per iteration.
    bound = (2.0 if spec.tracking else 1.0) * gradient_bound
    envelope = asymptotic_budget(sch.stepsize, nu, bound, top, marks)
    summable = not infinite_tail(sch.stepsize, nu)
    rows = [
        BudgetRow(
            horizon=h,
            conservative=conservative.epsilon_at(h),
            envelope=envelope.epsilon_at(h),
            tail=budget_tail_bound(sch.stepsize, nu, h, bound),
            summable=summable,
        )
        for h in horizons
    ]
    return BudgetAccount(conservative, envelope, rows)


def write_budget(path: str, rows: list[BudgetRow]) -> None:
    write_csv(path, {
        "horizon": [r.horizon for r in rows],
        "epsilon_bound": [r.conservative for r in rows],
        "epsilon_envelope": [r.envelope for r in rows],
        "tail_envelope": [r.tail for r in rows],
        "summable": ["yes" if r.summable else "no" for r in rows],
    })


def _breakdown_ks(horizon: int) -> np.ndarray:
    """The k's of a breakdown through horizon: every stride-th k from 1,
    strided to about 10,000 rows, plus the horizon."""
    stride = max(1, horizon // 10_000)
    ks = np.arange(1, horizon + 1, stride)
    return ks if ks[-1] == horizon else np.append(ks, horizon)


def write_breakdown(path: str, series: BudgetSeries) -> None:
    """Per-iteration terms of a budget series at the breakdown grid of
    its last k; the series must hold every k of that grid."""
    grid = _breakdown_ks(int(series.ks[-1]))
    idx = np.searchsorted(series.ks, grid)
    if not np.array_equal(series.ks[idx], grid):
        raise RangeError("budget series lacks k's of its breakdown grid")
    write_csv(path, {
        "k": series.ks[idx], "varsigma": series.varsigma[idx],
        "per_term": series.per_term[idx],
        "epsilon_partial": series.epsilon_partial[idx],
    })


def run_directory(base: str, variant: str | None = None) -> str:
    path = os.path.join(base, variant) if variant else base
    os.makedirs(path, exist_ok=True)
    return path
