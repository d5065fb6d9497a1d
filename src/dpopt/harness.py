"""Monte Carlo orchestration, aggregation and CSV reports.

Runs are seeded from the configured base seed and the run index, so a
rerun of the same config reproduces every file byte for byte and two
variants launched from the same config see identical initial states and
identical message noise, run for run.  Aggregation is a deterministic
reduce ordered by run index; each trace carries its variant and seed.

Diverged runs never enter the aggregate statistics silently: each one
becomes a row in failures.csv, and trace files are written only for
completed runs, so file counts satisfy completed + failed = requested.

Each table is built once, as the {header: column} dict `write_csv`
writes, where its values are computed: `Trace.columns` in `run_batch`,
`Aggregate.columns` and `Aggregate.failures` in `aggregate`,
`BudgetAccount.table` in `budget_account`.  Other code reads a column
by its header.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

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
    the columns formatted one block of CSV_BLOCK rows at a time.  A
    table with no column, or with columns of unequal length, raises
    ValueError before the file is opened."""
    data = [np.asarray(column) for column in columns.values()]
    lengths = {header: len(column) for header, column in zip(columns, data)}
    if len(set(lengths.values())) != 1:
        raise ValueError("a table needs one or more columns of one "
                         f"length, got {lengths}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(columns) + "\n")
        for start in range(0, len(data[0]), CSV_BLOCK):
            cells = [format_column(c[start:start + CSV_BLOCK]) for c in data]
            handle.writelines(",".join(row) + "\n" for row in zip(*cells))


@dataclass
class Aggregate:
    """Cross-run statistics of one variant's Monte Carlo batch.

    `columns` is aggregate.csv: k, the mean and variance over completed
    runs of gap, consensus and tracking on the shared record grid, and
    the mean epsilon_partial.  `failures` is failures.csv: the run,
    seed, diverged_at and magnitude of each diverged run.  Per-run
    finals keep diverged runs as +inf entries so order statistics can
    count divergence against a variant.
    """

    variant: str
    requested: int
    columns: dict
    failures: dict
    final_gaps: np.ndarray
    final_consensus: np.ndarray

    @property
    def completed(self) -> int:
        return self.requested - len(self.failures["run"])

    @property
    def mean_final_gap(self) -> float:
        return float(np.mean(self.final_gaps))

    @property
    def mean_final_consensus(self) -> float:
        return float(np.mean(self.final_consensus))

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


def aggregate(traces: list[Trace]) -> Aggregate:
    """Statistics of one variant's traces; failures keep trace seeds."""
    if not traces:
        raise ValueError("cannot aggregate an empty run list")
    diverged = [i for i, t in enumerate(traces) if t.diverged]
    failures = {
        "run": diverged,
        "seed": [traces[i].seed for i in diverged],
        "diverged_at": [traces[i].diverged_at for i in diverged],
        "magnitude": [traces[i].diverged_magnitude for i in diverged],
    }
    # With every run diverged there is no shared full grid; fall back to
    # the k = 0 record, which every trace carries.
    basis = [t for t in traces if not t.diverged]
    width = None if basis else 1
    basis = basis or traces

    def stats(name: str):
        stack = np.vstack([t.columns[name][:width] for t in basis])
        if stack.shape[0] < 2:
            return stack.mean(axis=0), np.zeros(stack.shape[1])
        # Diverged runs' k = 0 records may be inf.
        with np.errstate(over="ignore", invalid="ignore"):
            return stack.mean(axis=0), stack.var(axis=0, ddof=1)

    columns = {"k": basis[0].columns["k"][:width]}
    for name in ("gap", "consensus", "tracking"):
        columns[f"mean_{name}"], columns[f"var_{name}"] = stats(name)
    columns["epsilon_partial"] = stats("epsilon_partial")[0]
    return Aggregate(
        variant=traces[0].variant,
        requested=len(traces),
        columns=columns,
        failures=failures,
        final_gaps=np.array([t.final_gap for t in traces]),
        final_consensus=np.array([t.final_consensus for t in traces]),
    )


@dataclass(frozen=True)
class BudgetAccount:
    """A variant's budget series through the largest horizon; `table`,
    budget.csv, with a row at each requested horizon; and whether the
    envelope series is summable."""

    conservative: BudgetSeries
    envelope: BudgetSeries
    table: dict
    summable: bool


def budget_account(
    variant: str,
    setup: RunSetup,
    gradient_bound: float,
    horizons,
) -> BudgetAccount:
    """Budget series and table of one variant, each series walked once
    to the largest horizon.  Both series are kept at the horizons and
    each horizon // 10 (the table and the growth line read them), the
    conservative one also at the breakdown grid of the largest horizon.

    epsilon_bound: the conservative series, the finite-horizon
        sensitivity-recursion bound.
    epsilon_envelope: the envelope series, partial sums of the
        dominating stepsize-over-noise power law, the column whose
        stabilization signals a finite budget at unbounded horizons.
    tail_envelope: integral-test bound on everything the envelope
        series pays after the horizon; inf when the series diverges.
    summable: yes when the envelope series converges, else no.
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
    table = {
        "horizon": horizons,
        "epsilon_bound": [conservative.epsilon_at(h) for h in horizons],
        "epsilon_envelope": [envelope.epsilon_at(h) for h in horizons],
        "tail_envelope": [budget_tail_bound(sch.stepsize, nu, h, bound)
                          for h in horizons],
        "summable": ["yes" if summable else "no"] * len(horizons),
    }
    return BudgetAccount(conservative, envelope, table, summable)


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
