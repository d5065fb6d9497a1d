"""Command line interface.

Subcommands:
    validate <config>     check structure and schedule conditions
    run <config>          Monte Carlo batch of the configured variant
    budget <config>       privacy budget report at chosen horizons
    compare <config>      several variants on one shared problem

Exit codes: 0 on success, 1 when an experiment fails validation or a
run-level check or every run of a batch diverged, 2 on config or IO
errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import build_setup, load_config
from .errors import ConfigError, DpoptError
from .harness import (
    Aggregate,
    BudgetRow,
    aggregate,
    budget_account,
    monte_carlo,
    run_directory,
    write_aggregate,
    write_breakdown,
    write_budget,
    write_csv,
    write_failures,
    write_trace,
)
from .solvers import VARIANTS, effective_schedules, validate_for_variant
from .svgplot import Series, line_plot, std_band

SUMMARY_COLUMNS = (
    "variant", "runs", "completed", "failures", "mean_final_gap",
    "se_final_gap", "mean_final_consensus", "epsilon_bound",
    "epsilon_envelope",
)


def _parse_horizons(text: str) -> list[int]:
    horizons = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise ConfigError(f"bad horizon {token!r}") from None
        if value < 1 or value != int(value):
            raise ConfigError(f"horizons must be positive integers, got {token!r}")
        horizons.append(int(value))
    if not horizons:
        raise ConfigError("at least one horizon is required")
    return sorted(set(horizons))


def _parse_variants(text: str) -> list[str]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise ConfigError("at least one variant is required")
    for name in names:
        if name not in VARIANTS:
            raise ConfigError(
                f"unknown variant {name!r}; choose from {', '.join(VARIANTS)}"
            )
    return list(dict.fromkeys(names))


def _config_with_overrides(args):
    """Load the config and resolve --iters and --runs against it."""
    config = load_config(args.config)
    args.iters = config.iterations if args.iters is None else args.iters
    args.runs = config.monte_carlo if args.runs is None else args.runs
    for flag, value in (("--iters", args.iters), ("--runs", args.runs)):
        if value < 1:
            raise ConfigError(f"{flag} must be positive")
    return config


# Each plotted Aggregate column: the subject of its title and its y label.
_PLOTS = {
    "gap": ("optimality gap", "f(mean state) - f*"),
    "consensus": ("consensus error", "mean squared distance to network mean"),
    "tracking": ("gradient tracking error", "mean squared tracker residual"),
}


def _plot(path: str, column: str, aggregates: dict[str, Aggregate],
          title_suffix: str) -> None:
    """Plot a column's mean with a one-std band for each aggregate."""
    subject, y_label = _PLOTS[column]
    series = []
    for name, agg in aggregates.items():
        mean = getattr(agg, f"mean_{column}")
        band = std_band(mean, getattr(agg, f"var_{column}"))
        series.append(Series(name, agg.ks, mean, band=band))
    line_plot(path, series, title=subject + title_suffix, y_label=y_label)


def _run_variant(
    args, config, setup, variant: str, out_dir: str, plot: bool
) -> tuple[Aggregate, BudgetRow | None]:
    """Run one variant's batch and write its traces, aggregate, failures,
    budget and, with `plot`, its plots; return the aggregate and the
    budget row at the horizon, None for a noiseless variant."""
    traces = monte_carlo(
        variant, setup, args.iters, config.noise_seed, args.runs,
        force=args.force,
    )
    agg = aggregate(variant, traces, config.noise_seed)
    for index, trace in enumerate(traces):
        if not trace.diverged:
            write_trace(os.path.join(out_dir, f"run_{index:03d}.csv"), trace)
    write_aggregate(os.path.join(out_dir, "aggregate.csv"), agg)
    write_failures(os.path.join(out_dir, "failures.csv"), agg)
    row = None
    if effective_schedules(variant, setup).noise_scale is not None:
        rows = budget_account(
            variant, setup, config.gradient_bound, [args.iters]
        ).rows
        write_budget(os.path.join(out_dir, "budget.csv"), rows)
        row = rows[0]
    if plot:
        columns = ["gap", "consensus"]
        # Only tracking variants record the tracking column.
        if np.isfinite(agg.mean_tracking).any():
            columns.append("tracking")
        for column in columns:
            _plot(os.path.join(out_dir, f"{column}.svg"), column,
                  {variant: agg}, ", mean with one-std band")
    return agg, row


def _exit_code(agg: Aggregate) -> int:
    """1, with a line on stderr, when every run of the batch diverged."""
    if agg.completed:
        return 0
    print(f"error: every run of {agg.variant} diverged; see failures.csv",
          file=sys.stderr)
    return 1


def cmd_validate(args) -> int:
    config = load_config(args.config)
    setup = build_setup(config)
    report = validate_for_variant(config.variant, setup)
    print(report.format_table())
    for warning in report.warnings:
        print(f"warning: {warning}")
    if report.overall:
        print("overall: pass")
        return 0
    print("overall: FAIL")
    return 1


def cmd_run(args) -> int:
    config = _config_with_overrides(args)
    setup = build_setup(config)
    out_dir = run_directory(args.output or config.output_dir)
    agg, _ = _run_variant(
        args, config, setup, config.variant, out_dir, args.plot
    )
    print(
        f"{agg.variant}: {agg.completed}/{agg.requested} runs completed, "
        f"{len(agg.failures)} diverged"
    )
    print(
        f"  final gap mean {agg.mean_final_gap:.6g} "
        f"(se {agg.se_final_gap:.3g}), final consensus mean "
        f"{float(np.mean(agg.final_consensus)):.6g}"
    )
    eps = agg.epsilon_partial[-1]
    if np.isfinite(eps):
        print(f"  privacy budget bound at final record: {eps:.6g}")
    print(f"outputs in {out_dir}")
    return _exit_code(agg)


def cmd_budget(args) -> int:
    """Budget rows, breakdown and last-decade growth line of one config.

    Each series is computed once, at the largest horizon: the rows, the
    breakdown and the growth line all read from the same recursion.
    """
    config = load_config(args.config)
    horizons = _parse_horizons(args.horizons)
    gradient_bound = (
        args.gradient_bound if args.gradient_bound is not None
        else config.gradient_bound
    )
    if gradient_bound <= 0:
        raise ConfigError("gradient bound must be positive")
    setup = build_setup(config)
    account = budget_account(config.variant, setup, gradient_bound, horizons)
    rows = account.rows
    out_dir = run_directory(args.output or config.output_dir)
    write_budget(os.path.join(out_dir, "budget.csv"), rows)
    write_breakdown(
        os.path.join(out_dir, "breakdown.csv"), account.conservative
    )
    print(f"{'horizon':>10}  {'bound':>14}  {'envelope':>14}  {'tail':>12}  "
          "summable")
    for row in rows:
        print(
            f"{row.horizon:>10}  {row.conservative:>14.6g}  "
            f"{row.envelope:>14.6g}  {row.tail:>12.6g}  "
            f"{'yes' if row.summable else 'no'}"
        )
    top = rows[-1]
    if not top.summable:
        print(
            "budget series diverges: no finite budget at unbounded horizons"
        )
    elif top.horizon >= 10:
        ref = account.envelope.epsilon_at(top.horizon // 10)
        growth = (top.envelope - ref) / ref
        verdict = "yes" if growth < 0.05 else "no"
        print(
            f"envelope growth over the last decade: {100 * growth:.4f}% "
            f"(under 5%: {verdict})"
        )
    print(f"outputs in {out_dir}")
    return 0


def cmd_compare(args) -> int:
    config = _config_with_overrides(args)
    variants = _parse_variants(args.variants)
    setup = build_setup(config, variants)
    base = run_directory(args.output or config.output_dir)
    aggregates: dict[str, Aggregate] = {}
    summary_rows = []
    for variant in variants:
        agg, row = _run_variant(
            args, config, setup, variant, run_directory(base, variant),
            plot=False,
        )
        aggregates[variant] = agg
        eps = (row.conservative, row.envelope) if row else (math.nan,) * 2
        summary_rows.append((
            variant, agg.requested, agg.completed, len(agg.failures),
            agg.mean_final_gap, agg.se_final_gap,
            float(np.mean(agg.final_consensus)), *eps,
        ))
    write_csv(os.path.join(base, "summary.csv"), SUMMARY_COLUMNS, summary_rows)
    if args.plot:
        for column in ("gap", "consensus"):
            _plot(os.path.join(base, f"compare_{column}.svg"), column,
                  aggregates, " by variant")
    print(
        f"{'variant':>16}  {'done':>5}  {'final gap':>12}  {'se':>10}  "
        f"{'eps bound':>12}"
    )
    for row in summary_rows:
        print(
            f"{row[0]:>16}  {row[2]:>3}/{row[1]}  {row[4]:>12.6g}  "
            f"{row[5]:>10.3g}  {row[7]:>12.6g}"
        )
    print(f"outputs in {base}")
    return max([_exit_code(agg) for agg in aggregates.values()])


def _batch_options(p: argparse.ArgumentParser) -> None:
    """The options run and compare share."""
    p.add_argument("--plot", action="store_true", help="write SVG plots")
    p.add_argument("--force", action="store_true",
                   help="run even when schedule validation fails")
    p.add_argument("--runs", type=int, default=None,
                   help="override run.monte_carlo")
    p.add_argument("--iters", type=int, default=None,
                   help="override run.iterations")
    p.add_argument("--output", default=None, help="override run.output_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpopt",
        description=(
            "Differentially private distributed optimization: validation, "
            "Monte Carlo runs, privacy budget reports and variant comparisons."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check config structure and schedule conditions")
    p.add_argument("config", help="path to experiment config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="Monte Carlo batch of the configured variant")
    p.add_argument("config", help="path to experiment config")
    _batch_options(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("budget", help="privacy budget report at chosen horizons")
    p.add_argument("config", help="path to experiment config")
    p.add_argument("--horizons", required=True,
                   help="comma-separated horizons, e.g. 1e3,1e4,1e5")
    p.add_argument("--gradient-bound", type=float, default=None,
                   help="override budget.gradient_bound")
    p.add_argument("--output", default=None, help="override run.output_dir")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("compare", help="run several variants on one shared problem")
    p.add_argument("config", help="path to experiment config")
    p.add_argument("--variants", required=True,
                   help="comma-separated variant names")
    _batch_options(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except DpoptError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
