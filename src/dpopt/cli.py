"""Command line interface.

Subcommands:
    validate <config>     check structure and schedule conditions
    run <config>          Monte Carlo batch of the configured variant
    budget <config>       privacy budget report at chosen horizons
    compare <config>      several variants on one shared problem

Exit codes: 0 on success, 1 when an experiment fails validation or a
run-level check or every run of a batch diverged or a size cannot be
allocated, 2 on config or IO errors.  A failed validation prints
"validation error:", any other run-level stop "error:".

--iters, --runs, --output and --gradient-bound are read as the config
keys they override, with each key's parser, range and messages; each
--horizons token as an integer key of at least 1, and each --variants
name as the variant key.  Each takes the next word as its value, -1e5
too.  With --plot, run writes the gap, consensus and tracking figures and
compare the first two; a figure with nothing finite and positive to draw
is skipped.  Each output directory holds one batch's files: run, and
compare in each variant's directory, first delete the run_NNN.csv,
budget.csv and figures an earlier batch left, and compare its own
figures when it writes summary.csv.

compare forks a worker per variant with os.fork, at most one alive per
usable CPU, so each starts with numpy, dpopt and the setup loaded; its
outputs are byte-identical to those of a run in one process.  Pinned to
one CPU (`taskset -c 0 dpopt compare ...`) it runs the variants one
after another.  A worker sends back its aggregate and budget table, or
its error, pickled through its own pipe; its batch stays in the worker,
so peak memory is per worker.  A worker that ends with nothing sent
back stops compare with "error: worker for variant V ended by signal N"
(or "... ended with exit code N and no result").  Where os.fork does not
exist the variants run in this process, one after another.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import pickle
import re
import sys
import threading
from collections.abc import Callable
from typing import NoReturn

import numpy as np

from .config import _check_variant, _to_int, build_setup, load_config
from .errors import ConditionError, ConfigError, DpoptError, RangeError
from .harness import (
    Aggregate,
    aggregate,
    budget_account,
    monte_carlo,
    run_directory,
    write_breakdown,
    write_csv,
)
from .privacy import conservative_budget
from .solvers import Variant, effective_schedules, validate_for_variant
from .svgplot import Series, line_plot, std_band

def _parse_horizons(text: str) -> list[int]:
    """Each comma-separated token read as an integer key, at least 1."""
    horizons = set()
    for token in filter(None, map(str.strip, text.split(","))):
        horizon = _to_int("--horizons", token)
        if horizon < 1:
            raise ConfigError(f"expected a horizon of at least 1, got "
                              f"{token!r}", key="--horizons")
        horizons.add(horizon)
    if not horizons:
        raise ConfigError("at least one horizon is required",
                          key="--horizons")
    return sorted(horizons)


def _parse_variants(text: str) -> list[str]:
    names = [_check_variant(t.strip()) for t in text.split(",") if t.strip()]
    if not names:
        raise ConfigError("at least one variant is required", key="variant")
    return list(dict.fromkeys(names))


def _load_config(args):
    """The config, with each given option whose dest is a config key
    read as that key."""
    return load_config(args.config, [
        (key, text) for key, text in vars(args).items()
        if "." in key and text is not None
    ])


# Each plotted aggregate.csv column: the subject of its title and its y label.
_PLOTS = {
    "gap": ("optimality gap", "f(mean state) - f*"),
    "consensus": ("consensus error", "mean squared distance to network mean"),
    "tracking": ("gradient tracking error", "mean squared tracker residual"),
}


def _plot(path: str, column: str, aggregates: dict[str, Aggregate],
          title_suffix: str) -> None:
    """Plot a column's mean with a one-std band for each aggregate; skip
    a plot with nothing finite and positive to draw (a one-agent consensus
    error, a column the variant does not record, every run diverged)."""
    subject, y_label = _PLOTS[column]
    series = []
    for name, agg in aggregates.items():
        mean = agg.columns[f"mean_{column}"]
        band = std_band(mean, agg.columns[f"var_{column}"])
        series.append(Series(name, agg.columns["k"], mean, band=band))
    if any((np.isfinite(v) & (v > 0)).any()
           for s in series for v in (s.ys, *s.band)):
        line_plot(path, series, title=subject + title_suffix, y_label=y_label)


def _remove_stale(directory: str, pattern: str) -> None:
    """Delete each file in directory whose whole name matches pattern."""
    for name in os.listdir(directory):
        if re.fullmatch(pattern, name):
            os.remove(os.path.join(directory, name))


def _run_variant(
    config, setup, variant: str, out_dir: str, force: bool, plot: bool,
) -> tuple[Aggregate, dict | None]:
    """Run one variant's batch and write its traces, aggregate, failures,
    budget and, with `plot`, its plots; return the aggregate and the
    budget table at the horizon, None for a noiseless variant."""
    _remove_stale(out_dir, r"run_[0-9]+\.csv|budget\.csv|"
                  rf"({'|'.join(_PLOTS)})\.svg")
    traces = monte_carlo(
        variant, setup, config.iterations, config.noise_seed,
        config.monte_carlo, force=force,
    )
    agg = aggregate(traces)
    for index, trace in enumerate(traces):
        if not trace.diverged:
            write_csv(os.path.join(out_dir, f"run_{index:03d}.csv"),
                      trace.columns)
    write_csv(os.path.join(out_dir, "aggregate.csv"), agg.columns)
    write_csv(os.path.join(out_dir, "failures.csv"), agg.failures)
    table = None
    if effective_schedules(variant, setup).noise_scale is not None:
        table = budget_account(
            variant, setup, config.gradient_bound, [config.iterations]
        ).table
        write_csv(os.path.join(out_dir, "budget.csv"), table)
    if plot:
        for column in _PLOTS:
            _plot(os.path.join(out_dir, f"{column}.svg"), column,
                  {variant: agg}, ", mean with one-std band")
    return agg, table


def _exit_code(agg: Aggregate) -> int:
    """1, with a line on stderr, when every run of the batch diverged."""
    if agg.completed:
        return 0
    print(f"error: every run of {agg.variant} diverged; see failures.csv",
          file=sys.stderr)
    return 1


def cmd_validate(args) -> int:
    config = _load_config(args)
    setup = build_setup(config)
    report = validate_for_variant(config.variant, setup)
    schedules = effective_schedules(config.variant, setup)
    if schedules.noise_scale is not None:
        # The finiteness check run and budget make, over run.iterations.
        try:
            value = conservative_budget(
                schedules, Variant.of(config.variant).weights(setup),
                config.gradient_bound, config.iterations,
                keep=[config.iterations],
            ).epsilon_total
        except RangeError:
            value = math.inf
        report.add("budget_finite_through_horizon",
                   "conservative epsilon at run.iterations < inf",
                   value, math.isfinite(value))
    print(report.format_table())
    if report.overall:
        print("overall: pass")
        return 0
    print("overall: FAIL")
    return 1


def cmd_run(args) -> int:
    config = _load_config(args)
    setup = build_setup(config)
    out_dir = run_directory(config.output_dir)
    agg, _ = _run_variant(
        config, setup, config.variant, out_dir, args.force, args.plot,
    )
    print(
        f"{agg.variant}: {agg.completed}/{agg.requested} runs completed, "
        f"{len(agg.failures['run'])} diverged"
    )
    if agg.completed:
        print(
            f"  final gap mean {agg.mean_final_gap:.6g} "
            f"(se {agg.se_final_gap:.3g}), final consensus mean "
            f"{agg.mean_final_consensus:.6g}"
        )
        eps = agg.columns["epsilon_partial"][-1]
        if np.isfinite(eps):
            print(f"  privacy budget bound at final record: {eps:.6g}")
    print(f"outputs in {out_dir}")
    return _exit_code(agg)


def cmd_budget(args) -> int:
    """Budget table, breakdown and last-decade growth line of one config.

    Each series is computed once, at the largest horizon: the table, the
    breakdown and the growth line all read from the same recursion.
    """
    config = _load_config(args)
    horizons = _parse_horizons(args.horizons)
    setup = build_setup(config)
    account = budget_account(config.variant, setup, config.gradient_bound,
                             horizons)
    table = account.table
    out_dir = run_directory(config.output_dir)
    write_csv(os.path.join(out_dir, "budget.csv"), table)
    write_breakdown(
        os.path.join(out_dir, "breakdown.csv"), account.conservative
    )
    print(f"{'horizon':>10}  {'bound':>14}  {'envelope':>14}  {'tail':>12}  "
          "summable")
    for horizon, bound, envelope, tail, summable in zip(*table.values()):
        print(f"{horizon:>10}  {bound:>14.6g}  {envelope:>14.6g}  "
              f"{tail:>12.6g}  {summable}")
    top, top_envelope = table["horizon"][-1], table["epsilon_envelope"][-1]
    if not account.summable:
        print(
            "budget series diverges: no finite budget at unbounded horizons"
        )
    elif top >= 10:
        ref = account.envelope.epsilon_at(top // 10)
        if math.isfinite(ref) and math.isfinite(top_envelope):
            growth = (top_envelope - ref) / ref
            verdict = "yes" if growth < 0.05 else "no"
            text = f"{100 * growth:.4f}% (under 5%: {verdict})"
        else:
            text = "undefined, the envelope is past the float range"
        print(f"envelope growth over the last decade: {text}")
    print(f"outputs in {out_dir}")
    return 0


def _write_comparison(
    base: str, results: dict[str, tuple[Aggregate, dict | None]],
    plot: bool,
) -> dict[str, list]:
    """Write summary.csv and, with `plot`, the comparison plots from
    each variant's aggregate and budget table, deleting those an earlier
    compare wrote; return the summary columns."""
    aggs = [agg for agg, _ in results.values()]
    tables = [table for _, table in results.values()]
    summary = {
        "variant": list(results),
        "runs": [agg.requested for agg in aggs],
        "completed": [agg.completed for agg in aggs],
        "failures": [len(agg.failures["run"]) for agg in aggs],
        "mean_final_gap": [agg.mean_final_gap for agg in aggs],
        "se_final_gap": [agg.se_final_gap for agg in aggs],
        "mean_final_consensus": [agg.mean_final_consensus for agg in aggs],
        "epsilon_bound": [table["epsilon_bound"][0] if table else math.nan
                          for table in tables],
        "epsilon_envelope": [table["epsilon_envelope"][0] if table
                             else math.nan for table in tables],
    }
    write_csv(os.path.join(base, "summary.csv"), summary)
    figures = ("gap", "consensus")
    _remove_stale(base, rf"compare_({'|'.join(figures)})\.svg")
    if plot:
        for column in figures:
            _plot(os.path.join(base, f"compare_{column}.svg"), column,
                  dict(zip(results, aggs)), " by variant")
    return summary


def _worker(call: Callable[[], object], result_fd: int, life_fd: int,
            foreign: list[int]) -> NoReturn:
    """A forked child: close the pipe ends it does not own, end when the
    life pipe reads EOF (the parent has died), run the call and write
    pickle.dumps((ok, value)) to its result pipe."""
    code = 1
    try:
        for fd in foreign:
            os.close(fd)
        threading.Thread(target=lambda: (os.read(life_fd, 1), os._exit(1)),
                         daemon=True).start()
        try:
            data = pickle.dumps((True, call()))
        except Exception as exc:  # the call's error, or its value's
            import traceback

            # Pickling drops the traceback: keep the worker's frames as a
            # note, which a traceback printed by the parent shows.
            exc.__notes__ = [*getattr(exc, "__notes__", []),
                             "in the worker:\n" + traceback.format_exc()]
            data = pickle.dumps((False, exc))
        with open(result_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _fork_each(calls: dict[str, Callable[[], object]],
               limit: int) -> dict[str, object]:
    """Each variant's call run in a forked child, at most `limit` alive
    at once; their values in `calls` order.  After a failure no child
    starts and the running ones finish; then the first failing variant
    in order raises its error.  No child outlives this call.  Where
    os.fork does not exist the calls run here, in order."""
    if not hasattr(os, "fork"):
        return {name: call() for name, call in calls.items()}
    import selectors
    import signal

    queue = iter(calls.items())
    children = {}  # result pipe read end -> (variant, pid, chunks read)
    values, errors = {}, {}
    life_read, life_write = os.pipe()  # only the parent holds life_write
    selector = selectors.DefaultSelector()
    try:
        while True:
            while len(children) < limit and not errors:
                name, call = next(queue, (None, None))
                if name is None:
                    break
                read, write = os.pipe()
                sys.stdout.flush()
                sys.stderr.flush()
                pid = os.fork()
                if pid == 0:
                    _worker(call, write, life_read,
                            [life_write, read, *children])
                children[read] = (name, pid, [])
                os.close(write)
                selector.register(read, selectors.EVENT_READ)
            if not children:
                break
            for key, _ in selector.select():
                name, pid, chunks = children[key.fd]
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    chunks.append(chunk)
                    continue
                selector.unregister(key.fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[key.fd]
                os.close(key.fd)
                if code == 0 and chunks:
                    ok, value = pickle.loads(b"".join(chunks))
                    (values if ok else errors)[name] = value
                else:
                    errors[name] = DpoptError(
                        f"worker for variant {name} " + (
                            f"ended by signal {-code}" if code < 0 else
                            f"ended with exit code {code} and no result"))
    finally:
        for read, (_, pid, _) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
        selector.close()
        os.close(life_read)
        os.close(life_write)
    for name in calls:
        if name in errors:
            raise errors[name]
    return {name: values[name] for name in calls}


def cmd_compare(args) -> int:
    """Run each variant's batch in a forked worker, at most one worker
    per usable CPU, then write the summary and plots from the results,
    read in --variants order: the first variant in that order to fail
    decides the error, a worker killed or exiting without a result
    fails its variant, and no variant starts after a failure."""
    config = _load_config(args)
    variants = _parse_variants(args.variants)
    setup = build_setup(config, variants)
    base = run_directory(config.output_dir)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    # Forked workers start with numpy and dpopt imported, and share the
    # parent's config and setup without pickling them.
    results = _fork_each({
        variant: functools.partial(
            _run_variant, config, setup, variant,
            run_directory(base, variant), args.force, False)
        for variant in variants
    }, min(len(variants), cpus))
    s = _write_comparison(base, results, args.plot)
    print(
        f"{'variant':>16}  {'done':>5}  {'final gap':>12}  {'se':>10}  "
        f"{'eps bound':>12}"
    )
    for variant, runs, done, gap, se, eps in zip(
            s["variant"], s["runs"], s["completed"], s["mean_final_gap"],
            s["se_final_gap"], s["epsilon_bound"]):
        # As run does, no final gap for a variant with no completed run.
        gap, se = (f"{gap:.6g}", f"{se:.3g}") if done else ("-", "-")
        print(f"{variant:>16}  {done:>3}/{runs}  {gap:>12}  {se:>10}  "
              f"{eps:>12.6g}")
    print(f"outputs in {base}")
    return max([_exit_code(agg) for agg, _ in results.values()])


# The options that take a value; main() joins each to the word after it.
_VALUE_OPTIONS = ("--runs", "--iters", "--output", "--horizons",
                  "--gradient-bound", "--variants")


def _join_values(argv: list[str]) -> list[str]:
    """argv with each value option joined to its next word, `--iters -1e5`
    as `--iters=-1e5`: argparse reads a lone -1e5 as an option."""
    joined, words = [], iter(argv)
    for word in words:
        value = next(words, None) if word in _VALUE_OPTIONS else None
        joined.append(word if value is None else f"{word}={value}")
    return joined


def _batch_options(p: argparse.ArgumentParser) -> None:
    """The options run and compare share."""
    p.add_argument("--plot", action="store_true", help="write SVG plots")
    p.add_argument("--force", action="store_true",
                   help="run even when schedule validation fails")
    p.add_argument("--runs", dest="run.monte_carlo", help="override the key")
    p.add_argument("--iters", dest="run.iterations", help="override the key")
    p.add_argument("--output", dest="run.output_dir", help="override the key")


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
    p.add_argument("--gradient-bound", dest="budget.gradient_bound",
                   help="override the key")
    p.add_argument("--output", dest="run.output_dir", help="override the key")
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
    args = parser.parse_args(
        _join_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ConditionError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (DpoptError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
