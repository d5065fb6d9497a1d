"""Write the outputs of a fixed matrix of dpopt commands to one directory.

Usage:
    python tools/output_matrix.py [--src PATH] OUT

Runs `python -m dpopt` with PYTHONPATH=PATH (default: this checkout's
src/) on the shipped configs of this checkout, and on a few bad configs
derived from them (DERIVED), which it writes to OUT/configs/.  Each
command writes its files under OUT/<name>/ and a log OUT/<name>.log
holding its command line, exit code, stdout and stderr, with the OUT
path replaced by `<out>` and PATH by `<src>`, so two trees made from
different sources compare with `diff -r`:

    python tools/output_matrix.py --src /path/to/parent/src /tmp/before
    python tools/output_matrix.py /tmp/after
    diff -r /tmp/before /tmp/after

No CLI command reaches the coupled difference traces, so the matrix
also writes them: `coupled_difference_trace` on the shipped alg1 and
alg2 configs, for each of their comparison variants at every envelope
of TRACE_ENVELOPES, with the benchmark's adjacent problem.  Each trace
goes to OUT/difference_<config>/<variant>_<envelope>.txt: max_ratio,
ok and violation_k, then every array as float.hex lines.  They run in
a child process with the same PYTHONPATH and use only names exported
from the top of the `dpopt` package, so an older src/ works too.

Two runs on the same source write identical trees: every command's
output is deterministic, and no command writes a numpy warning, whose
lines from `compare`'s forked workers would interleave in any order.
Only the standard library is used here.  The matrix runs serially, in
about thirty seconds on two CPUs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = ("alg1", "alg1_rate", "alg2", "alg2_nonoise")

# Difference traces: config -> variants, and the trace arguments; the
# adjacent problem is the benchmark's (perfbench/workloads.py).
TRACES = {"alg1": ("alg1", "dgd", "pdop_alg1"), "alg2": ("alg2", "push_pull")}
TRACE_ENVELOPES = (None, 1.0, 0.3)
TRACE_ITERATIONS = 10**4
TRACE_ADJACENT = {"agent": 2, "delta": 0.5, "eta": 1.0}
TRACE_ARRAYS = ("ks", "state_diff", "state_bound", "tracker_diff",
                "tracker_bound")

# Derived configs: name -> (shipped config, then each line of it and
# that line's replacement).
DERIVED = {
    "alg1_gradient_bound_inf": ("alg1", "budget.gradient_bound = 1.0",
                                "budget.gradient_bound = inf"),
    "alg1_init_radius_inf": ("alg1", "run.init_radius = 10.0",
                             "run.init_radius = inf"),
    # Validate's one warning: the coupling never attenuates the noise.
    "alg1_constant_coupling": ("alg1", "schedules.coupling.form = decaying",
                               "schedules.coupling.form = constant"),
    # Values the problem, graph and weight constructors would reject, and
    # integers past 2**53: each exits 2 naming its key and line.
    "alg1_problem_seed_negative": ("alg1", "problem.seed = 7",
                                   "problem.seed = -1"),
    "alg1_agents_3": ("alg1", "problem.agents = 5", "problem.agents = 3"),
    "alg1_self_loop": ("alg1", "0>2, 1>4", "0>2, 1>4, 1>1"),
    "alg1_edge_weight_1e308": ("alg1", "graph.edge_weight = 0.2",
                               "graph.edge_weight = 1e308"),
    # A weight rounding loses from I + W - 11^T/m: no contraction, and
    # only a larger weight helps.
    "alg1_edge_weight_1e-17": ("alg1", "graph.edge_weight = 0.2",
                               "graph.edge_weight = 1e-17"),
    "alg1_iterations_1e308": ("alg1", "run.iterations = 10000",
                              "run.iterations = 1e308"),
    "alg1_noise_seed_2_53": ("alg1", "noise.seed = 1",
                             "noise.seed = 9007199254740993"),
    "alg1_stride_0": ("alg1", "run.stride = 10", "run.stride = 0"),
    # A fraction that a float would round to the integer 2**52.
    "alg1_noise_seed_fraction": ("alg1", "noise.seed = 1",
                                 "noise.seed = 4503599627370496.5"),
    # Couplings that grow until a mixed diagonal turns nonpositive:
    # validate fails on their peak, and a forced run stops before it
    # steps.
    "alg1_coupling_growing": ("alg1", "schedules.coupling.form = decaying",
                              "schedules.coupling.form = growing"),
    "alg2_coupling_state_growing": (
        "alg2", "schedules.coupling_state.form = decaying",
        "schedules.coupling_state.form = growing"),
    # One that first loads a diagonal to 1 at k = 17734, past the
    # first two blocks of 8192 in which a forced run looks for its peak.
    "alg1_coupling_growing_late": (
        "alg1", "schedules.coupling.form = decaying",
        "schedules.coupling.form = growing", "schedules.coupling.b = 0.1",
        "schedules.coupling.b = 0.0001"),
    # Plots with nothing finite and positive to draw: one agent has no
    # consensus error, and every run starting at 1e300 diverges.
    "alg1_one_agent": ("alg1", "problem.agents = 5", "problem.agents = 1",
                       "graph.edges = 0>1, 1>2, 2>3, 3>4, 4>0, 0>2, 1>4",
                       "graph.edges ="),
    "alg1_init_radius_1e300": ("alg1", "run.init_radius = 10.0",
                               "run.init_radius = 1e300"),
    # Each family's edge check in build_setup: no edge list at all.
    **{f"{c}_no_edges": (c, "graph.edges = 0>1, 1>2, 2>3, 3>4, 4>0, 0>2, 1>4",
                         "") for c in ("alg1", "alg2")},
    # A problem whose first array cannot be allocated: 42.6 PiB, past
    # any address space, so the request fails at once.
    "alg1_agents_1e15": ("alg1", "problem.agents = 5", "problem.agents = 1e15"),
    # An envelope constant past the float range: its partial sums read
    # inf, and budget's growth line says why it has no value.
    "alg1_noise_b_5e-309": ("alg1", "noise.scale.b = 0.1",
                            "noise.scale.b = 5e-309"),
    # A noise scale past the float range from k = 8: the accountant
    # stops there, and validate fails its budget entry.
    "alg1_noise_b_1e308": ("alg1", "noise.scale.b = 0.1",
                           "noise.scale.b = 1e308"),
    # Observations past the float range: the gradient's constant term is
    # inf and every run diverges.
    "alg1_noise_std_1e308": ("alg1", "problem.noise_std = 1.0",
                             "problem.noise_std = 1e308"),
}

# (name, config, arguments after the config; --output is added when the
# command writes files).
MATRIX = (
    *((f"validate_{c}", c, ["validate"]) for c in CONFIGS),
    *((f"run_{c}", c, ["run", "--plot", "--runs", "10"])
      for c in ("alg1", "alg2", "alg2_nonoise")),
    ("run_alg1_rate", "alg1_rate", ["run"]),
    # Two figures of 10,001 points: the plot writer crosses block edges.
    ("run_alg1_rate_plot", "alg1_rate", ["run", "--plot"]),
    ("compare_alg1", "alg1",
     ["compare", "--variants", "alg1,dgd,pdop_alg1", "--plot", "--runs", "10"]),
    ("compare_alg2", "alg2",
     ["compare", "--variants", "alg2,push_pull", "--plot", "--runs", "10"]),
    # compare's worker pool at its smallest: one variant, one worker;
    # three one-run batches.
    ("compare_alg2_one", "alg2",
     ["compare", "--variants", "push_pull", "--plot", "--runs", "10"]),
    ("compare_alg1_runs1", "alg1",
     ["compare", "--variants", "alg1,dgd,pdop_alg1", "--plot", "--runs", "1"]),
    ("budget_alg1", "alg1", ["budget", "--horizons", "1e3,1e4,1e5"]),
    ("budget_alg2", "alg2", ["budget", "--horizons", "7,1000,4097"]),
    # The benchmark's horizons: the accountant's walk crosses many block
    # edges on the way to 1e6.
    *((f"budget_{c}_1e6", c, ["budget", "--horizons", "1e4,1e5,1e6"])
      for c in ("alg1", "alg2")),
    *((f"run_{c}", c, ["run", "--runs", "2", "--iters", "200"])
      for c in ("alg1_gradient_bound_inf", "alg1_init_radius_inf")),
    *((f"validate_{c}", c, ["validate"])
      for c in ("alg1_constant_coupling", "alg1_problem_seed_negative",
                "alg1_agents_3", "alg1_self_loop", "alg1_edge_weight_1e308",
                "alg1_edge_weight_1e-17",
                "alg1_iterations_1e308", "alg1_noise_seed_2_53",
                "alg1_stride_0", "alg1_noise_seed_fraction",
                "alg1_coupling_growing", "alg2_coupling_state_growing")),
    *((f"run_{c}", c, ["run", "--force", "--runs", "2", "--iters", "200"])
      for c in ("alg1_coupling_growing", "alg2_coupling_state_growing")),
    ("run_alg1_coupling_growing_late", "alg1_coupling_growing_late",
     ["run", "--force", "--runs", "2", "--iters", "20000"]),
    *((f"run_{c}", c, ["run", "--plot", "--runs", "2", "--iters", "200"])
      for c in ("alg1_one_agent", "alg1_init_radius_1e300")),
    ("compare_alg1_init_radius_1e300", "alg1_init_radius_1e300",
     ["compare", "--variants", "alg1,dgd", "--plot", "--runs", "2",
      "--iters", "200"]),
    # Options read as config keys, and --horizons and --variants read
    # as integer and variant keys: each exits before any batch or walk.
    ("run_alg1_iters_2_53", "alg1", ["run", "--iters", "9007199254740993"]),
    ("run_alg1_runs_0", "alg1", ["run", "--runs", "0"]),
    ("run_alg1_iters_negative", "alg1",
     ["run", "--runs", "2", "--iters", "-1e5"]),
    ("budget_alg1_gradient_bound_nan", "alg1",
     ["budget", "--horizons", "100", "--gradient-bound", "nan"]),
    ("budget_alg1_horizons_1e400", "alg1",
     ["budget", "--horizons", "100,1e400"]),
    ("compare_alg1_unknown_variant", "alg1",
     ["compare", "--variants", "alg1,nope"]),
    ("budget_alg1_horizons_comma", "alg1", ["budget", "--horizons", ","]),
    ("compare_alg1_variants_comma", "alg1", ["compare", "--variants", ","]),
    # The schedule blocks each variant's table row needs, missing from
    # the config compare runs it on: each exits 2 naming them.
    ("compare_alg1_variant_alg2", "alg1", ["compare", "--variants", "alg2"]),
    ("compare_alg2_variant_alg1", "alg2", ["compare", "--variants", "alg1"]),
    ("compare_alg2_variant_pdop_push_pull", "alg2",
     ["compare", "--variants", "pdop_push_pull"]),
    *((f"validate_{c}", c, ["validate"])
      for c in ("alg1_no_edges", "alg2_no_edges", "alg1_agents_1e15")),
    ("budget_alg1_noise_b_5e-309", "alg1_noise_b_5e-309",
     ["budget", "--horizons", "10,100"]),
    ("validate_alg1_noise_b_1e308", "alg1_noise_b_1e308", ["validate"]),
    ("budget_alg1_noise_b_1e308", "alg1_noise_b_1e308",
     ["budget", "--horizons", "10,100"]),
    # Noiseless variants: the summary's budget cells read nan.
    ("compare_alg2_nonoise", "alg2_nonoise",
     ["compare", "--variants", "alg2,push_pull", "--runs", "2", "--iters",
      "200"]),
    # Finite terms whose running total passes the float range.
    ("budget_alg1_gradient_bound_1e308", "alg1",
     ["budget", "--horizons", "10,1000", "--gradient-bound", "1e308"]),
    ("run_alg1_noise_std_1e308", "alg1_noise_std_1e308",
     ["run", "--runs", "2", "--iters", "200"]),
)


def _run(name: str, argv: list, env: dict, out: str) -> None:
    """Run one child process and write its log, with the OUT path, the
    source path (as in a warning's file name) and this checkout's root
    replaced."""
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    text = (
        f"$ python {' '.join(argv)}\nexit code: {proc.returncode}\n"
        f"--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
    )
    with open(os.path.join(out, f"{name}.log"), "w", encoding="utf-8") as fh:
        fh.write(text.replace(out, "<out>")
                 .replace(env["PYTHONPATH"], "<src>").replace(ROOT, "<root>"))
    print(f"{name}: exit {proc.returncode}")


def write_derived(out: str) -> None:
    """Write every config of DERIVED to OUT/configs/."""
    os.makedirs(os.path.join(out, "configs"), exist_ok=True)
    for name, (shipped, *pairs) in DERIVED.items():
        path = os.path.join(ROOT, "configs", f"{shipped}.cfg")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for line, replacement in zip(pairs[::2], pairs[1::2]):
            if line not in text:
                raise SystemExit(f"{path} has no line {line!r}")
            text = text.replace(line, replacement)
        path = os.path.join(out, "configs", f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def run_matrix(src: str, out: str) -> None:
    """Run every command of MATRIX, then write every difference trace of
    TRACES, with src on the import path."""
    env = dict(os.environ, PYTHONPATH=src)
    os.makedirs(out, exist_ok=True)
    write_derived(out)
    for name, config, args in MATRIX:
        command, *options = args
        folder = os.path.join(out if config in DERIVED else ROOT, "configs")
        argv = [command, os.path.join(folder, f"{config}.cfg"), *options]
        if command != "validate":
            argv += ["--output", os.path.join(out, name)]
        _run(name, ["-m", "dpopt", *argv], env, out)
    for config in TRACES:
        name = f"difference_{config}"
        _run(name, [os.path.abspath(__file__), "--traces", config,
                    os.path.join(out, name)], env, out)


def _trace_text(trace) -> str:
    lines = [f"max_ratio {float(trace.max_ratio).hex()}", f"ok {trace.ok}",
             f"violation_k {trace.violation_k}"]
    for name in TRACE_ARRAYS:
        values = getattr(trace, name)
        if values is not None:
            lines.append(f"--- {name}")
            lines.extend(float(v).hex() for v in values.tolist())
    return "\n".join(lines) + "\n"


def write_traces(config_name: str, out: str) -> None:
    """Write the difference traces of one shipped config to out; run
    with the dpopt under test on the import path."""
    from dpopt import (adjacent_variant, build_setup,
                       coupled_difference_trace, load_config)

    variants = TRACES[config_name]
    config = load_config(os.path.join(ROOT, "configs", f"{config_name}.cfg"))
    setup = build_setup(config, variants)
    adjacent = adjacent_variant(setup.problem, **TRACE_ADJACENT)
    os.makedirs(out, exist_ok=True)
    for variant in variants:
        for envelope in TRACE_ENVELOPES:
            try:
                text = _trace_text(coupled_difference_trace(
                    variant, setup, adjacent, TRACE_ITERATIONS,
                    config.noise_seed, envelope=envelope))
            except Exception as exc:  # the error is the output
                text = f"error {type(exc).__name__}: {exc}\n"
            path = os.path.join(out, f"{variant}_{envelope}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory put on PYTHONPATH (default: ./src)")
    parser.add_argument("--traces", metavar="CONFIG", choices=TRACES,
                        help="only write CONFIG's difference traces to OUT "
                             "(what the matrix runs in a child process)")
    parser.add_argument("out", help="output directory")
    args = parser.parse_args(argv)
    if args.traces:
        write_traces(args.traces, os.path.abspath(args.out))
    else:
        run_matrix(os.path.abspath(args.src), os.path.abspath(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
