"""dpopt benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
        --trace <0|1>

Run from the root of a checkout.  Every repetition of the workload runs
in a fresh single-threaded child process (`child.py`) on configs
generated from `configs/` with `noise.seed` set to the seed.
Repetitions continue while another one still fits in `--seconds`; at
least one always runs.

--trace 0 prints the end-to-end metrics: medians over repetitions of
set-up time, wall time and peak resident memory; set-up is also sampled
by a set-up-only child after each repetition, and at the end for the
rest of the window, at least until SETUP_SAMPLES values exist.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (see tracer.py), plus the tracing
overhead and the failure and reference-error figures.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
details (environment, samples, shapes run, reference comparison and
any problems found).  Outputs stay under perfbench/_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_structure, compare_reference, digests
from workloads import DEFAULT_SEED, WORKLOADS, write_configs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150
BLAS_THREADS = "1"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("config.load_config.total_s", "s"),
    ("config.build_setup.total_s", "s"),
    ("graphs.build_weights.total_s", "s"),
    ("schedules.value.calls", "count"),
    ("schedules.value.self_s", "s"),
    ("schedules.values.calls", "count"),
    ("schedules.values.self_s", "s"),
    ("schedules.validate.calls", "count"),
    ("schedules.validate.total_s", "s"),
    ("noise.sample_block.calls", "count"),
    ("noise.sample_block.self_s", "s"),
    ("noise.draws", "count"),
    ("noise.ns_per_draw", "ns"),
    ("objectives.all_gradients.calls", "count"),
    ("objectives.all_gradients.self_s", "s"),
    ("objectives.global_cost.calls", "count"),
    ("objectives.global_cost.self_s", "s"),
    ("objectives.local_gradient.calls", "count"),
    ("objectives.local_gradient.self_s", "s"),
    ("solvers.run.calls", "count"),
    ("solvers.run.self_s", "s"),
    ("solvers.run.us_per_iter", "us"),
    ("solvers.step_static.calls", "count"),
    ("solvers.step_static.self_s", "s"),
    ("solvers.step_tracking.calls", "count"),
    ("solvers.step_tracking.self_s", "s"),
    ("solvers.budget_step.calls", "count"),
    ("solvers.budget_step.self_s", "s"),
    ("solvers.validate_for_variant.calls", "count"),
    ("solvers.validate_for_variant.total_s", "s"),
    ("solvers.runs_diverged", "count"),
    ("privacy.sensitivity.calls", "count"),
    ("privacy.sensitivity.self_s", "s"),
    ("privacy.sensitivity.steps", "count"),
    ("privacy.conservative_budget.total_s", "s"),
    ("privacy.asymptotic_budget.total_s", "s"),
    ("privacy.budget_tail_bound.total_s", "s"),
    ("privacy.coupled_difference_trace.calls", "count"),
    ("privacy.coupled_difference_trace.self_s", "s"),
    ("harness.monte_carlo.total_s", "s"),
    ("harness.aggregate.total_s", "s"),
    ("harness.budget_report.calls", "count"),
    ("harness.budget_report.total_s", "s"),
    ("harness.write_csv.calls", "count"),
    ("harness.write_csv.self_s", "s"),
    ("harness.write_csv.bytes", "bytes"),
    ("svgplot.line_plot.calls", "count"),
    ("svgplot.line_plot.self_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.failed_frac", "ratio"),
    ("bench.ref_max_rel_err", "ratio"),
)


class BenchError(Exception):
    """The benchmark cannot measure in this checkout."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(ops, work, trace=False, setup_only=False) -> dict:
    """One child process; returns its result JSON."""
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    out_dir = os.path.join(work, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(ops),
            os.path.join(work, "cfg"), out_dir, result_path]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    with open(os.path.join(work, "child.log"), "a", encoding="utf-8") as log:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=log,
                              stderr=log, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"child exited with {proc.returncode}; "
                         f"see {os.path.join(work, 'child.log')}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    src = os.path.join(ROOT, "src")
    if not result["dpopt_file"].startswith(src + os.sep):
        raise BenchError(f"child imported dpopt from {result['dpopt_file']}")
    return result


def layer_metrics(snapshot: dict) -> dict:
    """Per-layer metric values from one traced child's counters."""
    values = dict(snapshot)
    draws = snapshot["noise.draws"]
    values["noise.ns_per_draw"] = (
        snapshot["noise.sample_block.self_s"] / draws * 1e9 if draws else 0.0)
    iters = snapshot["solvers.run.iterations"]
    values["solvers.run.us_per_iter"] = (
        snapshot["solvers.run.total_s"] / iters * 1e6 if iters else 0.0)
    return values


def environment(result: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": result["numpy"],
            "dpopt": result["dpopt"], "cpu": cpu, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS}


class Run:
    """Repetitions of one workload and their checks."""

    def __init__(self, name: str, seed: int):
        self.ops = WORKLOADS[name]
        self.work = os.path.join(HERE, "_work", name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        write_configs(ROOT, os.path.join(self.work, "cfg"), self.ops, seed)
        self.reference, self.full_reference = None, False
        if os.path.exists(REFERENCE):
            with open(REFERENCE, encoding="utf-8") as handle:
                reference = json.load(handle)
            self.reference = reference["workloads"].get(name)
            self.full_reference = seed == reference["default_seed"]
        self.first_digests = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.ref_err = 0.0
        self.ref_details: list[dict] = []
        self.shape: list[dict] = []

    def rep(self, trace: bool) -> dict:
        result = run_child(self.ops, self.work, trace=trace)
        out_dir = os.path.join(self.work, "out")
        report = check_structure(self.ops, result, out_dir)
        got = digests(out_dir)
        if self.first_digests is None:
            self.first_digests = got
        else:
            changed = sorted(set(got.items()) ^ set(self.first_digests.items()))
            report.op("rerun", [f"{rel} differs from the first repetition"
                                for rel in dict(changed)])
        if self.reference is not None:
            ref = compare_reference(self.reference, got, out_dir,
                                    self.full_reference, report)
            self.ref_err = max(self.ref_err, ref["ref_max_rel_err"])
            self.ref_details.append(ref)
        self.attempted += report.attempted
        self.failed += report.failed
        self.problems += report.problems
        self.shape = report.shape
        return result


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    start = time.perf_counter()
    run = Run(name, seed)
    # Compile dpopt's bytecode once so no timed set-up pays for it.
    run_child(run.ops, run.work, setup_only=True)
    plain, traced, probes = [], [], []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        plain.append(run.rep(trace=False))
        if trace:
            traced.append(run.rep(trace=True))
        else:
            # Spread set-up samples over the run, not into one burst.
            probes.append(run_child(run.ops, run.work, setup_only=True))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            break
    setup = [r["setup_s"] for r in plain + probes]
    walls = [r["wall_s"] for r in plain]
    if trace:
        layers = [layer_metrics(r["layers"]) for r in traced]
        values = {metric: statistics.median(v[metric] for v in layers)
                  for metric, _unit in PER_LAYER
                  if not metric.startswith("bench.")}
        values["bench.trace_overhead"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(walls) - 1.0)
        values["bench.failed_frac"] = run.failed / run.attempted
        values["bench.ref_max_rel_err"] = run.ref_err
        units = PER_LAYER
    else:
        # The window's remainder, too short for another repetition,
        # goes to more set-up samples.
        probe_s = 0.0
        while (len(setup) < SETUP_SAMPLES
               or time.perf_counter() - start + probe_s < seconds):
            t0 = time.perf_counter()
            probes.append(run_child(run.ops, run.work, setup_only=True))
            setup.append(probes[-1]["setup_s"])
            probe_s = max(probe_s, time.perf_counter() - t0)
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(walls),
                  "peak_rss_mb": statistics.median(
                      r["peak_rss_mb"] for r in plain)}
        units = END_TO_END
    detail = {
        "workload": name, "seed": seed, "trace": int(trace),
        "environment": environment(plain[0]),
        "repetitions": len(plain), "setup_samples_s": setup,
        "wall_samples_s": walls,
        "cpu_samples_s": [r["cpu_s"] for r in plain],
        "traced_wall_samples_s": [r["wall_s"] for r in traced],
        "shape": run.shape,
        "failed_frac": run.failed / run.attempted,
        "ref_max_rel_err": run.ref_err if run.reference else None,
        "reference": run.ref_details[-1] if run.ref_details else None,
        "problems": run.problems[:20],
    }
    summary = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units},
    }
    return detail, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        for needed in ("src/dpopt/__init__.py", "configs"):
            if not os.path.exists(os.path.join(ROOT, needed)):
                raise BenchError(f"{needed} not found under {ROOT}")
        detail, summary = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
