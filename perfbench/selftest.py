"""Self-test of the benchmark: count consistency and output format.

    python3 perfbench/selftest.py

1. Count consistency.  Traced children run tiny workloads, and the
   tracer's counts must equal their analytic values, which proves that
   no call escaped the wrappers:
   - solvers.step_static.calls and step_tracking.calls = runs x iterations;
   - noise.sample_block.calls = runs x ceil(T / 2048) x streams for a
     solver run, and one per iteration and stream in
     coupled_difference_trace;
   - privacy.sensitivity.steps = the sum of the horizons recursed.
   The expected values describe dpopt's call structure when the
   benchmark was defined: `compare` recurses the sensitivity to the
   horizon twice per noisy variant (for budget.csv and for the summary
   row) and `budget` recurses max(horizons) twice plus a tenth of it
   for the last-decade growth line.
2. Output format.  `run.py` on the cheapest workload, untraced and
   traced, must print a last line with exactly the keys correct,
   attempted, failed and metrics, whose metric names and units are
   those of BENCHMARK.json, every value a finite number.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

from run import END_TO_END, HERE, PER_LAYER, ROOT, run_child
from workloads import DEFAULT_SEED, write_configs

CHUNK = 2048  # solver noise chunk, iterations per sample_block call
RUNS, ITERS = 2, 2500
HORIZONS = (1000, 5000)
DIFF_ITERS = 300

CASES = {
    "static": (
        [{"kind": "compare", "config": "alg1", "out": "compare",
          "variants": ["alg1", "dgd"], "runs": RUNS, "iters": ITERS,
          "plot": False}],
        {"solvers.run.calls": RUNS * 2,
         "solvers.step_static.calls": RUNS * ITERS * 2,
         "solvers.step_tracking.calls": 0,
         "noise.sample_block.calls": RUNS * math.ceil(ITERS / CHUNK) * 2,
         "privacy.sensitivity.steps": 2 * ITERS * 2},
    ),
    "tracking": (
        [{"kind": "compare", "config": "alg2", "out": "compare",
          "variants": ["alg2"], "runs": RUNS, "iters": ITERS,
          "plot": False}],
        {"solvers.run.calls": RUNS,
         "solvers.step_static.calls": 0,
         "solvers.step_tracking.calls": RUNS * ITERS,
         "noise.sample_block.calls": RUNS * math.ceil(ITERS / CHUNK) * 2,
         "privacy.sensitivity.steps": 2 * ITERS},
    ),
    "noiseless": (
        [{"kind": "run", "config": "alg1_rate", "out": "run", "runs": RUNS,
          "iters": ITERS}],
        {"solvers.step_static.calls": RUNS * ITERS,
         "noise.sample_block.calls": RUNS * math.ceil(ITERS / CHUNK),
         "noise.draws": 0,
         "privacy.sensitivity.steps": 0},
    ),
    "budget": (
        [{"kind": "budget", "config": "alg1", "out": "budget",
          "horizons": HORIZONS}],
        {"harness.budget_report.calls": 2,
         "privacy.sensitivity.steps": 2 * max(HORIZONS) + max(HORIZONS) // 10},
    ),
    "difference": (
        [{"kind": "difference", "config": "alg2", "out": "difference",
          "variant": "alg2", "iterations": DIFF_ITERS,
          "envelopes": [None, 1.0]}],
        {"privacy.coupled_difference_trace.calls": 2,
         "solvers.step_tracking.calls": DIFF_ITERS,
         "noise.sample_block.calls": DIFF_ITERS * 2,
         "privacy.sensitivity.steps": 2 * DIFF_ITERS},
    ),
}


def check_counts() -> list[str]:
    failures = []
    for case, (ops, expected) in CASES.items():
        work = os.path.join(HERE, "_work", "selftest", case)
        shutil.rmtree(work, ignore_errors=True)
        write_configs(ROOT, os.path.join(work, "cfg"), ops, DEFAULT_SEED)
        layers = run_child(ops, work, trace=True)["layers"]
        for name, want in expected.items():
            got = layers[name]
            status = "ok" if got == want else "MISMATCH"
            print(f"{case:10s} {name:40s} {got:>10} expected {want:>10}"
                  f"  {status}")
            if got != want:
                failures.append(f"{case}: {name} = {got}, expected {want}")
    return failures


def check_output() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    declared = {
        0: [(m["name"], m["unit"]) for m in bench["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in bench["per_layer"]],
    }
    failures = []
    if declared[0] != list(END_TO_END) or declared[1] != list(PER_LAYER):
        failures.append("BENCHMARK.json metrics differ from run.py's")
    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "long_run_accounting", "--seed", "3", "--seconds", "1",
             "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True,
            timeout=170)
        lines = proc.stdout.strip().splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            failures.append(f"trace {trace}: no JSON last line "
                            f"(exit {proc.returncode}) {proc.stderr[-300:]}")
            continue
        got = [(k, v["unit"]) for k, v in last["metrics"].items()]
        finite = all(isinstance(v["value"], (int, float))
                     and math.isfinite(v["value"])
                     for v in last["metrics"].values())
        problems = []
        if set(last) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"keys {sorted(last)}")
        if sorted(got) != sorted(declared[trace]):
            problems.append("metric names or units differ from BENCHMARK.json")
        if not finite:
            problems.append("a metric value is not a finite number")
        if last["correct"] is not True or last["failed"] != 0:
            problems.append("the run is not correct")
        print(f"output trace={trace}: {len(got)} metrics, "
              f"{'ok' if not problems else problems}")
        failures += [f"trace {trace}: {p}" for p in problems]
    return failures


def main() -> int:
    failures = check_counts() + check_output()
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test passed" if not failures else "self-test FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
