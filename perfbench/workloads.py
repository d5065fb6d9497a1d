"""Workload definitions shared by `run.py` and its child process.

A workload is a list of operations on configs generated from the
repository's `configs/` directory.  The workload seed goes only into
`noise.seed` of those configs, so the problem instance stays fixed.

Operation kinds:
    compare     `dpopt compare <config> --variants ... [--plot]`
    run         `dpopt run <config>`
    budget      `dpopt budget <config> --horizons ...`
    difference  `privacy.coupled_difference_trace` once per envelope

Each operation writes into its own subdirectory `out` of the output
directory, which is how checks tie a file to the operation behind it.
"""

from __future__ import annotations

import os
import re

DEFAULT_SEED = 1
MC_RUNS = 10
BUDGET_HORIZONS = (10**4, 10**5, 10**6)
# coupled_difference_trace arguments: the perturbed agent and the
# adjacent-problem ramp match the acceptance test's privacy criterion.
DIFFERENCE = {"agent": 2, "delta": 0.5, "eta": 1.0}

# Two workloads, each a list of operations run in one repetition.  The
# operations are the four the benchmark was designed around (the alg1
# and alg2 Monte Carlo comparisons, one long noiseless run, privacy
# accounting), grouped in two so that each workload can be measured
# for a whole minute: on a shared 2-CPU host, shorter windows did not
# average out the host's speed swings.
WORKLOADS = {
    "mc_compare": [
        {"kind": "compare", "config": "alg1", "out": "compare_alg1",
         "variants": ["alg1", "dgd", "pdop_alg1"], "runs": MC_RUNS,
         "plot": True},
        {"kind": "compare", "config": "alg2", "out": "compare_alg2",
         "variants": ["alg2", "push_pull"], "runs": MC_RUNS, "plot": False},
    ],
    "long_run_accounting": [
        {"kind": "run", "config": "alg1_rate", "out": "run", "runs": 1},
        {"kind": "budget", "config": "alg1", "out": "budget_alg1",
         "horizons": BUDGET_HORIZONS},
        {"kind": "budget", "config": "alg2", "out": "budget_alg2",
         "horizons": BUDGET_HORIZONS},
        {"kind": "difference", "config": "alg1", "out": "difference_alg1",
         "variant": "alg1", "iterations": 10**4, "envelopes": [None, 1.0]},
        {"kind": "difference", "config": "alg2", "out": "difference_alg2",
         "variant": "alg2", "iterations": 10**4, "envelopes": [None, 1.0]},
    ],
}


def config_names(ops) -> list[str]:
    return sorted({op["config"] for op in ops})


def write_configs(repo_root: str, cfg_dir: str, ops, seed: int) -> None:
    """Copy each config the ops use, with `noise.seed` set to `seed`."""
    os.makedirs(cfg_dir, exist_ok=True)
    noise_seed = seed % 2**53  # configs parse integers through float
    for name in config_names(ops):
        with open(os.path.join(repo_root, "configs", f"{name}.cfg"),
                  encoding="utf-8") as handle:
            text = handle.read()
        line = f"noise.seed = {noise_seed}"
        text, count = re.subn(r"(?m)^noise\.seed\s*=.*$", line, text)
        if count == 0:
            text += f"\n{line}\n"
        with open(os.path.join(cfg_dir, f"{name}.cfg"), "w",
                  encoding="utf-8") as handle:
            handle.write(text)


def cli_argv(op, cfg_path: str, out_dir: str) -> list[str]:
    argv = [op["kind"], cfg_path, "--output", os.path.join(out_dir, op["out"])]
    if op["kind"] == "budget":
        return argv + ["--horizons", ",".join(map(str, op["horizons"]))]
    if op["kind"] == "compare":
        argv += ["--variants", ",".join(op["variants"])]
        argv += ["--plot"] if op["plot"] else []
    # "iters" overrides the config's horizon; only the self-test sets it.
    if op.get("iters"):
        argv += ["--iters", str(op["iters"])]
    return argv + ["--runs", str(op["runs"])]
