"""Benchmark two source trees in alternating pairs; write a BENCH_<n>.json.

Usage:
    python tools/bench_pairs.py --parent PATH --change PATH --out FILE
        [--workloads mc_compare,long_run_accounting] [--pairs 10]
        [--seed 7] [--seconds 60] [--parent-label TEXT]
        [--change-label TEXT]

Each PATH is the root of a checkout (perfbench/, src/, configs/), best a
clean copy of one commit (`git archive <commit> | tar -x -C PATH`).  For
every workload, each pair runs

    python perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each tree, the parent first in even pairs and the change first
in odd ones, so a drift in the host's speed falls on both sides alike.

FILE gets the environment run.py reports, every pair (each side's
result line, wall samples and reference figures, or the error that
stopped it) and a summary per workload.  For each end-to-end metric the
summary gives both sides' median, quartiles (inclusive method), IQR,
min, max and n over the completed pairs, the pairs the change wins
(lower is better for every end-to-end metric) and ties, and the ratio
of the change's median to the parent's.  FILE is rewritten after every
pair, so an interrupted run keeps what it measured.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

METRICS = ("setup_s", "wall_s", "peak_rss_mb")
SIDES = ("parent", "change")


def run_side(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree: its result line and details, or the
    error that stopped it."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail)}
    detail = json.loads(lines[-2])["detail"]
    reference = detail.get("reference") or {}
    return {
        "result": json.loads(lines[-1]),
        "wall_samples_s": detail["wall_samples_s"],
        "ref_max_rel_err": detail["ref_max_rel_err"],
        "digest_mismatches": len(reference.get("digest_mismatches", [])),
        "environment": detail["environment"],
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(values), "max": max(values), "n": len(values)}


def summarize(pairs: list[dict], seed: int) -> dict:
    """Per-metric statistics of one workload's completed pairs."""
    done = [p for p in pairs if all("result" in p[s] for s in SIDES)]
    summary = {"seed": seed, "pairs": len(done),
               "errors": len(pairs) - len(done)}
    if len(done) < 2:
        return summary
    for metric in METRICS:
        values = {s: [p[s]["result"]["metrics"][metric]["value"]
                      for p in done] for s in SIDES}
        stats = {s: spread(values[s]) for s in SIDES}
        both = list(zip(values["parent"], values["change"]))
        summary[metric] = {
            **stats,
            "change_wins": sum(c < p for p, c in both),
            "ties": sum(c == p for p, c in both),
            "median_ratio_change_over_parent":
                stats["change"]["median"] / stats["parent"]["median"],
        }
    summary["all_correct"] = all(p[s]["result"]["correct"]
                                 for p in done for s in SIDES)
    summary["failed"] = sum(p[s]["result"]["failed"]
                            for p in done for s in SIDES)
    summary["digest_mismatches"] = {
        s: sorted({p[s]["digest_mismatches"] for p in done}) for s in SIDES
    }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent tree")
    parser.add_argument("--change", required=True, help="changed tree")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--workloads", default="mc_compare,long_run_accounting")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--parent-label", default="",
                        help="what the parent tree is, e.g. its commit")
    parser.add_argument("--change-label", default="",
                        help="what the changed tree is, e.g. its commit")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    doc = {
        "description": (
            "perfbench/run.py result lines of the parent and of the change, "
            "run from the two trees in alternating order (parent first in "
            "even pairs). --trace 0: end-to-end metrics only."),
        "command": (f"python3 perfbench/run.py --workload <workload> "
                    f"--seed {args.seed} --seconds {args.seconds:g} "
                    f"--trace 0"),
        "parent_commit": args.parent_label,
        "change_commit": args.change_label,
        "environment": None,
        "pairs": [],
        "summary": {},
    }
    for workload in args.workloads.split(","):
        pairs = []
        for index in range(args.pairs):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {"workload": workload, "seed": args.seed,
                    "first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], workload, args.seed,
                                      args.seconds)
                env = pair[side].pop("environment", None)
                if doc["environment"] is None and env is not None:
                    doc["environment"] = env
            pairs.append(pair)
            doc["pairs"].append(pair)
            doc["summary"][workload] = summarize(pairs, args.seed)
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, indent=1)
                handle.write("\n")
            print(f"{workload} pair {index + 1}/{args.pairs}: " + ", ".join(
                f"{s} " + (f"{pair[s]['result']['metrics']['wall_s']['value']:.3f} s"
                           if "result" in pair[s] else "error")
                for s in SIDES), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
