"""Record `reference.json`, the outputs the correctness check compares with.

    python3 perfbench/record_reference.py [workload ...]

Runs each workload (default: all) once at the default seed and once at
each of OTHER_SEEDS, checks every run for structure, and stores the
default seed's output digests and small-output numbers, marking as
seed-invariant the files that every seed produced byte for byte.
Entries of workloads not named are kept.  Record only at a commit whose
outputs are known good.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from checks import check_structure, record_reference
from run import HERE, REFERENCE, ROOT, run_child
from workloads import DEFAULT_SEED, WORKLOADS, write_configs

OTHER_SEEDS = (DEFAULT_SEED + 1, DEFAULT_SEED + 2, DEFAULT_SEED + 3)


def outputs_at(name: str, seed: int) -> str:
    work = os.path.join(HERE, "_work", "reference", name, str(seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    write_configs(ROOT, os.path.join(work, "cfg"), WORKLOADS[name], seed)
    out_dir = os.path.join(work, "out")
    result = run_child(WORKLOADS[name], work)
    report = check_structure(WORKLOADS[name], result, out_dir)
    if report.problems:
        raise SystemExit(f"{name} at seed {seed}: {report.problems}")
    return out_dir


def main(names) -> None:
    reference = {"default_seed": DEFAULT_SEED, "workloads": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as handle:
            reference = json.load(handle)
    for name in names or sorted(WORKLOADS):
        entry = record_reference(outputs_at(name, DEFAULT_SEED),
                                 [outputs_at(name, s) for s in OTHER_SEEDS])
        reference["workloads"][name] = entry
        print(f"{name}: {len(entry['files'])} files, "
              f"{len(entry['tables'])} tables")
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
