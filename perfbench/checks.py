"""Correctness checks on one repetition's outputs.

Two layers of checks:

- structure, for any seed: exit code 0, no exception, for every Monte
  Carlo batch completed + failed = requested with one trace CSV per
  completed run, no NaN in the columns of `aggregate.csv` that the
  variant defines, one budget row per requested horizon, and every
  coupled difference trace within its bound;
- reference, against `reference.json` recorded at the commit that
  defined the benchmark: byte digests of every output file and the
  numbers of the small outputs (`summary.csv`, `budget.csv`,
  `failures.csv`, `difference.csv` and the last `aggregate.csv` row).
  At the default seed everything is compared.  At another seed only
  the files the reference marks seed-invariant are compared (files that
  were byte-identical at several seeds when it was recorded, such as
  budget reports).  The comparison counts as one operation, which fails when a
  cell's relative difference exceeds REF_TOLERANCE; a digest that
  differs is reported, not failed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

TRACKING_VARIANTS = ("alg2", "push_pull", "pdop_push_pull")
TABLE_FILES = ("summary.csv", "budget.csv", "failures.csv", "difference.csv")
REF_TOLERANCE = 1e-6
UNRELATED = 2.0


def read_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def data_rows(path: str) -> list[list[str]]:
    """Rows after the header; none when the file is missing."""
    return read_rows(path)[1:] if os.path.exists(path) else []


def digests(out_dir: str) -> dict[str, str]:
    out = {}
    for base, _dirs, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
                out[rel] = hashlib.sha256(handle.read()).hexdigest()
    return dict(sorted(out.items()))


def tables(out_dir: str, files) -> dict[str, list[list[str]]]:
    """Small outputs as rows of strings; aggregate.csv as header + last row."""
    out = {}
    for rel in files:
        name = rel.rsplit("/", 1)[-1]
        if name in TABLE_FILES:
            out[rel] = read_rows(os.path.join(out_dir, rel))
        elif name == "aggregate.csv":
            rows = read_rows(os.path.join(out_dir, rel))
            out[rel] = [rows[0], rows[-1]]
    return out


def rel_err(a: str, b: str) -> float:
    """|x - y| / max(|x|, |y|) of two CSV cells.

    Finite numbers give at most 2, which also stands for cells that
    share nothing: different text, or a non-finite value against
    another value.
    """
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return UNRELATED
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return UNRELATED
    return abs(x - y) / max(abs(x), abs(y))


class Report:
    """Counts and problems of one repetition, per operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.shape: list[dict] = []

    def op(self, label: str, problems: list[str], calls: int = 1,
           failed_calls: int | None = None) -> None:
        self.attempted += calls
        if failed_calls is None:
            failed_calls = calls if problems else 0
        self.failed += failed_calls
        self.problems += [f"{label}: {p}" for p in problems]


def _check_batch(path, variant, runs, problems):
    """One variant's Monte Carlo directory; returns (completed, diverged)."""
    if not os.path.isdir(path):
        problems.append(f"{variant}: no output directory")
        return 0, 0
    files = os.listdir(path)
    completed = sum(f.startswith("run_") and f.endswith(".csv") for f in files)
    diverged = 0
    if "failures.csv" in files:
        diverged = len(read_rows(os.path.join(path, "failures.csv"))) - 1
    else:
        problems.append(f"{variant}: no failures.csv")
    if completed + diverged != runs:
        problems.append(f"{variant}: {completed} completed + {diverged} failed"
                        f" != {runs} requested")
    if "aggregate.csv" not in files:
        problems.append(f"{variant}: no aggregate.csv")
        return completed, diverged
    rows = read_rows(os.path.join(path, "aggregate.csv"))
    required = ["mean_gap", "var_gap", "mean_consensus", "var_consensus"]
    if variant in TRACKING_VARIANTS:
        required += ["mean_tracking", "var_tracking"]
    if "budget.csv" in files:
        required.append("epsilon_partial")
    header = rows[0]
    for column in required:
        if column not in header:
            problems.append(f"{variant}: aggregate.csv lacks {column}")
            continue
        j = header.index(column)
        if any(math.isnan(float(row[j])) for row in rows[1:]):
            problems.append(f"{variant}: NaN in aggregate.csv {column}")
    return completed, diverged


def _check_op(op, record, out_dir, report):
    label = op["out"]
    path = os.path.join(out_dir, op["out"])
    problems = [e.strip().splitlines()[-1] for e in record["errors"]]
    if op["kind"] != "difference" and record["exit"] != 0:
        problems.append(f"exit code {record['exit']}")
    if op["kind"] in ("compare", "run"):
        batch_dirs = ([os.path.join(path, v) for v in record["variants"]]
                      if op["kind"] == "compare" else [path])
        diverged_total = 0
        for variant, batch in zip(record["variants"], batch_dirs):
            completed, diverged = _check_batch(batch, variant, op["runs"],
                                               problems)
            diverged_total += diverged
            agg = os.path.join(batch, "aggregate.csv")
            horizon = (int(read_rows(agg)[-1][0]) if os.path.exists(agg)
                       else 0)
            report.shape.append({"op": f"{label}/{variant}", "runs":
                                 completed + diverged, "horizon": horizon})
        if op["kind"] == "compare":
            rows = data_rows(os.path.join(path, "summary.csv"))
            if [r[0] for r in rows] != record["variants"]:
                problems.append("summary.csv rows do not match the variants")
            if op["plot"]:
                for svg in ("compare_gap.svg", "compare_consensus.svg"):
                    if not os.path.exists(os.path.join(path, svg)):
                        problems.append(f"no {svg}")
        solver_runs = op["runs"] * len(record["variants"])
        report.op(f"{label} solver runs", [], calls=solver_runs,
                  failed_calls=diverged_total)
        report.op(label, problems)
    elif op["kind"] == "budget":
        rows = data_rows(os.path.join(path, "budget.csv"))
        if [int(r[0]) for r in rows] != list(op["horizons"]):
            problems.append("budget.csv rows do not match the horizons")
        for row in rows:
            if not all(math.isfinite(float(v)) and float(v) > 0
                       for v in row[1:3]):
                problems.append(f"budget.csv row {row[0]} is not finite")
        if not os.path.exists(os.path.join(path, "breakdown.csv")):
            problems.append("no breakdown.csv")
        report.shape.append({"op": label, "runs": 1,
                             "horizon": max(op["horizons"])})
        report.op(label, problems)
    else:
        rows = data_rows(os.path.join(path, "difference.csv"))
        passed = sum(r[3] == "yes" for r in rows)
        problems += [f"{r[0]} envelope={r[1]} exceeds its bound at k={r[4]}"
                     for r in rows if r[3] != "yes"]
        calls = len(op["envelopes"])
        report.shape.append({"op": label, "runs": calls,
                             "horizon": op["iterations"]})
        report.op(label, problems, calls=calls, failed_calls=calls - passed)


def check_structure(ops, result, out_dir) -> Report:
    report = Report()
    report.op("setup validation", result["setup_failures"],
              calls=result["validations"],
              failed_calls=len(result["setup_failures"]))
    for op, record in zip(ops, result["ops"]):
        _check_op(op, record, out_dir, report)
    return report


def record_reference(out_dir: str, other_out_dirs) -> dict:
    """Reference entry for one workload.

    `out_dir` holds the default seed's outputs, `other_out_dirs` those
    of other seeds.  A file is seed-invariant when it is byte-identical
    at every seed; whole files are used because single cells can agree
    by chance, such as a ratio that saturates at 1.
    """
    files = digests(out_dir)
    others = [digests(d) for d in other_out_dirs]
    return {"files": {rel: {"sha256": sha,
                            "invariant": all(o.get(rel) == sha for o in others)}
                      for rel, sha in files.items()},
            "tables": tables(out_dir, files)}


def compare_reference(entry: dict, got: dict[str, str], out_dir: str,
                      full: bool, report: Report) -> dict:
    """Compare one repetition's outputs (digests `got`) with a workload's
    reference entry, all of it when `full`, else its seed-invariant
    files; counted as one operation that fails when a cell is off by
    more than REF_TOLERANCE."""
    checked = [rel for rel, ref in entry["files"].items()
               if full or ref["invariant"]]
    mismatched = [rel for rel in checked
                  if got.get(rel) != entry["files"][rel]["sha256"]]
    got_tables = tables(out_dir, [rel for rel in entry["tables"] if rel in got])
    worst, cells, problems = 0.0, 0, []
    for rel in checked:
        ref_rows = entry["tables"].get(rel)
        if ref_rows is None:
            continue
        rows = got_tables.get(rel)
        if rows is None or [len(r) for r in rows] != [len(r) for r in ref_rows]:
            err, n = UNRELATED, 1
        else:
            errs = [rel_err(a, b) for r, s in zip(rows, ref_rows)
                    for a, b in zip(r, s)]
            err, n = max(errs, default=0.0), len(errs)
        cells += n
        worst = max(worst, err)
        if err > REF_TOLERANCE:
            problems.append(f"{rel}: relative difference {err:.3g}")
    report.op("reference", problems)
    return {"ref_max_rel_err": worst, "ref_cells_checked": cells,
            "digest_mismatches": mismatched}
