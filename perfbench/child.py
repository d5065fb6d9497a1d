"""One measured repetition of a workload, in a fresh process.

    python3 perfbench/child.py <ops-json> <cfg-dir> <out-dir> <result>
        [--trace] [--setup-only]

`run.py` starts this with PYTHONPATH pointing at the checkout's
`src` and BLAS threads pinned to one.  Set-up is `import dpopt`,
`load_config`, `build_setup` and validation of every variant the
workload uses; the wall clock then runs until the last output file is
written.  The result JSON holds set-up and wall time, peak resident
memory, one record per operation and, with --trace, the tracer's
counters (spans go to `spans.json` beside the result).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
import traceback

_START = time.perf_counter()


def _variants(op, config) -> list[str]:
    return op.get("variants") or [op.get("variant", config.variant)]


def _setup(ops, cfg_dir, tracer):
    import dpopt
    from workloads import config_names

    if tracer is not None:
        tracer.install()
    setups, failures, validations = {}, [], 0
    for name in config_names(ops):
        config = dpopt.load_config(os.path.join(cfg_dir, f"{name}.cfg"))
        variants = set()
        for op in ops:
            if op["config"] == name:
                variants.update(_variants(op, config))
        setup = dpopt.build_setup(config, sorted(variants))
        for variant in sorted(variants):
            report = dpopt.validate_for_variant(variant, setup)
            validations += 1
            if not report.overall:
                failures.append(f"{name}/{variant} fails validation: "
                                + ", ".join(report.failed_names()))
        setups[name] = (config, setup)
    return setups, validations, failures


def _difference(op, config, setup, out_dir):
    """Run coupled_difference_trace per envelope and write a summary CSV."""
    from dpopt import adjacent_variant, coupled_difference_trace
    from workloads import DIFFERENCE

    adjacent = adjacent_variant(setup.problem, **DIFFERENCE)
    rows, errors = [], []
    for envelope in op["envelopes"]:
        try:
            trace = coupled_difference_trace(
                op["variant"], setup, adjacent, op["iterations"],
                config.noise_seed, envelope=envelope,
            )
        except Exception:  # a failed library call is counted, not fatal
            errors.append(traceback.format_exc(limit=3))
            continue
        tracker = (repr(float(trace.tracker_diff[-1]))
                   if trace.tracker_diff is not None else "")
        rows.append(",".join([
            op["variant"], "none" if envelope is None else repr(envelope),
            repr(float(trace.max_ratio)), "yes" if trace.ok else "no",
            str(trace.violation_k), repr(float(trace.state_diff[-1])),
            repr(float(trace.state_bound[-1])), tracker,
        ]))
    path = os.path.join(out_dir, op["out"])
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "difference.csv"), "w",
              encoding="utf-8") as handle:
        handle.write("variant,envelope,max_ratio,ok,violation_k,"
                     "final_state_diff,final_state_bound,final_tracker_diff\n")
        handle.write("".join(row + "\n" for row in rows))
    return {"errors": errors}


def _work(ops, cfg_dir, out_dir, setups):
    from dpopt.cli import main
    from workloads import cli_argv

    records = []
    for op in ops:
        config, setup = setups[op["config"]]
        record = {"exit": None, "errors": [],
                  "variants": _variants(op, config)}
        try:
            if op["kind"] == "difference":
                record.update(_difference(op, config, setup, out_dir))
            else:
                cfg_path = os.path.join(cfg_dir, f"{op['config']}.cfg")
                record["exit"] = main(cli_argv(op, cfg_path, out_dir))
        except Exception:  # report the failure and go on with the workload
            record["errors"].append(traceback.format_exc(limit=3))
        records.append(record)
    return records


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("ops", help="JSON list of workload operations")
    parser.add_argument("cfg_dir")
    parser.add_argument("out_dir")
    parser.add_argument("result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    ops = json.loads(args.ops)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    setups, validations, setup_failures = _setup(ops, args.cfg_dir, tracer)
    setup_end = time.perf_counter()
    import dpopt
    import numpy

    result = {"setup_s": setup_end - _START, "validations": validations,
              "setup_failures": setup_failures, "dpopt": dpopt.__version__,
              "dpopt_file": dpopt.__file__, "numpy": numpy.__version__}
    if not args.setup_only:
        os.makedirs(args.out_dir, exist_ok=True)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        result["ops"] = _work(ops, args.cfg_dir, args.out_dir, setups)
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["layers"] = tracer.snapshot()
        tracer.write_spans(os.path.join(os.path.dirname(args.result),
                                        "spans.json"))
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
