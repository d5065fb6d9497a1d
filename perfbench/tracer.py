"""Per-layer tracing of dpopt from outside the package.

`Tracer.install()` replaces each traced function with a timing wrapper
at every binding the loaded `dpopt` modules hold (for example both
`dpopt.solvers.run` and `dpopt.harness.run`), and traced methods on
their classes.  Nothing inside `src/dpopt` changes.

Two kinds of wrapper exist:

- counters, for functions called once per iteration or per chunk:
  calls, total time and self time only, so memory stays bounded;
- spans, for coarse calls (CLI commands, Monte Carlo batches, solver
  runs, budget and sensitivity functions, writers): the same counters
  plus one (id, name, parent, start, end) record per call.

Self time is a call's duration minus the time of the traced calls made
inside it.  A traced function that a later version of dpopt no longer
has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

# (metric prefix, module, attribute); an attribute "Class.method" is
# patched on its class.
COUNTERS = (
    ("schedules.value", "dpopt.schedules", "PowerSchedule.value"),
    ("schedules.values", "dpopt.schedules", "PowerSchedule.values"),
    ("noise.sample_block", "dpopt.noise", "LaplaceNoiseSource.sample_block"),
    ("objectives.all_gradients", "dpopt.objectives",
     "QuadraticEstimationProblem.all_gradients"),
    ("objectives.global_cost", "dpopt.objectives",
     "QuadraticEstimationProblem.global_cost"),
    ("objectives.local_gradient", "dpopt.objectives",
     "QuadraticEstimationProblem.local_gradient"),
    ("solvers.step_static", "dpopt.solvers", "step_static"),
    ("solvers.step_tracking", "dpopt.solvers", "step_tracking"),
    ("solvers.budget_step", "dpopt.solvers", "_BudgetTracker.step"),
)

SPANS = (
    ("cli.run", "dpopt.cli", "cmd_run"),
    ("cli.budget", "dpopt.cli", "cmd_budget"),
    ("cli.compare", "dpopt.cli", "cmd_compare"),
    ("config.load_config", "dpopt.config", "load_config"),
    ("config.build_setup", "dpopt.config", "build_setup"),
    ("graphs.build_weights", "dpopt.graphs", "build_consensus_weights"),
    ("graphs.build_weights", "dpopt.graphs", "build_push_pull_weights"),
    ("schedules.validate", "dpopt.schedules", "validate_static_schedules"),
    ("schedules.validate", "dpopt.schedules", "validate_tracking_schedules"),
    ("solvers.run", "dpopt.solvers", "run"),
    ("solvers.validate_for_variant", "dpopt.solvers", "validate_for_variant"),
    ("privacy.sensitivity", "dpopt.privacy", "sensitivity_static"),
    ("privacy.sensitivity", "dpopt.privacy", "sensitivity_tracking"),
    ("privacy.conservative_budget", "dpopt.privacy",
     "conservative_budget_static"),
    ("privacy.conservative_budget", "dpopt.privacy",
     "conservative_budget_tracking"),
    ("privacy.asymptotic_budget", "dpopt.privacy", "asymptotic_budget"),
    ("privacy.budget_tail_bound", "dpopt.privacy", "budget_tail_bound"),
    ("privacy.coupled_difference_trace", "dpopt.privacy",
     "coupled_difference_trace"),
    ("harness.monte_carlo", "dpopt.harness", "monte_carlo"),
    ("harness.aggregate", "dpopt.harness", "aggregate"),
    ("harness.budget_report", "dpopt.harness", "budget_report"),
    ("harness.write_csv", "dpopt.harness", "write_csv"),
    ("svgplot.line_plot", "dpopt.svgplot", "line_plot"),
)

# Quantities other than time, accumulated from arguments and results.
EXTRA = ("noise.draws", "solvers.run.iterations", "solvers.runs_diverged",
         "privacy.sensitivity.steps", "harness.write_csv.bytes")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        # name -> [calls, total_s, self_s, active depth]
        self.stats: dict[str, list] = {}
        # One child-time accumulator per active traced call.
        self.frames: list[list[float]] = []
        self.span_stack: list[int] = []
        self.spans: list[tuple] = []
        self.extra = dict.fromkeys(EXTRA, 0)
        self.installed = []

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _counter(self, name, fn):
        stat = self._stat(name)
        frames = self.frames
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt

        return wrapper

    def _span(self, name, fn, on_result):
        stat = self._stat(name)
        frames, spans, span_stack = self.frames, self.spans, self.span_stack
        clock = self.clock
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            span_id = len(spans)
            parent = span_stack[-1] if span_stack else None
            spans.append(None)
            span_stack.append(span_id)
            stat[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                frames.pop()
                span_stack.pop()
                stat[3] -= 1
                stat[0] += 1
                if stat[3] == 0:
                    stat[1] += dt
                stat[2] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                spans[span_id] = (span_id, name, parent,
                                  t0 - self.origin, t1 - self.origin)
            if on_result is not None:
                on_result(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    # Hooks turning arguments and results into work counts.
    def _on_run(self, arguments, trace):
        self.extra["solvers.run.iterations"] += (
            trace.diverged_at if trace.diverged else arguments["iterations"])
        self.extra["solvers.runs_diverged"] += int(trace.diverged)

    def _on_sensitivity(self, arguments, _result):
        self.extra["privacy.sensitivity.steps"] += int(arguments["horizon"])

    def _on_write_csv(self, arguments, _result):
        self.extra["harness.write_csv.bytes"] += os.path.getsize(
            arguments["path"])

    def _on_sample_block(self, fn):
        extra = self.extra

        def counted(source, *args, **kwargs):
            block = fn(source, *args, **kwargs)
            if source.scale is not None:  # a disabled source draws nothing
                extra["noise.draws"] += block.size
            return block

        return counted

    def install(self) -> None:
        """Wrap every traced function; call after `import dpopt`."""
        hooks = {
            "solvers.run": self._on_run,
            "privacy.sensitivity": self._on_sensitivity,
            "harness.write_csv": self._on_write_csv,
        }
        for name, module_name, attr in COUNTERS + SPANS:
            self._stat(name)
            owner = sys.modules.get(module_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, meth, None) if owner else None
            if original is None:
                continue
            if (name, module_name, attr) in COUNTERS:
                fn = original
                if name == "noise.sample_block":
                    fn = self._on_sample_block(original)
                wrapper = self._counter(name, fn)
            else:
                wrapper = self._span(name, original, hooks.get(name))
            if cls_name:
                setattr(owner, meth, wrapper)
            else:
                self._rebind(original, wrapper)
            self.installed.append(f"{module_name}.{attr}")

    @staticmethod
    def _rebind(original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dpopt" and not mod_name.startswith("dpopt."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def snapshot(self) -> dict:
        """Counters and work counts as one flat JSON-ready dict."""
        out = {}
        for name, (calls, total, self_s, _depth) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update(self.extra)
        return out

    def write_spans(self, path: str) -> None:
        keys = ("id", "name", "parent", "start_s", "end_s")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"installed": self.installed,
                       "spans": [dict(zip(keys, s)) for s in self.spans
                                 if s is not None]}, handle)
