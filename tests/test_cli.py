import hashlib
import os
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from test_config import LITERALS, PDOP_BLOCK, STATIC_TEXT, TRACKING_TEXT

import dpopt
from dpopt import cli
from dpopt.cli import main
from dpopt.config import build_setup, load_config, parse_config_text
from dpopt.errors import ConditionError, ConfigError, RangeError
from dpopt.harness import (
    budget_account, run_directory, write_breakdown, write_csv,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# `budget --horizons 1e3,1e4,1e5` on each shipped config: digests of
# its two files.
BUDGET_SHA256 = {
    "alg1": {
        "budget.csv": "9b2455f8a8a602c8822b626521c48e4e"
                      "aeff5c8819a106018af6618151cb6b5a",
        "breakdown.csv": "96a928318ba1e4d272f9a1736090e112"
                         "f4adfd86dd5da46c947fbe152cab3cb5",
    },
    "alg2": {
        "budget.csv": "2c68fc172c757dc8194caebb2dd0fc25"
                      "e79c9043266e3a2b9109c9b108b8a2cd",
        "breakdown.csv": "4cdf49501a4ecc8ad1e70e5b8025fd92"
                         "ce08bc94b5abb0bdd043caff529454b1",
    },
}


def tree(base) -> dict[str, bytes]:
    """Every file under base, by relative path, with its bytes."""
    found = {}
    for root, _, names in os.walk(base):
        for name in names:
            full = os.path.join(root, name)
            with open(full, "rb") as handle:
                found[os.path.relpath(full, base)] = handle.read()
    return found


def alg1_with(tmp_path, *replacements) -> str:
    """The shipped alg1 config with each (line, replacement) applied."""
    text = (CONFIGS / "alg1.cfg").read_text(encoding="utf-8")
    for line, replacement in replacements:
        assert line in text
        text = text.replace(line, replacement)
    path = tmp_path / "derived.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _never(*args, **kwargs):
    raise AssertionError("reached with a size that should be rejected")


@pytest.fixture()
def static_cfg(tmp_path):
    path = tmp_path / "static.cfg"
    path.write_text(STATIC_TEXT + PDOP_BLOCK, encoding="utf-8")
    return str(path)


@pytest.fixture()
def tracking_cfg(tmp_path):
    path = tmp_path / "tracking.cfg"
    path.write_text(TRACKING_TEXT, encoding="utf-8")
    return str(path)


class TestValidate:
    def test_passing_config(self, static_cfg, capsys):
        assert main(["validate", static_cfg]) == 0
        out = capsys.readouterr().out
        assert "overall: pass" in out
        assert "coupling_sum_diverges" in out
        assert "symmetric" in out

    def test_failing_schedule_returns_one(self, tmp_path, capsys):
        text = STATIC_TEXT.replace("schedules.coupling.p = 0.9",
                                   "schedules.coupling.p = 1.1")
        path = tmp_path / "bad.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "overall: FAIL" in out

    def test_strong_tracker_mix_returns_one(self, tmp_path, capsys):
        # Every schedule condition holds, but alpha^0 + min|C_ii|
        # gamma2^0 > 1 leaves the tracker sensitivity without a bound:
        # validate fails, and a forced noisy run stops at the accountant.
        text = (CONFIGS / "alg2.cfg").read_text(encoding="utf-8").replace(
            "schedules.tracker_mix.a = 0.02", "schedules.tracker_mix.a = 0.95")
        path = tmp_path / "mix.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "tracker_mix_peak_contraction" in out
        assert "overall: FAIL" in out
        argv = ["run", str(path), "--runs", "2", "--iters", "200",
                "--output", str(tmp_path / "out")]
        assert main(argv) == 1
        assert main(argv + ["--force"]) == 1
        assert "mix too strong" in capsys.readouterr().err

    def test_schedule_warning_printed_once(self, tmp_path, capsys):
        # A constant coupling draws the one warning of the validators.
        text = (CONFIGS / "alg1.cfg").read_text(encoding="utf-8").replace(
            "schedules.coupling.form = decaying",
            "schedules.coupling.form = constant")
        path = tmp_path / "constant.cfg"
        path.write_text(text, encoding="utf-8")
        main(["validate", str(path)])
        out = capsys.readouterr().out
        warning = "injected noise is never attenuated"
        assert out.count(warning) == 1
        assert f"warn  coupling schedule does not decay; {warning}" in out

    def test_missing_file_returns_two(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_config_returns_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("variant = alg1\nwhat\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 2

    def test_empty_key_returns_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("variant = alg1\n= 5\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: empty key (line 2, key '= 5')\n")

    def test_unallocatable_size_returns_one(self, tmp_path, capsys):
        # 1e15 agents ask numpy for 42.6 PiB, past any address space, so
        # the request fails at once; no size that might be partly
        # allocated is tried.
        path = alg1_with(tmp_path, ("problem.agents = 5",
                                    "problem.agents = 1e15"))
        assert main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ")
        assert "Traceback" not in err and err.count("\n") == 1


class TestConfigValues:
    """Config values that once ended in a traceback exit 2, naming their
    key and line."""

    EDGES = "graph.edges = 0>1, 1>2, 2>3, 3>4, 4>0, 0>2, 1>4"

    @staticmethod
    def validate(text, key, tmp_path, capsys, code=2):
        path = tmp_path / "bad.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == code
        err = capsys.readouterr().err
        if code == 2:
            line = next(n for n, entry in enumerate(text.splitlines(), 1)
                        if entry.startswith(f"{key} ="))
            assert err.startswith("config error:")
            assert f"(line {line}, key {key!r})" in err
        return err

    @staticmethod
    def mutate(config, line, replacement):
        text = (CONFIGS / f"{config}.cfg").read_text(encoding="utf-8")
        assert line in text
        return text.replace(line, replacement)

    def test_negative_problem_seed_returns_two(self, tmp_path, capsys):
        text = self.mutate("alg1", "problem.seed = 7", "problem.seed = -1")
        self.validate(text, "problem.seed", tmp_path, capsys)

    def test_edge_beyond_agents_returns_two(self, tmp_path, capsys):
        # 4>0 names agent 4 of three.
        text = self.mutate("alg1", "problem.agents = 5", "problem.agents = 3")
        self.validate(text, "graph.edges", tmp_path, capsys)

    @pytest.mark.parametrize("key", ["graph.edges", "graph.pull_edges",
                                     "graph.push_edges"])
    def test_self_loop_edge_returns_two(self, key, tmp_path, capsys):
        looped = f"{key} = 0>1, 1>2, 2>3, 3>4, 4>0, 1>1"
        text = self.mutate("alg2", self.EDGES, looped if key == "graph.edges"
                           else f"{self.EDGES}\n{looped}")
        self.validate(text, key, tmp_path, capsys)

    def test_edge_weight_overflow_returns_two(self, tmp_path, capsys):
        line = "graph.edge_weight = 0.2"
        # 5 agents times 1e308 overflows; times 3e307 it does not, and
        # the weights then fail their contraction check (exit 1).
        text = self.mutate("alg1", line, "graph.edge_weight = 1e308")
        self.validate(text, "graph.edge_weight", tmp_path, capsys)
        text = self.mutate("alg1", line, "graph.edge_weight = 3e307")
        err = self.validate(text, "graph.edge_weight", tmp_path, capsys,
                            code=1)
        assert err.startswith("error: no contraction at edge_weight=3e+307")

    @pytest.mark.parametrize("weight,advice", [
        # Too small to move I - 11^T/m in floating point: only a larger
        # weight contracts.  Too large: only a smaller one does.
        ("1e-17", "use a larger edge weight, as rounding loses this one"),
        ("0.5", "use a smaller edge weight"),
    ], ids=["too_small", "too_large"])
    def test_no_contraction_advice(self, weight, advice, tmp_path, capsys):
        text = self.mutate("alg1", "graph.edge_weight = 0.2",
                           f"graph.edge_weight = {weight}")
        err = self.validate(text, "graph.edge_weight", tmp_path, capsys,
                            code=1)
        assert err.startswith(f"error: no contraction at edge_weight={weight} "
                              "(norm ")
        assert err.endswith(f"; {advice}\n")

    @pytest.mark.parametrize("line", [
        "problem.agents = 5", "problem.measurements = 3",
        "problem.dimension = 2", "run.iterations = 10000",
    ])
    def test_integer_past_2_53_returns_two(self, line, tmp_path, capsys):
        key = line.split(" = ")[0]
        text = self.mutate("alg1", line, f"{key} = 1e308")
        err = self.validate(text, key, tmp_path, capsys)
        assert "expected an integer below 2**53, got '1e308'" in err

    def test_fraction_below_2_53_returns_two(self, tmp_path, capsys):
        # Read through a float, the seed would run as 2**52.
        text = self.mutate("alg1", "noise.seed = 1",
                           "noise.seed = 4503599627370496.5")
        err = self.validate(text, "noise.seed", tmp_path, capsys)
        assert "expected an integer, got '4503599627370496.5'" in err


class TestRun:
    def test_writes_contracted_files(self, static_cfg, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["run", static_cfg, "--runs", "3", "--iters", "60",
                     "--output", out])
        assert code == 0
        names = sorted(os.listdir(out))
        assert names == [
            "aggregate.csv", "budget.csv", "failures.csv",
            "run_000.csv", "run_001.csv", "run_002.csv",
        ]
        stdout = capsys.readouterr().out
        assert "3/3 runs completed" in stdout
        assert "privacy budget bound" in stdout

    def test_rerun_deletes_the_earlier_batch_files(self, tmp_path, capsys):
        # A noisy batch of 3 runs with plots, then a noiseless batch of 2
        # without, into one directory: the files only the first batch
        # wrote go, and files no batch writes stay.
        out = tmp_path / "out"
        out.mkdir()
        unrelated = ("notes.txt", "run_000.csv.bak", "run_x.csv",
                     "gap.png", "compare_gap.svg")
        for name in unrelated:
            (out / name).write_text(name, encoding="utf-8")
        options = ["--iters", "100", "--output", str(out)]
        assert main(["run", str(CONFIGS / "alg2.cfg"), "--runs", "3",
                     "--plot", *options]) == 0
        assert {"run_002.csv", "budget.csv", "gap.svg", "consensus.svg",
                "tracking.svg"} <= set(os.listdir(out))
        assert main(["run", str(CONFIGS / "alg2_nonoise.cfg"), "--runs",
                     "2", *options]) == 0
        assert "2/2 runs completed" in capsys.readouterr().out
        assert sorted(os.listdir(out)) == sorted([
            "aggregate.csv", "failures.csv", "run_000.csv", "run_001.csv",
            *unrelated])
        for name in unrelated:
            assert (out / name).read_text(encoding="utf-8") == name

    @staticmethod
    def growing_coupling_cfg(tmp_path) -> str:
        """Noiseless with a growing coupling: the schedule conditions
        hold, but gamma^k grows past the contraction limit."""
        text = STATIC_TEXT.replace(
            "schedules.coupling.form = decaying",
            "schedules.coupling.form = growing",
        ).replace(
            "noise.scale.form = growing\nnoise.scale.a = 1.0\n"
            "noise.scale.b = 0.1\nnoise.scale.p = 0.3\n",
            "noise.scale.form = zero\n",
        )
        path = tmp_path / "growing.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_coupling_growing_past_contraction_returns_one(self, tmp_path,
                                                           capsys):
        # validate fails on the coupling's peak, and a forced run stops
        # in time.
        path = self.growing_coupling_cfg(tmp_path)
        assert main(["validate", str(path)]) == 1
        code = main(["run", str(path), "--runs", "1", "--force",
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert "gamma too large" in capsys.readouterr().err

    def test_error_labels(self, tmp_path, capsys):
        # A failed validation is labelled as such; a run-time stop is not.
        path = self.growing_coupling_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", path, "--runs", "1", "--output", out]) == 1
        assert capsys.readouterr().err.startswith("validation error: ")
        assert main(["run", path, "--runs", "1", "--force",
                     "--output", out]) == 1
        assert capsys.readouterr().err.startswith(
            "error: gamma too large: a diagonal entry of the mixed matrix "
            "is nonpositive")

    def test_plot_writes_svgs(self, static_cfg, tmp_path):
        out = str(tmp_path / "out")
        code = main(["run", static_cfg, "--runs", "2", "--iters", "60",
                     "--output", out, "--plot"])
        assert code == 0
        for name in ("gap.svg", "consensus.svg"):
            text = Path(out, name).read_text(encoding="utf-8")
            ElementTree.fromstring(text)

    def test_tracking_plot_includes_tracking_svg(self, tracking_cfg, tmp_path):
        out = str(tmp_path / "out")
        code = main(["run", tracking_cfg, "--runs", "2", "--iters", "60",
                     "--output", out, "--plot"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "tracking.svg"))

    def test_one_agent_plot_skips_consensus(self, tmp_path, capsys):
        # One agent has no consensus error: a zero curve that a log axis
        # cannot draw is skipped, and the run completes.
        path = alg1_with(tmp_path, ("problem.agents = 5", "problem.agents = 1"),
                         ("graph.edges = 0>1, 1>2, 2>3, 3>4, 4>0, 0>2, 1>4",
                          "graph.edges ="))
        assert main(["validate", path]) == 0
        out = tmp_path / "out"
        assert main(["run", path, "--plot", "--runs", "2", "--iters", "200",
                     "--output", str(out)]) == 0
        assert (out / "gap.svg").exists()
        assert not (out / "consensus.svg").exists()
        assert "2/2 runs completed" in capsys.readouterr().out

    def test_fully_diverged_plot_skipped(self, tmp_path, capsys):
        # Every run starts past the divergence threshold, so no mean is
        # finite: no figure, and the batch's own error.
        path = alg1_with(tmp_path, ("run.init_radius = 10.0",
                                    "run.init_radius = 1e300"))
        out = tmp_path / "out"
        assert main(["run", path, "--plot", "--runs", "2", "--iters", "200",
                     "--output", str(out)]) == 1
        assert not list(out.glob("*.svg"))
        captured = capsys.readouterr()
        assert "0/2 runs completed" in captured.out
        assert captured.err == ("error: every run of alg1 diverged; see "
                                "failures.csv\n")

    def test_diverged_runs_recorded_not_written(self, tmp_path, capsys):
        text = STATIC_TEXT.replace("variant = alg1", "variant = dgd").replace(
            "schedules.stepsize.a = 0.02", "schedules.stepsize.a = 10.0"
        )
        path = tmp_path / "div.cfg"
        path.write_text(text, encoding="utf-8")
        out = str(tmp_path / "out")
        code = main(["run", str(path), "--runs", "2", "--iters", "300",
                     "--output", out])
        assert code == 1
        names = sorted(os.listdir(out))
        assert "run_000.csv" not in names
        lines = Path(out, "failures.csv").read_text(
            encoding="utf-8").strip().split("\n")
        assert len(lines) == 3
        captured = capsys.readouterr()
        assert "2 diverged" in captured.out
        assert "every run of dgd diverged" in captured.err

    def test_non_finite_budget_term_returns_one(self, tmp_path, capsys):
        # pdop noise 0.118619 * 0.01^k is subnormal by k = 155, where the
        # budget term overflows: validate fails on the budget entry, and
        # run stops there with its reason instead of writing inf cells.
        text = (STATIC_TEXT + PDOP_BLOCK).replace(
            "variant = alg1", "variant = pdop_alg1"
        ).replace("pdop.noise.r = 0.999", "pdop.noise.r = 0.01")
        path = tmp_path / "underflow.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        out = tmp_path / "out"
        code = main(["run", str(path), "--runs", "2", "--iters", "300",
                     "--output", str(out)])
        assert code == 1
        assert "conservative budget term not finite at k = 155" \
            in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("line,value", [
        ("budget.gradient_bound = 1.0", "inf"),
        ("schedules.stepsize.b = 0.1", "nan"),
        ("run.init_radius = 10.0", "inf"),
    ])
    def test_non_finite_config_float_returns_two(self, line, value, tmp_path,
                                                 capsys):
        key = line.split(" = ")[0]
        text = (CONFIGS / "alg1.cfg").read_text(encoding="utf-8")
        assert line in text
        path = tmp_path / "bad.cfg"
        path.write_text(text.replace(line, f"{key} = {value}"),
                        encoding="utf-8")
        out = tmp_path / "out"
        for argv in (["validate", str(path)],
                     ["run", str(path), "--runs", "2", "--iters", "200",
                      "--output", str(out)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert f"key {key!r}" in captured.err
            assert "expected a finite number" in captured.err
            assert captured.out == ""
        assert not out.exists()

    def test_partly_diverged_batch_returns_zero(self, tmp_path, capsys):
        # A stepsize just past stability for the first few dozen
        # iterations: the runs whose noise pushes them furthest cross
        # the divergence threshold, the others recover.
        text = STATIC_TEXT.replace("variant = alg1", "variant = dgd").replace(
            "schedules.stepsize.a = 0.02", "schedules.stepsize.a = 0.33"
        )
        path = tmp_path / "partial.cfg"
        path.write_text(text, encoding="utf-8")
        out = str(tmp_path / "out")
        code = main(["run", str(path), "--runs", "4", "--iters", "100",
                     "--output", out])
        assert code == 0
        failures = Path(out, "failures.csv").read_text(
            encoding="utf-8").strip().split("\n")[1:]
        assert 0 < len(failures) < 4
        runs = [n for n in os.listdir(out) if n.startswith("run_")]
        assert len(runs) + len(failures) == 4
        assert capsys.readouterr().err == ""

    def test_validation_failure_returns_one_and_force_runs(self, tmp_path):
        text = STATIC_TEXT.replace("schedules.coupling.p = 0.9",
                                   "schedules.coupling.p = 1.1")
        path = tmp_path / "bad.cfg"
        path.write_text(text, encoding="utf-8")
        out = str(tmp_path / "out")
        assert main(["run", str(path), "--runs", "1", "--iters", "30",
                     "--output", out]) == 1
        assert main(["run", str(path), "--runs", "1", "--iters", "30",
                     "--output", out, "--force"]) == 0

    def test_bad_overrides_return_two(self, static_cfg, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", static_cfg, "--runs", "0", "--output", out]) == 2
        assert main(["run", static_cfg, "--iters", "0", "--output", out]) == 2

    def test_iters_past_2_53_returns_two(self, static_cfg, tmp_path, capsys,
                                         monkeypatch):
        # Read as run.iterations, before any batch of that length.
        monkeypatch.setattr(cli, "monte_carlo", _never)
        assert main(["run", static_cfg, "--runs", "1", "--iters",
                     "9007199254740993", "--output", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: expected an integer below 2**53, got "
            "'9007199254740993' (key 'run.iterations')\n")


class TestBudget:
    @pytest.mark.parametrize("name", sorted(BUDGET_SHA256))
    def test_shipped_budget_bytes_pinned(self, name, tmp_path):
        # The static and tracking walks, the two-message envelope of
        # alg2 and the tail bound, each byte of both files.
        out = tmp_path / "out"
        assert main(["budget", str(CONFIGS / f"{name}.cfg"), "--horizons",
                     "1e3,1e4,1e5", "--output", str(out)]) == 0
        for file, digest in BUDGET_SHA256[name].items():
            got = hashlib.sha256((out / file).read_bytes()).hexdigest()
            assert got == digest, file

    def test_report_and_files(self, static_cfg, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["budget", static_cfg, "--horizons", "1e2,1e3",
                     "--output", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "envelope growth over the last decade" in stdout
        assert "summable" in stdout
        assert os.path.exists(os.path.join(out, "budget.csv"))
        assert os.path.exists(os.path.join(out, "breakdown.csv"))

    def test_divergent_series_message(self, tmp_path, capsys):
        text = STATIC_TEXT.replace("noise.scale.form = growing",
                                   "noise.scale.form = constant")
        text = text.replace("noise.scale.b = 0.1", "").replace(
            "noise.scale.p = 0.3", "")
        path = tmp_path / "flat.cfg"
        path.write_text(text, encoding="utf-8")
        out = str(tmp_path / "out")
        assert main(["budget", str(path), "--horizons", "100",
                     "--output", out]) == 0
        assert "no finite budget" in capsys.readouterr().out

    def test_overflowing_envelope_has_no_growth(self, tmp_path, capsys):
        # b = 5e-309 puts the envelope's constant past the float range,
        # so both partial sums read inf and (inf - inf) / inf is NaN.
        text = STATIC_TEXT.replace("noise.scale.b = 0.1",
                                   "noise.scale.b = 5e-309")
        path = tmp_path / "tiny_b.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["budget", str(path), "--horizons", "10,100",
                     "--output", str(tmp_path / "out")]) == 0
        stdout = capsys.readouterr().out
        assert "nan" not in stdout
        assert ("envelope growth over the last decade: undefined, the "
                "envelope is past the float range\n") in stdout

    def test_zero_noise_rejected(self, tmp_path, capsys):
        text = STATIC_TEXT.replace("noise.scale.form = growing",
                                   "noise.scale.form = zero")
        text = text.replace("noise.scale.a = 1.0", "").replace(
            "noise.scale.b = 0.1", "").replace("noise.scale.p = 0.3", "")
        path = tmp_path / "quiet.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["budget", str(path), "--horizons", "100",
                     "--output", str(tmp_path / "out")]) == 2

    def test_bad_horizons_return_two(self, static_cfg, tmp_path):
        out = str(tmp_path / "out")
        assert main(["budget", static_cfg, "--horizons", "0",
                     "--output", out]) == 2
        assert main(["budget", static_cfg, "--horizons", "ten",
                     "--output", out]) == 2

    def test_no_horizons_return_two(self, static_cfg, tmp_path, capsys):
        assert main(["budget", static_cfg, "--horizons", ",",
                     "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: at least one horizon is required "
            "(key '--horizons')\n")

    def test_output_under_a_file_returns_two(self, static_cfg, tmp_path,
                                             capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        assert main(["budget", static_cfg, "--horizons", "100",
                     "--output", str(blocker / "out")]) == 2
        assert capsys.readouterr().err.startswith("io error: ")

    @pytest.mark.parametrize("bound", ["0", "-1", "nan", "inf"])
    def test_bad_gradient_bound_returns_two(self, static_cfg, tmp_path,
                                            capsys, bound):
        # Read as budget.gradient_bound: its messages, without a line.
        assert main(["budget", static_cfg, "--horizons", "100",
                     "--gradient-bound", bound,
                     "--output", str(tmp_path / "out")]) == 2
        reason = (f"expected a finite number, got {bound!r}"
                  if bound in ("nan", "inf") else "value out of range")
        assert capsys.readouterr().err == (
            f"config error: {reason} (key 'budget.gradient_bound')\n")

    @pytest.mark.parametrize("token", ["inf", "nan", "1e400", "-inf"])
    def test_non_finite_horizons_return_two(self, static_cfg, tmp_path,
                                            capsys, token):
        # Read as an integer key: 1e400 is whole, but past 2**53.
        assert main(["budget", static_cfg, "--horizons", f"100,{token}",
                     "--output", str(tmp_path / "out")]) == 2
        below = " below 2**53" if token == "1e400" else ""
        assert capsys.readouterr().err == (
            f"config error: expected an integer{below}, got {token!r} "
            "(key '--horizons')\n")

    @pytest.mark.parametrize("token", ["9007199254740993",
                                       "4503599627370496.5"])
    def test_inexact_horizons_return_two(self, static_cfg, tmp_path, capsys,
                                         monkeypatch, token):
        # As floats they round to 2**53 and 2**52; no budget walk may
        # start on either.
        monkeypatch.setattr(cli, "budget_account", _never)
        assert main(["budget", static_cfg, "--horizons", f"100,{token}",
                     "--output", str(tmp_path / "out")]) == 2
        assert f"got {token!r} (key '--horizons')" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="expected an integer"):
            cli._parse_horizons(token)

    @pytest.mark.parametrize("cfg", ["static_cfg", "tracking_cfg"])
    def test_one_pass_matches_separate_reports(self, cfg, tmp_path, capsys,
                                               request):
        path = request.getfixturevalue(cfg)
        out = tmp_path / "out"
        assert main(["budget", path, "--horizons", "1e3,1e4,1e5",
                     "--output", str(out)]) == 0
        stdout = capsys.readouterr().out

        config = load_config(path)
        setup = build_setup(config)
        bound = config.gradient_bound
        ref = tmp_path / "ref"
        ref.mkdir()
        table = budget_account(config.variant, setup, bound,
                               [1000, 10000, 100000]).table
        write_csv(str(ref / "budget.csv"), table)
        write_breakdown(str(ref / "breakdown.csv"), budget_account(
            config.variant, setup, bound, [100000]).conservative)
        for name in ("budget.csv", "breakdown.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

        decade = budget_account(config.variant, setup, bound,
                                [10000]).table["epsilon_envelope"][0]
        growth = (table["epsilon_envelope"][-1] - decade) / decade
        assert (f"envelope growth over the last decade: {100 * growth:.4f}% "
                f"(under 5%: {'yes' if growth < 0.05 else 'no'})") in stdout


class TestCompare:
    def test_writes_per_variant_dirs_and_summary(self, static_cfg, tmp_path,
                                                 capsys):
        out = str(tmp_path / "out")
        code = main(["compare", static_cfg, "--variants", "alg1,dgd,pdop_alg1",
                     "--runs", "2", "--iters", "60", "--output", out])
        assert code == 0
        for variant in ("alg1", "dgd", "pdop_alg1"):
            assert os.path.exists(os.path.join(out, variant, "aggregate.csv"))
        lines = Path(out, "summary.csv").read_text(
            encoding="utf-8").strip().split("\n")
        assert lines[0].startswith("variant,runs,completed,failures")
        assert len(lines) == 4
        stdout = capsys.readouterr().out
        assert "alg1" in stdout and "dgd" in stdout

    def test_plot_overlays(self, static_cfg, tmp_path):
        out = str(tmp_path / "out")
        code = main(["compare", static_cfg, "--variants", "alg1,dgd",
                     "--runs", "2", "--iters", "60", "--output", out,
                     "--plot"])
        assert code == 0
        for name in ("compare_gap.svg", "compare_consensus.svg"):
            ElementTree.fromstring(
                Path(out, name).read_text(encoding="utf-8")
            )

    def test_rerun_deletes_the_earlier_batch_files(self, static_cfg,
                                                   tmp_path):
        # Plotted 3-run batches, then unplotted 2-run ones: each
        # directory holds the second batch's files, and files no batch
        # writes stay.
        out = tmp_path / "out"
        (out / "alg1").mkdir(parents=True)
        unrelated = ("compare_other.svg", "alg1/notes.txt")
        for name in unrelated:
            (out / name).write_text(name, encoding="utf-8")
        argv = ["compare", static_cfg, "--variants", "alg1,dgd",
                "--iters", "60", "--output", str(out)]
        assert main(argv + ["--runs", "3", "--plot"]) == 0
        assert (out / "compare_gap.svg").exists()
        assert (out / "dgd" / "run_002.csv").exists()
        assert main(argv + ["--runs", "2"]) == 0
        written = ["aggregate.csv", "budget.csv", "failures.csv",
                   "run_000.csv", "run_001.csv"]
        assert sorted(tree(out)) == sorted([
            "summary.csv", *unrelated,
            *(f"{variant}/{name}" for variant in ("alg1", "dgd")
              for name in written)])
        for name in unrelated:
            assert (out / name).read_text(encoding="utf-8") == name

    @pytest.mark.parametrize("cfg,variants", [
        ("static_cfg", "alg1,dgd,pdop_alg1"),
        ("tracking_cfg", "alg2,push_pull"),
    ])
    def test_rerun_is_byte_identical(self, cfg, variants, tmp_path, request):
        path = request.getfixturevalue(cfg)
        outs = [str(tmp_path / name) for name in ("a", "b")]
        for out in outs:
            assert main(["compare", path, "--variants", variants,
                         "--runs", "3", "--iters", "120", "--plot",
                         "--output", out]) == 0

        first, second = tree(outs[0]), tree(outs[1])
        assert "summary.csv" in first and len(first) > 10
        assert first == second

    def test_fully_diverged_variant_returns_one(self, tmp_path, capsys):
        # pdop_alg1 runs on its own stepsize, far past stability; alg1
        # completes.  Every output is still written before the exit.
        text = STATIC_TEXT + PDOP_BLOCK.replace(
            "pdop.stepsize.a = 0.02", "pdop.stepsize.a = 10.0")
        path = tmp_path / "div.cfg"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["compare", str(path), "--variants", "alg1,pdop_alg1",
                     "--runs", "2", "--iters", "300", "--plot",
                     "--output", str(out)])
        assert code == 1
        for name in ("summary.csv", "compare_gap.svg",
                     "compare_consensus.svg", "alg1/run_001.csv",
                     "pdop_alg1/failures.csv", "pdop_alg1/budget.csv"):
            assert (out / name).exists()
        assert not (out / "pdop_alg1" / "run_000.csv").exists()
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and "every run of pdop_alg1 diverged" in err[0]

    def test_fully_diverged_variant_prints_no_final_gap(self, tmp_path,
                                                        capsys):
        # The table prints "-" for the final gap and its se of a variant
        # with no completed run, as run omits them; summary.csv keeps
        # the aggregate's inf and 0.
        text = STATIC_TEXT + PDOP_BLOCK.replace(
            "pdop.stepsize.a = 0.02", "pdop.stepsize.a = 10.0")
        path = tmp_path / "div.cfg"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["compare", str(path), "--variants", "alg1,pdop_alg1",
                     "--runs", "2", "--iters", "300",
                     "--output", str(out)]) == 1
        rows = {line.split()[0]: line.split()
                for line in capsys.readouterr().out.split("\n")[1:3]}
        assert rows["pdop_alg1"][1:4] == ["0/2", "-", "-"]
        assert rows["alg1"][1] == "2/2"
        assert float(rows["alg1"][2]) > 0 and float(rows["alg1"][3]) > 0
        summary = (out / "summary.csv").read_text(encoding="utf-8")
        assert "\npdop_alg1,2,0,2,inf,0.0,inf," in summary

    def test_fully_diverged_plot_skipped(self, tmp_path, capsys):
        path = alg1_with(tmp_path, ("run.init_radius = 10.0",
                                    "run.init_radius = 1e300"))
        out = tmp_path / "out"
        assert main(["compare", path, "--variants", "alg1,dgd", "--plot",
                     "--runs", "2", "--iters", "200",
                     "--output", str(out)]) == 1
        assert (out / "summary.csv").exists()
        assert not list(out.glob("*.svg"))
        assert capsys.readouterr().err.startswith(
            "error: every run of alg1 diverged; see failures.csv\n")

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("cfg,variants", [
        ("static_cfg", "alg1,dgd,pdop_alg1"),
        ("tracking_cfg", "alg2,push_pull"),
    ])
    def test_workers_match_one_process(self, cfg, variants, cpus, tmp_path,
                                       request, monkeypatch):
        # The tree compare writes through its worker processes equals
        # one built in this process, variant by variant.
        path = request.getfixturevalue(cfg)
        argv = ["compare", path, "--variants", variants, "--runs", "3",
                "--iters", "120", "--plot", "--output"]
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        assert main(argv + [str(tmp_path / "workers")]) == 0

        config = load_config(path, [
            ("run.monte_carlo", "3"), ("run.iterations", "120"),
            ("run.output_dir", str(tmp_path / "one"))])
        names = variants.split(",")
        setup = build_setup(config, names)
        base = run_directory(config.output_dir)
        results = {
            name: cli._run_variant(config, setup, name,
                                   run_directory(base, name), False, False)
            for name in names
        }
        cli._write_comparison(base, results, plot=True)

        workers, one = tree(tmp_path / "workers"), tree(tmp_path / "one")
        assert "summary.csv" in one and len(one) > 10
        assert workers == one

    def test_without_fork_runs_in_process(self, static_cfg, tmp_path,
                                          monkeypatch):
        # Where os.fork does not exist, the same tree comes from this
        # process.
        argv = ["compare", static_cfg, "--variants", "alg1,dgd,pdop_alg1",
                "--runs", "2", "--iters", "60", "--plot", "--output"]
        assert main(argv + [str(tmp_path / "workers")]) == 0
        monkeypatch.delattr(os, "fork")
        assert main(argv + [str(tmp_path / "one")]) == 0
        assert tree(tmp_path / "workers") == tree(tmp_path / "one")

    @pytest.mark.parametrize("cpus,variants,expected", [
        (1, "alg1,dgd,pdop_alg1", 1),
        (2, "alg1,dgd,pdop_alg1", 2),
        (8, "alg1,dgd", 2),
        (8, "dgd", 1),
    ])
    def test_workers_bounded_by_variants_and_cpus(
        self, static_cfg, tmp_path, monkeypatch, cpus, variants, expected
    ):
        # Recorded in this process: a child is alive from its fork until
        # compare reaps it.
        fork, waitpid = os.fork, os.waitpid
        alive, counts = set(), []

        def recording_fork():
            pid = fork()
            if pid:
                alive.add(pid)
                counts.append(len(alive))
            return pid

        def recording_waitpid(pid, options):
            result = waitpid(pid, options)
            alive.discard(pid)
            return result

        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(os, "waitpid", recording_waitpid)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        assert main(["compare", static_cfg, "--variants", variants,
                     "--runs", "1", "--iters", "30",
                     "--output", str(tmp_path / "out")]) == 0
        assert len(counts) == len(variants.split(","))
        assert max(counts) == expected
        assert not alive

    @pytest.mark.parametrize("first,later,label", [
        (ConditionError, RangeError, "validation error: "),
        (RangeError, ConditionError, "error: "),
    ])
    def test_first_failing_variant_in_order_decides(
        self, static_cfg, tmp_path, capsys, monkeypatch, first, later, label
    ):
        # Two workers: dgd fails at once, alg1 only after a wait.  alg1
        # comes first in --variants, so its error sets stderr and the
        # exit code.  Forked workers inherit the patched batch.
        failures = {"alg1": first("alg1 failed"),
                    "dgd": later("dgd failed")}

        def batch(variant, *args, **kwargs):
            if variant == "alg1":
                time.sleep(0.5)
            raise failures[variant]

        monkeypatch.setattr(cli, "monte_carlo", batch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        code = main(["compare", static_cfg, "--variants", "alg1,dgd",
                     "--runs", "1", "--iters", "30",
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"{label}alg1 failed\n"

    def test_later_variant_error_when_earlier_ones_complete(
        self, static_cfg, tmp_path, capsys, monkeypatch
    ):
        run_batch = cli.monte_carlo

        def batch(variant, *args, **kwargs):
            if variant == "pdop_alg1":
                raise RangeError("pdop_alg1 failed")
            return run_batch(variant, *args, **kwargs)

        monkeypatch.setattr(cli, "monte_carlo", batch)
        out = tmp_path / "out"
        code = main(["compare", static_cfg, "--variants",
                     "alg1,dgd,pdop_alg1", "--runs", "1", "--iters", "30",
                     "--output", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: pdop_alg1 failed\n"
        assert captured.out == ""
        assert not (out / "summary.csv").exists()

    def test_unknown_variant_returns_two(self, static_cfg, tmp_path):
        assert main(["compare", static_cfg, "--variants", "alg1,warp",
                     "--output", str(tmp_path / "out")]) == 2

    def test_no_variants_return_two(self, static_cfg, tmp_path, capsys):
        assert main(["compare", static_cfg, "--variants", ",",
                     "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: at least one variant is required "
            "(key 'variant')\n")

    def test_missing_pdop_block_returns_two(self, tracking_cfg, tmp_path):
        assert main(["compare", tracking_cfg, "--variants", "pdop_push_pull",
                     "--runs", "1", "--iters", "30",
                     "--output", str(tmp_path / "out")]) == 2


def _read(read):
    """read()'s value, or its ConfigError's message without the line
    and key it names."""
    try:
        return read()
    except ConfigError as exc:
        return ("error", str(exc).rsplit(" (", 1)[0])


@settings(max_examples=300, deadline=None)
@given(literal=LITERALS)
@example(literal="9007199254740993")
@example(literal="1e400")
def test_options_read_as_their_keys(literal):
    """--iters and --runs take exactly the literals that their keys take
    in a file, with the same values and messages, and a --horizons token
    the literals that run.iterations takes.  Only configs are built, so
    no size is ever allocated or walked."""
    path = str(CONFIGS / "alg1.cfg")
    text = Path(path).read_text(encoding="utf-8")
    in_file = {}
    for option, key, field in (("--iters", "run.iterations", "iterations"),
                               ("--runs", "run.monte_carlo", "monte_carlo")):
        line = next(x for x in text.splitlines() if x.startswith(key))
        in_file[option] = _read(lambda: getattr(parse_config_text(
            text.replace(line, f"{key} = {literal}")), field))
        # `=` keeps argparse from reading -1e5 as an option.
        args = cli.build_parser().parse_args(
            ["run", path, f"{option}={literal}"])
        assert _read(lambda: getattr(cli._load_config(args), field)) \
            == in_file[option]
    horizons = _read(lambda: cli._parse_horizons(literal))
    if isinstance(in_file["--iters"], int):
        assert horizons == [in_file["--iters"]]
    else:
        assert horizons[0] == "error"


@pytest.mark.parametrize("command,option", [
    ("run", "--runs"), ("run", "--iters"), ("run", "--output"),
    ("budget", "--horizons"), ("budget", "--gradient-bound"),
    ("budget", "--output"), ("compare", "--variants"), ("compare", "--runs"),
    ("compare", "--iters"), ("compare", "--output"),
])
def test_value_options_take_the_next_word(command, option, capsys):
    """Each value option reads the word after it as `--opt=word` does, a
    word such as -1e5 too; with no word after it, argparse's error."""
    path = str(CONFIGS / "alg1.cfg")
    required = {"budget": ["--horizons=10"],
                "compare": ["--variants=alg1"]}.get(command, [])
    parser = cli.build_parser()
    for word in ("-1e5", "-inf", "-1_000", "-x", "--plot", "7"):
        assert parser.parse_args(
            cli._join_values([command, path, *required, option, word])
        ) == parser.parse_args([command, path, *required, f"{option}={word}"])
    with pytest.raises(SystemExit) as exc:
        main([command, path, *required, option])
    assert exc.value.code == 2
    assert f"argument {option}: expected one argument" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["run", "--iters", "-1e5"],
     "value out of range (key 'run.iterations')"),
    (["budget", "--horizons", "-1e3"],
     "expected a horizon of at least 1, got '-1e3' (key '--horizons')"),
    (["budget", "--horizons", "10", "--gradient-bound", "-inf"],
     "expected a finite number, got '-inf' (key 'budget.gradient_bound')"),
])
def test_dash_values_read_as_keys(argv, message, tmp_path, capsys,
                                  monkeypatch):
    monkeypatch.setattr(cli, "monte_carlo", _never)
    command, *options = argv
    assert main([command, str(CONFIGS / "alg1.cfg"), *options,
                 "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def _src_env() -> dict:
    """The environment with this dpopt's src/ first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dpopt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def test_python_dash_m_runs_without_warning(static_cfg):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dpopt", "validate", static_cfg],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "overall: pass" in proc.stdout
    assert proc.stderr == ""


def test_python_dash_m_compare_runs_without_warning(static_cfg, tmp_path):
    # Forking the workers raises no warning either.
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dpopt", "compare", static_cfg,
         "--variants", "alg1,dgd", "--runs", "2", "--iters", "60",
         "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "outputs in" in proc.stdout
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ["run", "--plot"], ["compare", "--variants", "alg1,dgd", "--plot"],
])
def test_fully_diverged_batch_writes_only_errors(argv, tmp_path, capfd):
    # Every run starts past the divergence threshold.  Neither this
    # process nor a forked worker writes a numpy warning, and no summary
    # of a final record is printed, as no run reached one.
    path = alg1_with(tmp_path, ("run.init_radius = 10.0",
                                "run.init_radius = 1e300"))
    command, *options = argv
    proc = subprocess.run(
        [sys.executable, "-m", "dpopt", command, path, *options, "--runs",
         "2", "--iters", "200", "--output", str(tmp_path / "out")],
        env=_src_env(), timeout=120,
    )
    assert proc.returncode == 1
    out, err = capfd.readouterr()
    assert err and all(line.startswith("error: ")
                       for line in err.splitlines()), err
    assert "final gap mean" not in out and "budget bound at" not in out


@pytest.mark.parametrize("argv", [
    ["budget", "--horizons", "10,100"],
    ["run", "--runs", "2", "--iters", "200"],
])
def test_overflowing_noise_scale_stops_the_accountant(argv, tmp_path):
    # 1e308 * k^0.3 passes the float range at k = 8.  An infinite noise
    # scale is not free: the command stops there with its reason, and
    # numpy writes no overflow warning.
    path = alg1_with(tmp_path, ("noise.scale.b = 0.1",
                                "noise.scale.b = 1e308"))
    command, *options = argv
    proc = subprocess.run(
        [sys.executable, "-m", "dpopt", command, path, *options,
         "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: noise scale not finite at k = 8: ")
    assert proc.stderr.count("\n") == 1
    assert tree(tmp_path / "out") == {}


def test_overflowing_noise_scale_fails_validate(tmp_path):
    path = alg1_with(tmp_path, ("noise.scale.b = 0.1",
                                "noise.scale.b = 1e308"))
    proc = subprocess.run(
        [sys.executable, "-m", "dpopt", "validate", path],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert "FAIL  budget_finite_through_horizon" in proc.stdout


def test_zero_noise_coefficient_is_a_constant_scale(tmp_path):
    # b = 0 makes the noise scale the constant a, also from k = 6 on,
    # where k^400 passes the float range.
    path = alg1_with(tmp_path, ("noise.scale.b = 0.1", "noise.scale.b = 0"),
                     ("noise.scale.p = 0.3", "noise.scale.p = 400"))
    proc = subprocess.run(
        [sys.executable, "-m", "dpopt", "budget", path, "--horizons", "100",
         "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "budget series diverges" in proc.stdout


def test_steep_coupling_runs_without_warning(tmp_path):
    # 0.1 k^400 passes the float range from k = 6, where the coupling
    # reads its limit 0 and numpy writes no overflow warning.
    path = alg1_with(tmp_path, ("schedules.coupling.p = 0.9",
                                "schedules.coupling.p = 400"))
    proc = subprocess.run(
        [sys.executable, "-m", "dpopt", "run", path, "--force", "--runs", "2",
         "--iters", "200", "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["budget", "--horizons", "10,1000"],
    ["run", "--runs", "2", "--iters", "200"],
    ["compare", "--variants", "alg1,dgd,pdop_alg1", "--runs", "2",
     "--iters", "200"],
])
def test_overflowing_budget_total_stops_the_accountant(argv, tmp_path):
    # At a gradient bound of 1e308 each alg1 term is finite, but their
    # running total passes the float range at k = 56: the command stops
    # there with its reason instead of a numpy warning and an inf cell.
    path = alg1_with(tmp_path, ("budget.gradient_bound = 1.0",
                                "budget.gradient_bound = 1e308"))
    command, *options = argv
    proc = subprocess.run(
        [sys.executable, "-m", "dpopt", command, path, *options,
         "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == ("error: conservative budget running total not "
                           "finite at k = 56: its terms sum past the float "
                           "range\n")


def test_overflowing_budget_total_fails_validate(tmp_path):
    path = alg1_with(tmp_path, ("budget.gradient_bound = 1.0",
                                "budget.gradient_bound = 1e308"))
    proc = subprocess.run(
        [sys.executable, "-m", "dpopt", "validate", path],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert "FAIL  budget_finite_through_horizon" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["run"], ["compare", "--variants", "alg1,dgd"],
])
def test_infinite_gradient_batch_writes_only_errors(argv, tmp_path):
    # Observation noise of 1e308 puts the gradient's constant term past
    # the float range, so every run diverges; neither the gradient nor a
    # 0 * inf budget cell writes a numpy warning.
    path = alg1_with(tmp_path, ("problem.noise_std = 1.0",
                                "problem.noise_std = 1e308"))
    command, *options = argv
    proc = subprocess.run(
        [sys.executable, "-m", "dpopt", command, path, *options, "--runs",
         "2", "--iters", "200", "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr and all(line.startswith("error: every run of ")
                               for line in proc.stderr.splitlines()), \
        proc.stderr


def test_table_headers_pinned(static_cfg, tmp_path):
    # The header line of each of the six tables, byte for byte.
    out = tmp_path / "out"
    assert main(["compare", static_cfg, "--variants", "alg1", "--runs", "1",
                 "--iters", "60", "--output", str(out)]) == 0
    assert main(["budget", static_cfg, "--horizons", "100",
                 "--output", str(out / "budget")]) == 0
    headers = {
        "alg1/run_000.csv":
            b"k,consensus,gap,dist_opt,tracking,epsilon_partial\n",
        "alg1/aggregate.csv":
            b"k,mean_gap,var_gap,mean_consensus,var_consensus,"
            b"mean_tracking,var_tracking,epsilon_partial\n",
        "alg1/failures.csv": b"run,seed,diverged_at,magnitude\n",
        "alg1/budget.csv":
            b"horizon,epsilon_bound,epsilon_envelope,tail_envelope,"
            b"summable\n",
        "budget/breakdown.csv": b"k,varsigma,per_term,epsilon_partial\n",
        "summary.csv":
            b"variant,runs,completed,failures,mean_final_gap,se_final_gap,"
            b"mean_final_consensus,epsilon_bound,epsilon_envelope\n",
    }
    for name, header in headers.items():
        assert (out / name).read_bytes().startswith(header), name


def test_compare_with_wrapped_command(static_cfg, tmp_path):
    # A tracer or profiler may wrap cmd_compare in a closure, which
    # pickle cannot send; only plain values go to the workers.
    script = f"""
from dpopt import cli

inner = cli.cmd_compare
def wrapped(args):
    return inner(args)
cli.cmd_compare = wrapped
raise SystemExit(cli.main(["compare", {static_cfg!r}, "--variants",
                           "alg1,dgd", "--runs", "1", "--iters", "30",
                           "--output", {str(tmp_path / "out")!r}]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "summary.csv").exists()


def _ended(pid: int) -> bool:
    """True once pid has exited (gone, or a zombie nobody reaped)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_end_with_a_killed_parent(static_cfg, tmp_path):
    # Each worker records its pid and blocks in its batch; killing the
    # parent outright must not leave them behind.
    script = f"""
import os, time
from dpopt import cli

def batch(variant, *args, **kwargs):
    with open(os.path.join({str(tmp_path)!r}, f"{{variant}}.pid"), "w") as fh:
        fh.write(str(os.getpid()))
    time.sleep(120)

cli.monte_carlo = batch
os.sched_getaffinity = lambda pid: {{0, 1}}
cli.main(["compare", {static_cfg!r}, "--variants", "alg1,dgd", "--runs",
          "1", "--iters", "30", "--output", {str(tmp_path / "out")!r}])
"""
    parent = subprocess.Popen([sys.executable, "-c", script],
                              env=_src_env(), stderr=subprocess.DEVNULL)
    paths = [tmp_path / f"{variant}.pid" for variant in ("alg1", "dgd")]
    try:
        deadline = time.monotonic() + 60
        while not all(p.exists() and p.read_text() for p in paths):
            assert time.monotonic() < deadline, "workers did not start"
            assert parent.poll() is None, "compare exited early"
            time.sleep(0.05)
    finally:
        parent.kill()
        parent.wait(timeout=30)
    workers = [int(p.read_text()) for p in paths]
    deadline = time.monotonic() + 30
    try:
        while not all(_ended(pid) for pid in workers):
            assert time.monotonic() < deadline, "workers outlived the parent"
            time.sleep(0.05)
    finally:
        for pid in workers:
            if not _ended(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_end_with_an_interrupted_parent(static_cfg, tmp_path):
    # SIGINT to compare alone: its KeyboardInterrupt kills and reaps the
    # workers before it exits.
    script = f"""
import os, time
from dpopt import cli

def batch(variant, *args, **kwargs):
    with open(os.path.join({str(tmp_path)!r}, f"{{variant}}.pid"), "w") as fh:
        fh.write(str(os.getpid()))
    time.sleep(120)

cli.monte_carlo = batch
os.sched_getaffinity = lambda pid: {{0, 1}}
cli.main(["compare", {static_cfg!r}, "--variants", "alg1,dgd", "--runs",
          "1", "--iters", "30", "--output", {str(tmp_path / "out")!r}])
"""
    parent = subprocess.Popen([sys.executable, "-c", script],
                              env=_src_env(), stderr=subprocess.DEVNULL)
    paths = [tmp_path / f"{variant}.pid" for variant in ("alg1", "dgd")]
    try:
        deadline = time.monotonic() + 60
        while not all(p.exists() and p.read_text() for p in paths):
            assert time.monotonic() < deadline, "workers did not start"
            assert parent.poll() is None, "compare exited early"
            time.sleep(0.05)
        parent.send_signal(signal.SIGINT)
        parent.wait(timeout=30)
    finally:
        parent.kill()
        parent.wait(timeout=30)
    workers = [int(p.read_text()) for p in paths]
    try:
        assert all(_ended(pid) for pid in workers)
    finally:
        for pid in workers:
            if not _ended(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("end,reason", [
    ("os.kill(os.getpid(), signal.SIGKILL)", "ended by signal 9"),
    ("os._exit(3)", "ended with exit code 3 and no result"),
])
def test_worker_ended_without_a_result(static_cfg, tmp_path, end, reason):
    # dgd's worker ends in its batch with nothing sent back: one error
    # line naming the variant, exit 1, no traceback and no worker left.
    # alg1, already running, finishes and keeps its files.
    out = tmp_path / "out"
    script = f"""
import os, signal
from dpopt import cli

run_batch = cli.monte_carlo
def batch(variant, *args, **kwargs):
    with open(os.path.join({str(tmp_path)!r}, f"{{variant}}.pid"), "w") as fh:
        fh.write(str(os.getpid()))
    if variant == "dgd":
        {end}
    return run_batch(variant, *args, **kwargs)

cli.monte_carlo = batch
os.sched_getaffinity = lambda pid: {{0, 1}}
raise SystemExit(cli.main(["compare", {static_cfg!r}, "--variants",
                           "alg1,dgd", "--runs", "1", "--iters", "30",
                           "--output", {str(out)!r}]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_src_env(), timeout=120)
    workers = [int((tmp_path / f"{variant}.pid").read_text())
               for variant in ("alg1", "dgd")]
    assert all(_ended(pid) for pid in workers)
    assert proc.returncode == 1
    assert proc.stderr == f"error: worker for variant dgd {reason}\n"
    assert proc.stdout == ""
    assert (out / "alg1" / "aggregate.csv").exists()
    assert not (out / "summary.csv").exists()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="notes print")
def test_worker_traceback_shown(static_cfg, tmp_path):
    # An unexpected error in a worker prints with the worker's frames.
    script = f"""
from dpopt import cli

def failing_batch(variant, *args, **kwargs):
    raise ValueError("unexpected")

cli.monte_carlo = failing_batch
cli.main(["compare", {static_cfg!r}, "--variants", "alg1,dgd", "--runs",
          "1", "--iters", "30", "--output", {str(tmp_path / "out")!r}])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 1
    assert "in the worker:" in proc.stderr
    assert "in failing_batch" in proc.stderr
    assert proc.stderr.count("ValueError: unexpected") == 2


def test_unflushed_line_printed_once(static_cfg, tmp_path):
    # stdout to a pipe is block-buffered: a line still in its buffer at
    # the fork must not be written again by a worker.
    script = f"""
from dpopt import cli

print("before compare")
raise SystemExit(cli.main(["compare", {static_cfg!r}, "--variants",
                           "alg1,dgd", "--runs", "1", "--iters", "30",
                           "--output", {str(tmp_path / "out")!r}]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("before compare\n") == 1
    assert proc.stdout.startswith("before compare\n")


def test_compare_loads_no_process_pool(static_cfg, tmp_path):
    # compare forks its workers with os alone.
    script = f"""
import sys
from dpopt import cli

assert cli.main(["compare", {static_cfg!r}, "--variants", "alg1,dgd",
                 "--runs", "1", "--iters", "30",
                 "--output", {str(tmp_path / "out")!r}]) == 0
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("multiprocessing", "concurrent")))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
