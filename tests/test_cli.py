import os
import subprocess
import sys
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import pytest

from test_config import STATIC_TEXT, TRACKING_TEXT

import dpopt
from dpopt.cli import main
from dpopt.config import build_setup, load_config
from dpopt.harness import budget_account, write_breakdown, write_budget

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

PDOP_BLOCK = """
pdop.stepsize.form = geometric
pdop.stepsize.a = 0.02
pdop.stepsize.r = 0.995
pdop.noise.form = geometric
pdop.noise.a = 0.118619
pdop.noise.r = 0.999
"""


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

    def test_missing_file_returns_two(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_config_returns_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("variant = alg1\nwhat\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 2


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

    def test_coupling_growing_past_contraction_returns_one(self, tmp_path,
                                                           capsys):
        # Noiseless with a growing coupling, the schedule conditions
        # hold, but gamma^k grows past the contraction limit: validate
        # fails on the coupling's peak, and a forced run stops in time.
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
        assert main(["validate", str(path)]) == 1
        code = main(["run", str(path), "--runs", "1", "--force",
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert "gamma too large" in capsys.readouterr().err

    def test_plot_writes_svgs(self, static_cfg, tmp_path):
        out = str(tmp_path / "out")
        code = main(["run", static_cfg, "--runs", "2", "--iters", "60",
                     "--output", out, "--plot"])
        assert code == 0
        for name in ("gap.svg", "consensus.svg"):
            text = open(os.path.join(out, name), encoding="utf-8").read()
            ElementTree.fromstring(text)

    def test_tracking_plot_includes_tracking_svg(self, tracking_cfg, tmp_path):
        out = str(tmp_path / "out")
        code = main(["run", tracking_cfg, "--runs", "2", "--iters", "60",
                     "--output", out, "--plot"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "tracking.svg"))

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
        lines = open(os.path.join(out, "failures.csv"),
                     encoding="utf-8").read().strip().split("\n")
        assert len(lines) == 3
        captured = capsys.readouterr()
        assert "2 diverged" in captured.out
        assert "every run of dgd diverged" in captured.err

    def test_non_finite_budget_term_returns_one(self, tmp_path, capsys):
        # pdop noise 0.118619 * 0.01^k is subnormal by k = 155, where the
        # budget term overflows: validate passes, and run stops there
        # with its reason instead of writing inf budget cells.
        text = (STATIC_TEXT + PDOP_BLOCK).replace(
            "variant = alg1", "variant = pdop_alg1"
        ).replace("pdop.noise.r = 0.999", "pdop.noise.r = 0.01")
        path = tmp_path / "underflow.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "out"
        code = main(["run", str(path), "--runs", "2", "--iters", "300",
                     "--output", str(out)])
        assert code == 1
        assert "conservative budget term not finite at k = 155" \
            in capsys.readouterr().err
        assert os.listdir(out) == []

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
        failures = open(os.path.join(out, "failures.csv"),
                        encoding="utf-8").read().strip().split("\n")[1:]
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


class TestBudget:
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
        rows = budget_account(config.variant, setup, bound,
                              [1000, 10000, 100000]).rows
        write_budget(str(ref / "budget.csv"), rows)
        write_breakdown(str(ref / "breakdown.csv"), budget_account(
            config.variant, setup, bound, [100000]).conservative)
        for name in ("budget.csv", "breakdown.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

        decade = budget_account(config.variant, setup, bound,
                                [10000]).rows[0]
        growth = (rows[-1].envelope - decade.envelope) / decade.envelope
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
        lines = open(os.path.join(out, "summary.csv"),
                     encoding="utf-8").read().strip().split("\n")
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
                open(os.path.join(out, name), encoding="utf-8").read()
            )

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

        def files(base):
            found = {}
            for root, _, names in os.walk(base):
                for name in names:
                    full = os.path.join(root, name)
                    with open(full, "rb") as handle:
                        found[os.path.relpath(full, base)] = handle.read()
            return found

        first, second = files(outs[0]), files(outs[1])
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

    def test_unknown_variant_returns_two(self, static_cfg, tmp_path):
        assert main(["compare", static_cfg, "--variants", "alg1,warp",
                     "--output", str(tmp_path / "out")]) == 2

    def test_missing_pdop_block_returns_two(self, tracking_cfg, tmp_path):
        assert main(["compare", tracking_cfg, "--variants", "pdop_push_pull",
                     "--runs", "1", "--iters", "30",
                     "--output", str(tmp_path / "out")]) == 2


def test_python_dash_m_runs_without_warning(static_cfg):
    src = os.path.dirname(os.path.dirname(os.path.abspath(dpopt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dpopt", "validate", static_cfg],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "overall: pass" in proc.stdout
    assert proc.stderr == ""
