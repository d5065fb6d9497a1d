import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import make_setup
from oracles import format_value

from dpopt.config import build_setup, load_config
from dpopt.errors import ConfigError, RangeError
from dpopt.harness import (
    CSV_BLOCK,
    Aggregate,
    BudgetRow,
    aggregate,
    budget_account,
    format_column,
    monte_carlo,
    run_directory,
    write_aggregate,
    write_breakdown,
    write_budget,
    write_csv,
    write_failures,
    write_trace,
)
from dpopt.noise import derive_seed
from dpopt.privacy import asymptotic_budget, conservative_budget
from dpopt.schedules import PowerSchedule, ScheduleSet
from dpopt.solvers import RunSetup, effective_schedules, run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def diverging_setup():
    base = make_setup("static", noise=False)
    return RunSetup(
        base.problem, ScheduleSet(stepsize=PowerSchedule.constant(10.0)),
        consensus=base.consensus,
    )


# The special floats every cell test writes.
SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308)


def csv_bytes(columns: dict) -> bytes:
    """The table write_csv should give, each cell from the oracle."""
    lines = [",".join(columns)] + [
        ",".join(map(format_value, row)) for row in zip(*columns.values())
    ]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def float32(values) -> np.ndarray:
    # 1e308 and 5e-324 round to inf and 0 in float32, as intended.
    with np.errstate(over="ignore", under="ignore"):
        return np.array(values, dtype=np.float32)


@st.composite
def tables(draw):
    """Float64, float32, int64 and str columns, one block long, one row
    short of it or one row past it, with the special floats mixed in."""
    n = draw(st.sampled_from((CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1)))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    floats = st.one_of(st.sampled_from(SPECIAL), st.floats())
    return {
        "f64": np.array(column(floats), dtype=np.float64),
        "f32": float32(column(floats)),
        "i64": np.array(column(st.integers(-2**63, 2**63 - 1)),
                        dtype=np.int64),
        "s": np.array(column(st.text("abcxyz_-.0123456789", max_size=6))),
    }


class TestFormatting:
    def test_float_cells_round_trip(self):
        values = np.array([0.1, 1e-17, 3.0, math.inf, 123456.789012345])
        assert [float(cell) for cell in format_column(values)] \
            == values.tolist()

    def test_int_and_string_cells(self):
        assert format_column(np.array([7, -7], dtype=np.int64)) \
            == ["7", "-7"]
        assert format_column(np.array(["yes", "no"])) == ["yes", "no"]

    def test_write_csv_layout(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, {"a": [1, 2], "b": [0.5, 0.25]})
        text = Path(path).read_text(encoding="utf-8")
        assert text == "a,b\n1,0.5\n2,0.25\n"
        write_csv(path, {"a": [], "b": []})
        assert Path(path).read_text(encoding="utf-8") == "a,b\n"

    def test_columns_match_format_value_bytes(self, tmp_path):
        # Long enough to span several write blocks, and end inside one.
        floats = np.tile([*SPECIAL, 0.1, -1.5e-17, 123456.789012345], 30)
        columns = {
            "i": np.arange(len(floats), dtype=np.int64) * 10**15 - 7,
            "f": floats,
            "s": np.array(["yes", "no"] * (len(floats) // 2)),
            "g": np.linspace(-1.0, 1.0, len(floats), dtype=np.float32),
        }
        path = tmp_path / "columns.csv"
        write_csv(str(path), columns)
        assert path.read_bytes() == csv_bytes(columns)

    # Without shrinking: shrinking 129-row tables took minutes on a
    # broken writer, and the first failing table shows the fault.
    @settings(max_examples=60, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(columns=tables())
    def test_cells_match_the_oracle(self, columns, tmp_path_factory):
        path = tmp_path_factory.mktemp("cells") / "t.csv"
        write_csv(str(path), columns)
        assert path.read_bytes() == csv_bytes(columns)


class TestMonteCarlo:
    def test_seeds_derive_from_index(self):
        setup = make_setup("static")
        traces = monte_carlo("alg1", setup, iterations=30, base_seed=9,
                             n_runs=3)
        singles = [
            run("alg1", setup, 30, derive_seed(9, i)) for i in range(3)
        ]
        for t, s in zip(traces, singles):
            assert np.array_equal(t.gap, s.gap)

    def test_rerun_is_identical(self):
        setup = make_setup("static")
        a = monte_carlo("alg1", setup, 30, base_seed=9, n_runs=2)
        b = monte_carlo("alg1", setup, 30, base_seed=9, n_runs=2)
        for t, s in zip(a, b):
            assert np.array_equal(t.gap, s.gap)

    def test_seed_halves_agree_within_pooled_error(self):
        # Two disjoint seed groups estimate the same mean final gap; the
        # difference should sit within a few pooled standard errors.
        setup = make_setup("static", init_radius=10.0)
        traces = monte_carlo("alg1", setup, 500, base_seed=1, n_runs=100)
        finals = np.array([t.final_gap for t in traces])
        a, b = finals[:50], finals[50:]
        pooled = math.sqrt(a.var(ddof=1) / 50 + b.var(ddof=1) / 50)
        assert abs(a.mean() - b.mean()) < 3.0 * pooled


class TestAggregate:
    def test_matches_manual_statistics(self):
        setup = make_setup("static")
        traces = monte_carlo("alg1", setup, 40, base_seed=3, n_runs=5)
        agg = aggregate("alg1", traces, base_seed=3)
        stack = np.vstack([t.gap for t in traces])
        assert np.allclose(agg.mean_gap, stack.mean(axis=0))
        assert np.allclose(agg.var_gap, stack.var(axis=0, ddof=1))
        assert agg.requested == 5 and agg.completed == 5
        assert agg.final_gaps.shape == (5,)

    def test_single_run_has_zero_variance(self):
        setup = make_setup("static")
        traces = monte_carlo("alg1", setup, 40, base_seed=3, n_runs=1)
        agg = aggregate("alg1", traces, base_seed=3)
        assert np.all(agg.var_gap == 0.0)
        assert np.allclose(agg.mean_gap, traces[0].gap)
        assert agg.se_final_gap == 0.0

    def test_failures_are_counted_and_seeded(self):
        traces = monte_carlo("dgd", diverging_setup(), 200, base_seed=5,
                             n_runs=4)
        agg = aggregate("dgd", traces, base_seed=5)
        assert agg.requested == 4
        assert agg.completed + len(agg.failures) == 4
        assert len(agg.failures) == 4
        for i, f in enumerate(agg.failures):
            assert f.run_index == i
            assert f.seed == derive_seed(5, i)
            assert f.diverged_at is not None
        # All-diverged batches still aggregate over the k = 0 record.
        assert agg.ks[-1] == 0
        assert agg.mean_final_gap == np.inf

    def test_mixed_batch_aggregates_completed_only(self):
        setup = make_setup("static")
        good = monte_carlo("alg1", setup, 40, base_seed=3, n_runs=3)
        bad = monte_carlo("dgd", diverging_setup(), 200, base_seed=5, n_runs=1)
        traces = good + bad
        agg = aggregate("alg1", traces, base_seed=3)
        assert agg.requested == 4
        assert agg.completed == 3
        stack = np.vstack([t.gap for t in good])
        assert np.allclose(agg.mean_gap, stack.mean(axis=0))
        assert np.isinf(agg.final_gaps[-1])
        assert np.isfinite(agg.se_final_gap)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            aggregate("alg1", [], base_seed=0)


class TestWriters:
    def test_trace_csv_round_trip(self, tmp_path):
        setup = make_setup("static")
        trace = run("alg1", setup, 40, seed=2)
        path = str(tmp_path / "run_000.csv")
        write_trace(path, trace)
        lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "k,consensus,gap,dist_opt,tracking,epsilon_partial"
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == trace.consensus[0]

    def test_aggregate_csv_byte_stable(self, tmp_path):
        setup = make_setup("static")
        traces = monte_carlo("alg1", setup, 40, base_seed=3, n_runs=3)
        agg = aggregate("alg1", traces, base_seed=3)
        p1 = str(tmp_path / "a1.csv")
        p2 = str(tmp_path / "a2.csv")
        write_aggregate(p1, agg)
        traces2 = monte_carlo("alg1", setup, 40, base_seed=3, n_runs=3)
        write_aggregate(p2, aggregate("alg1", traces2, base_seed=3))
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
        assert Path(p1).read_bytes().startswith(
            b"k,mean_gap,var_gap,mean_consensus,var_consensus,"
            b"mean_tracking,var_tracking,epsilon_partial\n")

    def test_failures_csv_written_even_when_empty(self, tmp_path):
        setup = make_setup("static")
        traces = monte_carlo("alg1", setup, 40, base_seed=3, n_runs=2)
        agg = aggregate("alg1", traces, base_seed=3)
        path = str(tmp_path / "failures.csv")
        write_failures(path, agg)
        text = Path(path).read_text(encoding="utf-8")
        assert text == "run,seed,diverged_at,magnitude\n"

    def test_failures_csv_rows(self, tmp_path):
        traces = monte_carlo("dgd", diverging_setup(), 200, base_seed=5,
                             n_runs=2)
        agg = aggregate("dgd", traces, base_seed=5)
        path = str(tmp_path / "failures.csv")
        write_failures(path, agg)
        lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 3
        run_idx, seed, diverged_at, magnitude = lines[1].split(",")
        assert int(run_idx) == 0
        assert int(seed) == derive_seed(5, 0)
        assert int(diverged_at) >= 1
        assert float(magnitude) > 0

    def test_run_directory_creates_nested(self, tmp_path):
        base = str(tmp_path / "out")
        path = run_directory(base, "alg1")
        assert os.path.isdir(path)
        assert path.endswith(os.path.join("out", "alg1"))
        assert run_directory(base) == base


class TestBudgetReport:
    def test_static_rows(self):
        setup = make_setup("static")
        rows = budget_account("alg1", setup, 1.0, [100, 1000]).rows
        assert [r.horizon for r in rows] == [100, 1000]
        sch = effective_schedules("alg1", setup)
        series = conservative_budget(sch, setup.consensus, 1.0, 1000)
        assert rows[0].conservative == pytest.approx(series.epsilon_at(100))
        assert rows[1].conservative == pytest.approx(series.epsilon_at(1000))
        assert rows[0].envelope < rows[1].envelope
        assert rows[0].tail > rows[1].tail
        assert all(r.summable for r in rows)

    def test_tracking_rows_use_double_messages(self):
        setup = make_setup("tracking")
        rows = budget_account("alg2", setup, 1.0, [1000]).rows
        static = make_setup("static")
        srows = budget_account("alg1", static, 1.0, [1000]).rows
        # Same stepsize; the tracking envelope carries twice the message
        # count but a weaker noise growth, so just sanity-check signs.
        assert rows[0].envelope > 0
        assert rows[0].conservative > srows[0].conservative

    def test_unsorted_horizons_are_sorted(self):
        setup = make_setup("static")
        rows = budget_account("alg1", setup, 1.0, [1000, 10, 100]).rows
        assert [r.horizon for r in rows] == [10, 100, 1000]

    def test_noiseless_setup_rejected(self):
        setup = make_setup("static", noise=False)
        with pytest.raises(ConfigError):
            budget_account("alg1", setup, 1.0, [100]).rows

    def test_bad_horizons_rejected(self):
        setup = make_setup("static")
        with pytest.raises(ConfigError):
            budget_account("alg1", setup, 1.0, []).rows
        with pytest.raises(ConfigError):
            budget_account("alg1", setup, 1.0, [0, 10]).rows

    def test_divergent_envelope_marked(self):
        # A constant noise scale cannot pay for a stepsize whose sum
        # diverges: the tail is infinite and summable flips off.
        base = make_setup("static")
        sch = ScheduleSet(
            stepsize=base.schedules.stepsize,
            coupling=base.schedules.coupling,
            noise_scale=PowerSchedule.constant(1.0),
        )
        setup = RunSetup(base.problem, sch, consensus=base.consensus)
        rows = budget_account("alg1", setup, 1.0, [100]).rows
        assert not rows[0].summable
        assert rows[0].tail == math.inf

    def test_series_kept_where_they_are_read(self):
        # The envelope is read at the horizons and each horizon // 10;
        # the conservative series also at the breakdown grid.  The kept
        # values are the full series' bits.
        setup = make_setup("static")
        account = budget_account("alg1", setup, 1.0, [25_000, 7, 300])
        assert account.envelope.ks.tolist() == [7, 30, 300, 2_500, 25_000]
        grid = np.arange(1, 25_001, 2).tolist() + [25_000]
        assert account.conservative.ks.tolist() == sorted(
            {*grid, 7, 30, 300, 2_500})
        sch = effective_schedules("alg1", setup)
        full = asymptotic_budget(sch.stepsize, sch.noise_scale, 1.0, 25_000)
        for k, value in zip(account.envelope.ks,
                            account.envelope.epsilon_partial):
            assert value == full.epsilon_at(int(k))
        full = conservative_budget(sch, setup.consensus, 1.0, 25_000)
        idx = account.conservative.ks - 1
        for name in ("varsigma", "per_term", "epsilon_partial"):
            assert np.array_equal(getattr(account.conservative, name),
                                  getattr(full, name)[idx])

    @pytest.mark.parametrize("config", ["alg1", "alg2"])
    def test_account_to_a_million_stays_under_one_mib(self, config):
        # Walked in blocks, each dropped before the next, with ~10,000
        # kept k's for the breakdown: the kept grid and the series set
        # the peak, about 0.7 MiB here, not the horizon.
        cfg = load_config(str(CONFIGS / f"{config}.cfg"))
        setup = build_setup(cfg)
        tracemalloc.start()
        try:
            budget_account(cfg.variant, setup, cfg.gradient_bound,
                           [10**4, 10**5, 10**6])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_budget_csv(self, tmp_path):
        setup = make_setup("static")
        rows = budget_account("alg1", setup, 1.0, [100, 1000]).rows
        path = str(tmp_path / "budget.csv")
        write_budget(path, rows)
        lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "horizon,epsilon_bound,epsilon_envelope,tail_envelope,summable"
        assert lines[1].endswith(",yes")
        assert int(lines[1].split(",")[0]) == 100

    def test_breakdown_strides_and_keeps_last_row(self, tmp_path):
        setup = make_setup("static")
        path = str(tmp_path / "breakdown.csv")
        write_breakdown(path, budget_account("alg1", setup, 1.0, [25_000])
                        .conservative)
        lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "k,varsigma,per_term,epsilon_partial"
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ks[0] == 1
        assert ks[-1] == 25_000
        # 25,000 rows over at most 10,000: every second k, plus the last.
        assert ks[1] - ks[0] == 2
        assert len(ks) == 12_501
        sch = effective_schedules("alg1", setup)
        series = conservative_budget(sch, setup.consensus, 1.0, 25_000)
        last = lines[-1].split(",")
        assert float(last[3]) == pytest.approx(series.epsilon_total)
        # The full series gives the same file as the account's kept one.
        full = str(tmp_path / "full.csv")
        write_breakdown(full, series)
        assert Path(full).read_bytes() == Path(path).read_bytes()

    def test_breakdown_needs_its_grid(self, tmp_path):
        setup = make_setup("static")
        sch = effective_schedules("alg1", setup)
        series = conservative_budget(sch, setup.consensus, 1.0, 25_000,
                                     keep=[2_500, 25_000])
        with pytest.raises(RangeError, match="breakdown grid"):
            write_breakdown(str(tmp_path / "breakdown.csv"), series)
