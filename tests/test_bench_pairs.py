"""tools/bench_pairs.py's summary of alternating benchmark pairs."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def side(wall, rss=40.0, setup=0.1, mismatches=0):
    metrics = {"setup_s": setup, "wall_s": wall, "peak_rss_mb": rss}
    return {
        "result": {"correct": True, "attempted": 5, "failed": 0,
                   "metrics": {k: {"value": v, "unit": ""}
                               for k, v in metrics.items()}},
        "wall_samples_s": [wall], "ref_max_rel_err": 0.0,
        "digest_mismatches": mismatches,
    }


def test_summary_counts_wins_ties_and_ratio():
    walls = [(1.0, 0.8), (1.2, 0.9), (1.1, 1.1), (0.9, 1.0)]
    pairs = [{"parent": side(p), "change": side(c, mismatches=1)}
             for p, c in walls]
    pairs.append({"parent": side(1.0), "change": {"error": "exit 1"}})
    summary = bench_pairs.summarize(pairs, seed=7)
    assert summary["pairs"] == 4 and summary["errors"] == 1
    wall = summary["wall_s"]
    assert wall["change_wins"] == 2 and wall["ties"] == 1
    assert wall["parent"]["median"] == pytest.approx(1.05)
    assert wall["change"]["median"] == pytest.approx(0.95)
    # Inclusive quartiles of 0.9, 1.0, 1.1, 1.2.
    assert wall["parent"]["q1"] == pytest.approx(0.975)
    assert wall["parent"]["q3"] == pytest.approx(1.125)
    assert wall["median_ratio_change_over_parent"] == pytest.approx(0.95 / 1.05)
    assert summary["peak_rss_mb"]["ties"] == 4
    assert summary["all_correct"] and summary["failed"] == 0
    assert summary["digest_mismatches"] == {"parent": [0], "change": [1]}


def test_summary_needs_two_completed_pairs():
    summary = bench_pairs.summarize([{"parent": side(1.0),
                                      "change": side(0.9)}], seed=3)
    assert summary == {"seed": 3, "pairs": 1, "errors": 0}


def test_paths_of_unequal_length_exit_two(tmp_path, monkeypatch, capsys):
    # Nothing runs: the lengths are checked before the first pair.
    def refuse(*args, **kwargs):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_side", refuse)
    parent, change = tmp_path / "p", tmp_path / "ch"
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--out", str(out)])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert f"{parent} ({len(str(parent))} characters)" in err
    assert f"{change} ({len(str(change))} characters)" in err
    assert not out.exists()
