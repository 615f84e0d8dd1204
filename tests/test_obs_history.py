"""Tests for the committed perf ledger (``repro.obs.history`` + CLI).

Covers entry construction from a bench document's flat ``metrics``
map (including the committed ``BENCH_scaling.json``), JSONL round-trip
with loud failure on malformed lines, the rolling-median regression
check, the history renderer, and the ``repro obs history`` CLI exit
codes.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.history import (LEDGER_KIND, append_entry, check_latest,
                               entry_from_measurement, load_ledger,
                               render_history)


def _measurement(wall=1.5):
    return {
        "rows": {"ladder/0.05/plain/0": {"wall_seconds": wall}},
        "metrics": {"wall_seconds/0.05": wall,
                    "peak_rss_bytes/0.05": 1000.0,
                    "rebuild_seconds": 0.2,
                    "solve_powers_repeat_seconds": 0.05},
    }


def _entry(label, **metrics):
    return {"kind": LEDGER_KIND, "recorded_unix": 0.0, "label": label,
            "metrics": metrics}


class TestEntryFromMeasurement:
    def test_copies_flat_metrics_map(self):
        measurement = _measurement()
        measurement["metrics"]["note"] = "not a number"
        measurement["metrics"]["flag"] = True
        entry = entry_from_measurement(measurement, label="run",
                                       recorded_unix=12.0)
        assert entry["kind"] == LEDGER_KIND
        assert entry["recorded_unix"] == 12.0
        assert entry["metrics"] == {
            "wall_seconds/0.05": 1.5,
            "peak_rss_bytes/0.05": 1000.0,
            "rebuild_seconds": 0.2,
            "solve_powers_repeat_seconds": 0.05,
        }

    def test_unknown_metric_names_ride_along(self):
        # only the flat map is read: top-level numbers stay out
        entry = entry_from_measurement(
            {"metrics": {"new_bench_seconds": 3.5}, "available_cpus": 4},
            label="x", recorded_unix=0.0)
        assert entry["metrics"] == {"new_bench_seconds": 3.5}

    def test_nested_sections_are_not_read(self):
        # the per-section shape the bench used to write fails loudly
        # instead of appending an empty or partial entry
        with pytest.raises(ValueError, match="no 'metrics' map"):
            entry_from_measurement(
                {"placement": {"0.05": {"wall_seconds": 1.5}}},
                label="x")

    def test_commit_is_optional(self):
        entry = entry_from_measurement(_measurement(), label="x",
                                       commit="abc123",
                                       recorded_unix=0.0)
        assert entry["commit"] == "abc123"
        entry = entry_from_measurement(_measurement(), label="x",
                                       recorded_unix=0.0)
        assert "commit" not in entry

    def test_empty_measurement_raises(self):
        with pytest.raises(ValueError):
            entry_from_measurement({"notes": "nothing numeric"},
                                   label="x")
        with pytest.raises(ValueError, match="no ledger metrics"):
            entry_from_measurement({"metrics": {"notes": "text"}},
                                   label="x")


class TestLedgerIo:
    def test_append_load_round_trip(self, tmp_path):
        path = tmp_path / "deep" / "ledger.jsonl"
        first = _entry("a", wall=1.0)
        second = _entry("b", wall=2.0)
        append_entry(path, first)
        append_entry(path, second)
        entries = load_ledger(path)
        assert [e["label"] for e in entries] == ["a", "b"]
        assert entries[1]["metrics"] == {"wall": 2.0}

    def test_missing_ledger_is_empty(self, tmp_path):
        assert load_ledger(tmp_path / "absent.jsonl") == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(_entry("a", x=1.0)) + "\n\n\n")
        assert len(load_ledger(path)) == 1

    def test_malformed_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(_entry("a", x=1.0)) + "\n{broken\n")
        with pytest.raises(ValueError, match=r"ledger\.jsonl:2"):
            load_ledger(path)

    def test_foreign_object_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"kind": "something.else"}\n')
        with pytest.raises(ValueError, match="not a repro.bench.entry"):
            load_ledger(path)


class TestCheckLatest:
    def test_fewer_than_two_entries_pass(self):
        assert check_latest([]) == []
        assert check_latest([_entry("a", wall=1.0)]) == []

    def test_within_threshold_passes(self):
        entries = [_entry("a", wall=1.0), _entry("b", wall=1.1)]
        assert check_latest(entries) == []

    def test_over_threshold_regresses(self):
        entries = [_entry("a", wall=1.0), _entry("b", wall=1.5)]
        (reg,) = check_latest(entries)
        assert reg.metric == "wall"
        assert reg.baseline == 1.0
        assert reg.value == 1.5
        assert reg.pct == pytest.approx(50.0)

    def test_baseline_is_rolling_median(self):
        # median of (1.0, 1.0, 10.0) is 1.0: one outlier run does not
        # poison the baseline
        entries = [_entry("a", wall=1.0), _entry("b", wall=10.0),
                   _entry("c", wall=1.0), _entry("d", wall=1.5)]
        (reg,) = check_latest(entries, window=3)
        assert reg.baseline == 1.0

    def test_window_bounds_lookback(self):
        # window=2 sees (4, 6): median 5, +10% passes.  window=3 also
        # sees the old fast run: median(1, 4, 6) = 4, +37.5% regresses.
        entries = [_entry("a", wall=1.0), _entry("b", wall=4.0),
                   _entry("c", wall=6.0), _entry("d", wall=5.5)]
        assert check_latest(entries, window=2) == []
        (reg,) = check_latest(entries, window=3)
        assert reg.metric == "wall"
        assert reg.baseline == 4.0

    def test_new_metric_has_no_baseline(self):
        entries = [_entry("a", wall=1.0),
                   _entry("b", wall=1.0, rss=999.0)]
        assert check_latest(entries) == []

    def test_improvement_passes_one_sided(self):
        entries = [_entry("a", wall=2.0), _entry("b", wall=0.1)]
        assert check_latest(entries) == []


class TestRenderHistory:
    def test_empty_ledger(self):
        assert render_history([]) == "ledger is empty"

    def test_summary_lists_all_entries(self):
        entries = [_entry("seed", wall=1.0, rss=2.0)]
        entries[0]["commit"] = "abcdef0123456789"
        text = render_history(entries)
        assert "seed" in text
        assert "abcdef012345" in text  # truncated to 12 chars
        assert "2" in text  # metric count

    def test_metric_trajectory(self):
        entries = [_entry("a", wall=1.0), _entry("b", other=2.0)]
        text = render_history(entries, metric="wall")
        lines = text.splitlines()
        assert lines[1].endswith("1")
        assert lines[2].endswith("n/a")


class TestObsHistoryCli:
    def test_append_then_check(self, capsys, tmp_path):
        ledger = str(tmp_path / "ledger.jsonl")
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(_measurement()))
        assert main(["obs", "history", "--ledger", ledger, "--append",
                     str(bench), "--label", "first"]) == 0
        assert "appended entry 'first'" in capsys.readouterr().out
        assert main(["obs", "history", "--ledger", ledger, "--append",
                     str(bench), "--label", "second"]) == 0
        capsys.readouterr()
        assert main(["obs", "history", "--ledger", ledger,
                     "--check"]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_check_short_ledger_exits_two(self, capsys, tmp_path):
        # a ledger with fewer than 2 entries has no baseline to check
        # against: exit 2 with a diagnostic, never a traceback
        ledger = str(tmp_path / "ledger.jsonl")
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(_measurement()))
        assert main(["obs", "history", "--ledger", ledger,
                     "--check"]) == 2
        assert "at least 2 ledger entries" in capsys.readouterr().err
        assert main(["obs", "history", "--ledger", ledger, "--append",
                     str(bench), "--label", "only"]) == 0
        capsys.readouterr()
        assert main(["obs", "history", "--ledger", ledger,
                     "--check"]) == 2
        assert "has 1" in capsys.readouterr().err

    def test_check_detects_regression(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append_entry(ledger, _entry("a", wall=1.0))
        append_entry(ledger, _entry("b", wall=2.0))
        assert main(["obs", "history", "--ledger", str(ledger),
                     "--check"]) == 1
        assert "REGRESSION wall" in capsys.readouterr().out

    def test_threshold_flag(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append_entry(ledger, _entry("a", wall=1.0))
        append_entry(ledger, _entry("b", wall=2.0))
        assert main(["obs", "history", "--ledger", str(ledger),
                     "--check", "--threshold", "150"]) == 0

    def test_append_without_label_exits_two(self, capsys, tmp_path):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(_measurement()))
        assert main(["obs", "history", "--ledger",
                     str(tmp_path / "l.jsonl"), "--append",
                     str(bench)]) == 2
        assert "requires --label" in capsys.readouterr().err

    def test_corrupt_ledger_exits_two(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("{broken\n")
        assert main(["obs", "history", "--ledger", str(ledger)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_plain_listing(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append_entry(ledger, _entry("seed", wall=1.0))
        assert main(["obs", "history", "--ledger", str(ledger)]) == 0
        assert "seed" in capsys.readouterr().out

    def test_committed_ledger_parses(self):
        entries = load_ledger("benchmarks/results/ledger.jsonl")
        assert len(entries) >= 1
        assert entries[0]["metrics"]

    def test_committed_bench_ingests(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        assert main(["obs", "history", "--ledger", str(ledger),
                     "--append", "BENCH_scaling.json",
                     "--label", "committed"]) == 0
        (entry,) = load_ledger(ledger)
        metrics = entry["metrics"]
        # every name the committed ledger tracks is still fed, except
        # the retired thermal_fidelity row's
        tracked = {name
                   for past in load_ledger("benchmarks/results/ledger.jsonl")
                   for name in past["metrics"]
                   if not name.startswith("thermal/")}
        assert tracked <= set(metrics)
        # each full-size row ran in its own process, so it reports its
        # own peak RSS rather than a shared high-water mark
        assert metrics["large/peak_rss_bytes/ibm01"] \
            != metrics["large/peak_rss_bytes/synthetic50k"]
