"""Tests for the committed scaling record, ``BENCH_scaling.json``.

``benchmarks/bench_scaling.py --workers --large`` writes it: one row
per measurement, each run in its own interpreter, plus the per-scale
overheads and the gates.  These tests pin the document's shape (rows,
overheads and gates, nothing derived from them) and the properties
its rows were measured to show: every row reports its own process's
peak RSS, instrumentation never moves a placement, and worker counts
place bit-identically.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

DOCUMENT = Path(__file__).resolve().parents[1] / "BENCH_scaling.json"
SCALES = ("0.025", "0.05", "0.1")


@pytest.fixture(scope="module")
def document():
    with open(DOCUMENT, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _rows(document, prefix):
    return {name: row for name, row in document["rows"].items()
            if name.startswith(prefix)}


def test_sections_are_rows_overheads_and_gates(document):
    assert set(document) == {"available_cpus", "circuit", "rows",
                             "overhead", "gates"}


def test_rows_carry_only_their_own_measurements(document):
    for name, row in document["rows"].items():
        assert row["name"] == name
        assert "ledger" not in row
        assert row["wall_seconds"] > 0
        assert row["peak_rss_bytes"] > 0


def test_every_row_ran_in_its_own_interpreter(document):
    pids = [row["pid"] for row in document["rows"].values()]
    assert len(set(pids)) == len(pids)


def test_full_size_rows_report_their_own_peak_rss(document):
    large = _rows(document, "large/")
    assert large["large/ibm01"]["peak_rss_bytes"] \
        != large["large/synthetic50k"]["peak_rss_bytes"]
    assert len({row["peak_rss_bytes"] for row in large.values()}) \
        == len(large)


def test_every_place_row_records_its_placement(document):
    for name, row in document["rows"].items():
        if row["kind"] == "place":
            assert len(row["placement_sha256"]) == 64, name
            assert row["num_cells"] > 0, name


@pytest.mark.parametrize("scale", SCALES)
def test_instrumentation_never_moves_the_placement(document, scale):
    """The plain, live-telemetry and profiled legs of every repeat
    place identically."""
    ladder = _rows(document, f"ladder/{scale}/")
    assert {row["leg"] for row in ladder.values()} == {
        "plain", "live", "profiled"}
    assert len({row["placement_sha256"]
                for row in ladder.values()}) == 1


def test_worker_counts_place_bit_identically(document):
    workers = _rows(document, "workers/")
    assert set(workers) == {"workers/1", "workers/2", "workers/4"}
    assert len({row["placement_sha256"]
                for row in workers.values()}) == 1
    assert document["gates"]["workers_bit_identical_to_serial"] is True
    # the worker rows run the ladder's largest scale
    (ladder_sha,) = {row["placement_sha256"] for row in
                     _rows(document, f"ladder/{SCALES[-1]}/").values()}
    assert workers["workers/1"]["placement_sha256"] == ladder_sha


def test_dispatching_rows_meet_the_dispatch_reduction_gate(document):
    gates = document["gates"]
    reductions = gates["dispatch_reduction_vs_pickled"]
    assert reductions
    assert all(value >= 10.0 for value in reductions.values())
    assert gates["meets_10x_dispatch_reduction"] is True


def test_overheads_clamp_noise_at_zero(document):
    overhead = document["overhead"]
    assert set(overhead) == set(SCALES)
    for entry in overhead.values():
        for kind in ("telemetry", "profile"):
            raw = entry[f"{kind}_overhead_pct_raw"]
            assert entry[f"{kind}_overhead_pct"] == max(0.0, raw)
