"""Unit tests for resource tracking and its Recorder integration.

Covers the RSS helpers, the ``ResourceTracker`` lifecycle (it reports
a running tracemalloc and never starts or stops one), the tracker
every live ``Recorder`` carries, and the ``Recorder.merge`` edge cases
telemetry folding relies on: peak gauges merging by max, empty
telemetry, and nested-span anchoring.
"""

from __future__ import annotations

import os
import tracemalloc

import pytest

from repro.obs import NullRecorder, Recorder, Telemetry
from repro.obs.resources import (PEAK_RSS_GAUGE, TOP_ALLOCATIONS,
                                 ResourceTracker, peak_rss_bytes,
                                 rss_bytes)


@pytest.fixture
def traced():
    """tracemalloc running for the test body, stopped after it."""
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


class TestRssHelpers:
    def test_rss_is_positive_here(self):
        # /proc is available on the CI platform; degrade-to-zero is
        # exercised implicitly by the "0 unknown" contract
        assert rss_bytes() > 0

    def test_peak_is_at_least_current_magnitude(self):
        assert peak_rss_bytes() > 0

    def test_peak_of_a_pid(self):
        assert peak_rss_bytes(os.getpid()) > 0
        # a pid with no /proc entry reads as unknown, not as this
        # process's peak
        assert peak_rss_bytes(-1) == 0


class TestResourceTracker:
    def test_sample_writes_gauges_and_counter(self):
        rec = Recorder(track_resources=False)
        tracker = ResourceTracker(rec)
        tracker.sample("global")
        tracker.sample("round1/moves")
        assert rec.gauges["resources/rss/global"] > 0
        assert rec.gauges["resources/rss/round1/moves"] > 0
        assert rec.gauges[PEAK_RSS_GAUGE] > 0
        assert rec.counters["resources/samples"] == 2
        assert tracker.samples == 2

    def test_finish_reports_a_running_tracemalloc(self, traced):
        rec = Recorder(track_resources=False)
        tracker = ResourceTracker(rec)
        blob = [bytes(1000) for _ in range(50)]  # traced allocations
        doc = tracker.finish()
        assert blob  # keep alive through the snapshot
        assert doc["peak_rss_bytes"] > 0
        assert doc["baseline_rss_bytes"] > 0
        assert doc["tracemalloc"]["enabled"] is True
        assert doc["tracemalloc"]["peak_bytes"] > 0
        rows = doc["tracemalloc"]["top_allocations"]
        assert 0 < len(rows) <= TOP_ALLOCATIONS
        for row in rows:
            assert set(row) == {"site", "size_bytes", "count"}
            assert ":" in row["site"]
        # the tracker reads tracemalloc and leaves it running
        assert tracemalloc.is_tracing()

    def test_live_recorder_never_starts_tracemalloc(self):
        assert not tracemalloc.is_tracing()
        rec = Recorder()
        rec.sample_resources("global")
        doc = rec.finish_resources()
        rec.close()
        assert not tracemalloc.is_tracing()
        assert doc is not None and doc["tracemalloc"]["enabled"] is False
        assert "resources/tracemalloc_peak_bytes" not in rec.gauges

    def test_sample_workers_raises_the_peak_to_theirs(self):
        rec = Recorder(track_resources=False)
        tracker = ResourceTracker(rec)
        tracker.sample_workers([])
        assert PEAK_RSS_GAUGE not in rec.gauges
        rec.gauge(PEAK_RSS_GAUGE, 1.0)
        tracker.sample_workers([os.getpid()])
        assert rec.gauges[PEAK_RSS_GAUGE] > 1.0
        # a worker gone before the reading leaves the peak as it was
        peak = rec.gauges[PEAK_RSS_GAUGE]
        tracker.sample_workers([-1])
        assert rec.gauges[PEAK_RSS_GAUGE] == peak

    def test_finish_keeps_a_larger_merged_worker_peak(self):
        """A pool worker's peak merged in before the run finishes
        outlives the main process's own, smaller, final reading."""
        rec = Recorder(track_resources=True)
        worker_peak = 9e12
        rec.merge(Telemetry(gauges={PEAK_RSS_GAUGE: worker_peak}))
        rec.sample_resources("round1/moves")
        doc = rec.finish_resources()
        assert rec.gauges[PEAK_RSS_GAUGE] == worker_peak
        assert doc is not None
        assert doc["peak_rss_bytes"] == int(worker_peak)

    def test_sample_keeps_a_larger_merged_worker_peak(self):
        rec = Recorder(track_resources=False)
        rec.merge(Telemetry(gauges={PEAK_RSS_GAUGE: 9e12}))
        ResourceTracker(rec).sample("global")
        assert rec.gauges[PEAK_RSS_GAUGE] == 9e12
        assert rec.gauges["resources/rss/global"] < 9e12

    def test_own_peak_outlives_a_smaller_merged_worker_peak(self):
        rec = Recorder(track_resources=False)
        rec.merge(Telemetry(gauges={PEAK_RSS_GAUGE: 1.0}))
        doc = ResourceTracker(rec).finish()
        assert doc["peak_rss_bytes"] > 1
        assert rec.gauges[PEAK_RSS_GAUGE] == doc["peak_rss_bytes"]

    def test_finish_keeps_a_larger_traced_peak_gauge(self, traced):
        rec = Recorder(track_resources=False)
        rec.gauge("resources/tracemalloc_peak_bytes", 9e12)
        doc = ResourceTracker(rec).finish()
        assert doc["tracemalloc"]["enabled"] is True
        assert rec.gauges["resources/tracemalloc_peak_bytes"] == 9e12

    def test_no_tracemalloc_reports_empty_allocations(self):
        rec = Recorder(track_resources=False)
        tracker = ResourceTracker(rec)
        doc = tracker.finish()
        assert doc["tracemalloc"]["enabled"] is False
        assert doc["tracemalloc"]["top_allocations"] == []


class TestRecorderAttach:
    def test_live_recorder_attaches_tracker(self):
        rec = Recorder()
        assert rec.resources is not None
        rec.sample_resources("x")
        assert rec.counters["resources/samples"] == 1
        doc = rec.finish_resources()
        assert doc is not None and doc["samples"] == 1

    def test_disabled_recorder_resource_calls_are_noops(self):
        rec = Recorder(track_resources=False)
        rec.sample_resources("x")
        assert rec.counters == {}
        assert rec.finish_resources() is None

    def test_null_recorder_never_attaches(self):
        null = NullRecorder()
        assert null.resources is None
        null.gauge_max("resources/peak_rss_bytes", 1.0)
        assert null.gauges == {}

    def test_gauge_max_keeps_maximum(self):
        rec = Recorder(track_resources=False)
        rec.gauge_max("resources/peak_rss_bytes", 10.0)
        rec.gauge_max("resources/peak_rss_bytes", 5.0)
        assert rec.gauges["resources/peak_rss_bytes"] == 10.0
        rec.gauge_max("resources/peak_rss_bytes", 20.0)
        assert rec.gauges["resources/peak_rss_bytes"] == 20.0


class TestMergeEdgeCases:
    """``Recorder.merge`` semantics the parallel dispatch depends on."""

    def test_empty_telemetry_merge_is_identity(self):
        rec = Recorder(track_resources=False)
        rec.count("fm/passes", 3)
        rec.gauge("x", 1.0)
        rec.merge(Telemetry())
        assert rec.counters == {"fm/passes": 3.0}
        assert rec.gauges == {"x": 1.0}
        assert rec.tracer.root.as_dict().get("children", []) == []

    def test_peak_gauges_merge_by_max_others_last_write(self):
        rec = Recorder(track_resources=False)
        rec.gauge("resources/peak_rss_bytes", 100.0)
        rec.gauge("resources/tracemalloc_peak_bytes", 10.0)
        rec.gauge("plain", 1.0)
        rec.merge(Telemetry(gauges={
            "resources/peak_rss_bytes": 50.0,          # smaller: kept
            "resources/tracemalloc_peak_bytes": 99.0,  # larger: wins
            "plain": 2.0,                              # LWW
        }))
        assert rec.gauges["resources/peak_rss_bytes"] == 100.0
        assert rec.gauges["resources/tracemalloc_peak_bytes"] == 99.0
        assert rec.gauges["plain"] == 2.0

    def test_peak_gauge_order_independent(self):
        snapshots = [Telemetry(gauges={PEAK_RSS_GAUGE: v})
                     for v in (30.0, 80.0, 50.0)]
        forward = Recorder(track_resources=False)
        backward = Recorder(track_resources=False)
        for snap in snapshots:
            forward.merge(snap)
        for snap in reversed(snapshots):
            backward.merge(snap)
        assert forward.gauges[PEAK_RSS_GAUGE] == 80.0
        assert backward.gauges[PEAK_RSS_GAUGE] == 80.0

    def test_merge_anchors_worker_spans_under_open_span(self):
        worker = Recorder(track_resources=False)
        with worker.span("fm"):
            pass
        worker.count("resources/samples", 1)
        worker.gauge(PEAK_RSS_GAUGE, 123.0)
        snapshot = worker.snapshot()

        main = Recorder(track_resources=False)
        with main.span("global/level2/bisect"):
            main.merge(snapshot)
        paths = {p for p, _ in main.tracer.root.walk()}
        assert "global/level2/bisect/fm" in paths
        assert main.counters["resources/samples"] == 1
        assert main.gauges[PEAK_RSS_GAUGE] == 123.0

    def test_merge_counters_add_across_workers(self):
        main = Recorder(track_resources=False)
        for _ in range(4):
            main.merge(Telemetry(counters={"resources/samples": 1.0}))
        assert main.counters["resources/samples"] == 4.0


class TestWorkerRoundTrip:
    """A bisection task's recorder tracks no resources: the
    dispatching side reads each pool worker's peak once instead."""

    @staticmethod
    def _tiny_task():
        from repro.partition.subproblem import BisectionTask
        return BisectionTask.from_nets(
            nets=[[0, 1], [2, 3]], net_weights=[1.0, 1.0],
            vertex_weights=[1.0, 1.0, 1.0, 1.0], fixed=[-1, -1, -1, -1],
            target=0.5, tolerance=0.1, num_starts=1, max_passes=2,
            seed=0)

    def test_task_telemetry_carries_no_resources(self):
        from repro.partition.subproblem import solve_recorded

        _, telemetry = solve_recorded(self._tiny_task())
        assert telemetry.counters  # the task did report telemetry
        for name in [*telemetry.counters, *telemetry.gauges]:
            assert not name.startswith("resources/"), name
