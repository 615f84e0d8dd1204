"""Unit tests for the sampling profiler (``repro.obs.profile``).

The sampled frame and the clock are injectable, so every attribution
assertion here is exact — no sleeps, no real sampler cadence.  One
smoke test exercises the actual daemon thread.
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.obs import ProfileData, SamplingProfiler, Tracer
from repro.obs.profile import (INTERVAL, MAX_DEPTH, TOP_FUNCTIONS,
                               frame_label, stack_of)


def _here():
    """A real frame from a helper (leaf of the captured stack)."""
    return sys._getframe()


def _deep(depth):
    """A real frame ``depth`` calls below this one."""
    return _deep(depth - 1) if depth > 0 else _here()


class TestFrameLabels:
    def test_label_contains_file_and_function(self):
        label = frame_label(_here())
        assert label.endswith(":_here")
        assert ".py" not in label

    def test_stack_is_outermost_first_and_leaf_survives(self):
        stack = stack_of(_here())
        assert stack[-1].endswith(":_here")
        # truncation drops outer frames, never the leaf
        deep = stack_of(_deep(MAX_DEPTH + 10))
        assert len(deep) == MAX_DEPTH
        assert deep[-1].endswith(":_here")
        assert deep[:-1] == (deep[0],) * (MAX_DEPTH - 1)
        assert deep[0].endswith(":_deep")


class TestProfileData:
    def test_add_and_merge_accumulate_counts(self):
        a = ProfileData()
        a.add("global", ("m:f", "m:g"), 2)
        a.add("", ("m:h",))
        b = ProfileData()
        b.add("global", ("m:f", "m:g"), 3)
        a.merge(b)
        assert a.samples == 6
        assert a.stacks[("global", ("m:f", "m:g"))] == 5

    def test_hot_functions_self_vs_cumulative(self):
        data = ProfileData()
        data.add("s", ("m:outer", "m:inner"), 4)
        data.add("s", ("m:outer",), 1)
        rows = {r["function"]: r for r in data.hot_functions()}
        assert rows["m:inner"] == {"function": "m:inner", "self": 4,
                                   "cum": 4}
        assert rows["m:outer"] == {"function": "m:outer", "self": 1,
                                   "cum": 5}

    def test_hot_functions_filters_by_span_path(self):
        data = ProfileData()
        data.add("a", ("m:f",), 2)
        data.add("b", ("m:g",), 7)
        rows = data.hot_functions(span_path="b")
        assert [r["function"] for r in rows] == ["m:g"]

    def test_recursive_stack_counts_cumulative_once(self):
        data = ProfileData()
        data.add("", ("m:fib", "m:fib", "m:fib"), 3)
        (row,) = data.hot_functions()
        assert row["cum"] == 3  # not 9: one sample counts once

    def test_collapsed_round_trips_with_span_roots(self):
        data = ProfileData()
        data.add("round1/moves", ("core/moves:f", "obj:g"), 5)
        data.add("", (), 1)
        lines = data.collapsed()
        assert "span:round1;span:moves;core/moves:f;obj:g 5" in lines
        assert "<unknown> 1" in lines
        back = ProfileData.from_collapsed(lines)
        assert back.stacks == data.stacks
        assert back.samples == data.samples

    def test_from_collapsed_rejects_garbage(self):
        with pytest.raises(ValueError):
            ProfileData.from_collapsed(["not a collapsed line"])

    def test_write_collapsed_creates_parents(self, tmp_path):
        data = ProfileData()
        data.add("g", ("m:f",), 1)
        path = tmp_path / "deep" / "stacks.txt"
        data.write_collapsed(str(path))
        assert path.read_text() == "span:g;m:f 1\n"

    def test_span_table_orders_by_sample_count(self):
        data = ProfileData()
        data.add("cold", ("m:f",), 1)
        data.add("hot", ("m:g",), 9)
        table = data.span_table()
        assert [row["span"] for row in table] == ["hot", "cold"]
        assert table[0]["samples"] == 9

    def test_as_dict_shape(self):
        data = ProfileData()
        data.add("g", ("m:f",), 2)
        doc = data.as_dict()
        assert doc["samples"] == 2
        assert doc["distinct_stacks"] == 1
        assert doc["hot_functions"][0]["function"] == "m:f"
        assert doc["spans"][0]["span"] == "g"


class TestSamplingProfiler:
    def test_sample_once_attributes_to_open_span(self):
        tracer = Tracer()
        profiler = SamplingProfiler(tracer=tracer)
        with tracer.span("global/level0"):
            profiler.sample_once(_here())
        profiler.sample_once(_here())
        paths = profiler.data.span_paths()
        assert set(paths) == {"global/level0", ""}

    def test_summary_carries_interval_and_wall(self):
        clock_t = [0.0]
        profiler = SamplingProfiler(clock=lambda: clock_t[0])
        profiler.sample_once(_here())
        doc = profiler.summary()
        assert doc["interval_seconds"] == INTERVAL == 0.01
        assert doc["samples"] == 1
        assert doc["wall_seconds"] == 0.0  # never started

    def test_hot_tables_keep_the_top_functions(self):
        data = ProfileData()
        for i in range(TOP_FUNCTIONS + 5):
            data.add("s", (f"m:f{i}",), i + 1)
        rows = data.hot_functions()
        assert len(rows) == TOP_FUNCTIONS
        assert rows[0]["function"] == f"m:f{TOP_FUNCTIONS + 4}"
        (span,) = data.span_table()
        assert span["functions"] == rows
        assert data.as_dict()["hot_functions"] == rows

    def test_thread_lifecycle_collects_samples(self):
        # real daemon-thread smoke: sample this thread while it works,
        # until the first sample lands (a few intervals)
        profiler = SamplingProfiler()
        acc = 0.0
        with profiler:
            deadline = time.monotonic() + 10.0
            while profiler.data.samples == 0 \
                    and time.monotonic() < deadline:
                for i in range(10000):
                    acc += i * 0.5
        assert acc > 0
        assert profiler.wall_seconds > 0
        # start/stop are idempotent
        profiler.stop()
        assert profiler.data.samples >= 1
