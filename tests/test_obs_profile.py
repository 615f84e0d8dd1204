"""Unit tests for the sampling profiler (``repro.obs.profile``).

The sampled frame and the clock are injectable, so every attribution
assertion here is exact — no sleeps, no real sampler cadence.  One
smoke test exercises the actual daemon thread.
"""

from __future__ import annotations

import sys

import pytest

from repro.obs import ProfileData, SamplingProfiler, Tracer
from repro.obs.profile import (DEFAULT_INTERVAL, frame_label,
                               profile_enabled, stack_of)


def _here():
    """A real frame from a helper (leaf of the captured stack)."""
    return sys._getframe()


class TestFrameLabels:
    def test_label_contains_file_and_function(self):
        label = frame_label(_here())
        assert label.endswith(":_here")
        assert ".py" not in label

    def test_stack_is_outermost_first_and_leaf_survives(self):
        frame = _here()
        stack = stack_of(frame)
        assert stack[-1].endswith(":_here")
        # truncation drops outer frames, never the leaf
        short = stack_of(frame, max_depth=1)
        assert short == (stack[-1],)


class TestProfileEnabled:
    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("", False), ("off", False), ("maybe", False),
    ])
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_PROFILE", value)
        assert profile_enabled() is expected

    def test_unset_is_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert profile_enabled() is False


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
        profiler = SamplingProfiler(tracer=tracer, interval=0.5)
        with tracer.span("global/level0"):
            profiler.sample_once(_here())
        profiler.sample_once(_here())
        paths = profiler.data.span_paths()
        assert set(paths) == {"global/level0", ""}

    def test_samples_at_the_default_interval(self):
        assert SamplingProfiler().interval == DEFAULT_INTERVAL == 0.01

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0.0)

    def test_summary_carries_interval_and_wall(self):
        clock_t = [0.0]
        profiler = SamplingProfiler(interval=0.25,
                                    clock=lambda: clock_t[0])
        profiler.sample_once(_here())
        doc = profiler.summary(top=3)
        assert doc["interval_seconds"] == pytest.approx(0.25)
        assert doc["samples"] == 1
        assert doc["wall_seconds"] == 0.0  # never started

    def test_thread_lifecycle_collects_samples(self):
        # real daemon-thread smoke: sample this thread while it works
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            acc = 0.0
            for i in range(200000):
                acc += i * 0.5
        assert acc > 0
        assert profiler.wall_seconds > 0
        # start/stop are idempotent
        profiler.stop()
        assert profiler.data.samples >= 1
