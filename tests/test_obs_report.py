"""Tests for the text renderers (``repro.obs.report``) and
``repro obs report``.

The manifest renderers read schema-valid manifests: the command
validates each one on load and exits 2, naming the errors, when it
fails ``manifest_schema.json``.  Empty traces and the null
``resources``/``profile`` sections of an unprofiled run render an
honest placeholder.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.obs import (Recorder, Telemetry, render, render_manifest,
                       render_profile, render_resources, render_spans,
                       validate_manifest)


def _resources(**overrides):
    section = {"peak_rss_bytes": 1000, "current_rss_bytes": 0,
               "baseline_rss_bytes": 0, "samples": 1,
               "tracemalloc": {"enabled": False, "peak_bytes": 0,
                               "top_allocations": []}}
    section.update(overrides)
    return section


class TestRenderSpans:
    def test_empty_tree_is_empty_string(self):
        assert render_spans({}) == ""
        assert render_spans({"children": []}) == ""

    def test_real_trace_shares_sum(self):
        rec = Recorder()
        with rec.span("global"):
            with rec.span("level0"):
                pass
        text = render_spans(rec.snapshot().spans)
        assert "global" in text and "level0" in text


class TestRenderTelemetry:
    def test_zero_spans_snapshot(self):
        text = render(Telemetry(), title="empty run")
        assert "== empty run" in text
        assert "(no spans recorded)" in text

    def test_empty_series_points(self):
        telemetry = Telemetry(series={"temps": []})
        text = render(telemetry)
        assert "temps" in text
        assert "0 points" in text

    def test_counters_and_series_render(self):
        telemetry = Telemetry(
            counters={"fm/moves": 12.0, "frac": 0.5},
            series={"obj": [{"t": 0.0, "value": 3.0}]})
        text = render(telemetry)
        assert "fm/moves" in text and "12" in text
        assert "0.5" in text
        assert "last: value=3" in text


class TestRenderResources:
    def test_none_renders_placeholder(self):
        expected = "-- memory --\n(none recorded)"
        assert render_resources(None) == expected

    def test_full_section(self):
        doc = {
            "peak_rss_bytes": 2 * 1024 * 1024,
            "current_rss_bytes": 1024 * 1024,
            "baseline_rss_bytes": 512 * 1024,
            "samples": 7,
            "tracemalloc": {
                "enabled": True, "peak_bytes": 4096,
                "top_allocations": [
                    {"site": "repro/core/fm.py:10", "size_bytes": 2048,
                     "count": 3}],
            },
        }
        text = render_resources(doc)
        assert "peak RSS" in text and "2.0 MiB" in text
        assert "samples" in text
        assert "python heap peak" in text and "4.0 KiB" in text
        assert "repro/core/fm.py:10" in text

    def test_zero_rss_rows_suppressed(self):
        text = render_resources(_resources(peak_rss_bytes=0))
        assert "peak RSS" not in text
        assert "samples" in text

    def test_disabled_tracemalloc_omits_heap(self):
        text = render_resources(_resources())
        assert "peak RSS" in text
        assert "python heap peak" not in text


class TestRenderProfile:
    def test_none_renders_placeholder(self):
        expected = "-- hot functions --\n(none: run without --profile)"
        assert render_profile(None) == expected

    def test_full_section(self):
        doc = {
            "samples": 120, "interval_seconds": 0.01,
            "hot_functions": [
                {"function": "core/fm:FMRefiner._pass", "self": 80,
                 "cum": 100}],
            "spans": [{"span": "global/level0", "samples": 90},
                      {"span": "", "samples": 30}],
        }
        text = render_profile(doc)
        assert "120 samples @ 10ms" in text
        assert "core/fm:FMRefiner._pass" in text
        assert "global/level0" in text
        assert "(no span)" in text  # empty span path labelled honestly

    def test_no_attributed_samples(self):
        text = render_profile({"samples": 0, "interval_seconds": 0.01,
                               "hot_functions": [], "spans": []})
        assert "(no samples attributed)" in text


class TestRenderManifest:
    def test_unprofiled_manifest(self, run_manifest):
        text = render_manifest(run_manifest())
        assert "== run report: tiny ==" in text
        assert "peak_temperature" not in text  # null: not evaluated
        assert "(no stages recorded)" in text
        assert "-- memory --\n(none recorded)" in text
        assert "-- hot functions --\n(none: run without --profile)" \
            in text

    def test_full_manifest_golden(self, run_manifest):
        manifest = run_manifest(
            result={"peak_temperature": 351.5},
            stages=[{"path": "global", "seconds": 0.2, "calls": 1}],
            resources=_resources(peak_rss_bytes=1024, samples=2),
            profile={"samples": 5, "distinct_stacks": 1,
                     "interval_seconds": 0.01,
                     "hot_functions": [{"function": "m:f",
                                        "self": 5, "cum": 5}],
                     "spans": [{"span": "global", "samples": 5}]})
        assert validate_manifest(manifest) == []
        text = render_manifest(manifest)
        assert text == "\n".join([
            "== run report: tiny ==",
            "objective                           10",
            "wirelength                           5",
            "ilv                                  2",
            "wall_seconds                      0.25",
            "peak_temperature                 351.5",
            "-- stages --",
            "global                                  0.2000s  x1",
            "-- memory --",
            "peak RSS                       1.0 KiB",
            "samples                              2",
            "-- hot functions --",
            "5 samples @ 10ms",
            "function                                      self   cum",
            "m:f                                              5     5",
            "per-span samples:",
            "  global                                         5",
        ])


class TestObsReportCli:
    def _write(self, tmp_path, document):
        path = tmp_path / "run.manifest.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_valid_manifest_renders(self, capsys, tmp_path,
                                    run_manifest):
        path = self._write(tmp_path, run_manifest())
        assert main(["obs", "report", path]) == 0
        assert capsys.readouterr().out \
            == render_manifest(run_manifest()) + "\n"

    def test_schema_failure_exits_two_naming_the_errors(
            self, capsys, tmp_path, run_manifest):
        broken = run_manifest()
        del broken["result"]
        broken["stages"] = [{"path": "global", "seconds": "slow",
                             "calls": 1}]
        path = self._write(tmp_path, broken)
        assert main(["obs", "report", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: $: missing required key 'result'" \
            in captured.err
        assert f"{path}: $.stages[0].seconds: expected type number" \
            in captured.err

    def test_telemetry_snapshot_is_not_a_manifest(self, capsys,
                                                  tmp_path):
        snapshot = {"spans": {}, "counters": {}, "gauges": {},
                    "series": {}, "wall_seconds": 1.0}
        path = self._write(tmp_path, snapshot)
        assert main(["obs", "report", path]) == 2
        assert "missing required key 'kind'" in capsys.readouterr().err

    def test_unreadable_input_exits_two(self, capsys, tmp_path):
        assert main(["obs", "report",
                     str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err
