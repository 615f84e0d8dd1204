"""Tests for run-to-run diffing (``repro.obs.diffing`` + CLI).

Covers metric extraction from schema-valid manifests (peak RSS from
the ``resources`` section or, for an unprofiled run, its gauge), the
fixed per-family budgets, missing-metric ``n/a`` behaviour, a golden
render of the diff table, and the ``repro obs diff`` exit-code
contract (0 clean / 1 regression / 2 unreadable or schema-invalid
input).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import validate_manifest
from repro.obs.diffing import (BUDGET_PCT, MetricDelta, diff_documents,
                               extract_metrics, has_regressions,
                               render_diff)


@pytest.fixture
def manifest(run_manifest):
    """``manifest(wall, objective, rss, stages, gauges)``: a
    schema-valid manifest (with ``rss`` given, a profiled one)."""
    def make(wall=2.0, objective=100.0, rss=None, stages=(),
             gauges=None):
        resources = None if rss is None else {
            "peak_rss_bytes": rss, "current_rss_bytes": 0,
            "baseline_rss_bytes": 0, "samples": 1,
            "tracemalloc": {"enabled": False, "peak_bytes": 0,
                            "top_allocations": []}}
        return run_manifest(
            result={"wall_seconds": wall, "objective": objective,
                    "wirelength": 500.0, "ilv": 40,
                    "peak_temperature": 355.0},
            stages=[dict(row, calls=1) for row in stages],
            resources=resources, gauges=dict(gauges or {}))
    return make


class TestExtractMetrics:
    def test_manifest_result_section(self, manifest):
        metrics = extract_metrics(manifest())
        assert metrics["wall_seconds"] == 2.0
        assert metrics["objective"] == 100.0
        assert metrics["wirelength"] == 500.0
        assert metrics["ilv"] == 40.0
        assert metrics["peak_temperature"] == 355.0

    def test_unprofiled_run_reads_the_peak_rss_gauge(self, manifest):
        doc = manifest(gauges={"resources/peak_rss_bytes": 4096.0})
        assert validate_manifest(doc) == []
        assert extract_metrics(doc)["peak_rss_bytes"] == 4096.0
        assert "peak_rss_bytes" not in extract_metrics(manifest())

    def test_resources_section_wins_over_gauges(self, manifest):
        doc = manifest(rss=8192,
                       gauges={"resources/peak_rss_bytes": 1.0})
        assert validate_manifest(doc) == []
        assert extract_metrics(doc)["peak_rss_bytes"] == 8192.0

    def test_zero_rss_is_skipped(self, manifest):
        # peak_rss_bytes == 0 means "platform could not measure"
        metrics = extract_metrics(manifest(rss=0))
        assert "peak_rss_bytes" not in metrics

    def test_null_peak_temperature_is_left_out(self, manifest):
        doc = manifest()
        doc["result"]["peak_temperature"] = None
        assert validate_manifest(doc) == []
        assert "peak_temperature" not in extract_metrics(doc)

    def test_top_level_stage_rows_only(self, manifest):
        stages = [{"path": "global", "seconds": 1.2},
                  {"path": "global/level0", "seconds": 0.4},
                  {"path": "legalize", "seconds": 0.1}]
        metrics = extract_metrics(manifest(stages=stages))
        assert metrics["stage/global"] == 1.2
        assert metrics["stage/legalize"] == 0.1
        assert "stage/global/level0" not in metrics


class TestDiffDocuments:
    def test_within_budget_not_regressed(self, manifest):
        deltas = diff_documents(manifest(wall=2.0),
                                manifest(wall=2.1))
        wall = next(d for d in deltas if d.name == "wall_seconds")
        assert wall.pct == pytest.approx(5.0)
        assert wall.regressed is False
        assert not has_regressions(deltas)

    def test_wall_regression_over_budget(self, manifest):
        deltas = diff_documents(manifest(wall=2.0),
                                manifest(wall=2.5))
        wall = next(d for d in deltas if d.name == "wall_seconds")
        assert wall.pct == pytest.approx(25.0)
        assert wall.regressed is True
        assert has_regressions(deltas)

    def test_quality_budget_is_tight(self, manifest):
        deltas = diff_documents(manifest(objective=100.0),
                                manifest(objective=102.0))
        obj = next(d for d in deltas if d.name == "objective")
        assert obj.regressed is True  # +2% > 1% quality budget

    def test_improvement_never_regresses(self, manifest):
        deltas = diff_documents(manifest(wall=3.0),
                                manifest(wall=1.0))
        assert not has_regressions(deltas)

    def test_each_family_has_one_fixed_budget(self, manifest):
        assert BUDGET_PCT == {"wall": 10.0, "rss": 10.0, "quality": 1.0}
        deltas = diff_documents(manifest(wall=2.0, rss=100),
                                manifest(wall=2.0, rss=111))
        rss = next(d for d in deltas if d.name == "peak_rss_bytes")
        assert rss.threshold_pct == 10.0 and rss.regressed is True

    @pytest.mark.parametrize("name, family", [
        ("wall_seconds", "wall"), ("peak_rss_bytes", "rss"),
        ("objective", "quality"), ("wirelength", "quality"),
        ("ilv", "quality"), ("peak_temperature", "quality")])
    def test_each_gated_metric_gates_at_its_family_budget(
            self, manifest, name, family):
        """Growth of half the family's budget passes, growth of twice
        it regresses, and only the grown metric is flagged."""
        def scaled(factor):
            """Every gated metric present, ``name`` scaled."""
            doc = manifest(rss=1000)
            section = doc["resources"] if name == "peak_rss_bytes" \
                else doc["result"]
            section[name] *= factor
            return doc

        budget = BUDGET_PCT[family]
        for multiple, regressed in ((0.5, False), (2.0, True)):
            deltas = diff_documents(
                scaled(1.0), scaled(1.0 + multiple * budget / 100.0))
            delta = next(d for d in deltas if d.name == name)
            assert delta.threshold_pct == budget
            assert delta.pct == pytest.approx(multiple * budget)
            assert [d.name for d in deltas if d.regressed] == \
                ([name] if regressed else [])

    def test_missing_metric_is_na_not_regression(self, manifest):
        before = manifest()          # unprofiled, no RSS gauge
        after = manifest(rss=4096)
        deltas = diff_documents(before, after)
        rss = next(d for d in deltas if d.name == "peak_rss_bytes")
        assert rss.before is None and rss.after == 4096.0
        assert rss.pct is None and rss.regressed is False

    def test_null_peak_temperature_never_regresses(self, manifest):
        before = manifest()
        before["result"]["peak_temperature"] = None
        deltas = diff_documents(before, manifest())
        temp = next(d for d in deltas if d.name == "peak_temperature")
        assert temp.before is None and temp.pct is None
        assert temp.regressed is False

    def test_stage_rows_are_informational(self, manifest):
        stages = [{"path": "global", "seconds": 1.0}]
        before = manifest(stages=stages)
        after = manifest(stages=[{"path": "global", "seconds": 9.0}])
        deltas = diff_documents(before, after)
        stage = next(d for d in deltas if d.name == "stage/global")
        assert stage.threshold_pct is None
        assert stage.regressed is False  # 9x slower but not gated

    def test_gated_metrics_listed_first_no_duplicates(self, manifest):
        stages = [{"path": "anneal", "seconds": 0.3}]
        deltas = diff_documents(manifest(stages=stages),
                                manifest(stages=stages))
        names = [d.name for d in deltas]
        assert len(names) == len(set(names))
        assert names.index("wall_seconds") < names.index("stage/anneal")


class TestRenderDiff:
    def test_golden_table(self):
        deltas = [
            MetricDelta(name="wall_seconds", before=2.0, after=2.5,
                        pct=25.0, threshold_pct=10.0, regressed=True),
            MetricDelta(name="peak_rss_bytes", before=None,
                        after=4096.0, pct=None, threshold_pct=10.0,
                        regressed=False),
            MetricDelta(name="stage/global", before=1.0, after=1.0,
                        pct=0.0, threshold_pct=None, regressed=False),
        ]
        text = render_diff(deltas, label_a="a.json", label_b="b.json")
        assert text == "\n".join([
            "metric                          a.json        b.json"
            "     delta    budget  verdict",
            "wall_seconds                         2           2.5"
            "    +25.0%       10%  REGRESSED",
            "peak_rss_bytes                     n/a          4096"
            "       n/a       10%  ok",
            "stage/global                         1             1"
            "     +0.0%         -  info",
            "REGRESSION: wall_seconds exceeded budget",
        ])

    def test_clean_verdict_line(self):
        text = render_diff([])
        assert text.endswith("no regressions within budget")


class TestObsDiffCli:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_clean_diff_exits_zero(self, manifest, capsys, tmp_path):
        a = self._write(tmp_path, "a.json", manifest())
        b = self._write(tmp_path, "b.json", manifest())
        assert main(["obs", "diff", a, b]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_one(self, manifest, capsys, tmp_path):
        a = self._write(tmp_path, "a.json", manifest(wall=2.0))
        b = self._write(tmp_path, "b.json", manifest(wall=2.5))
        assert main(["obs", "diff", a, b]) == 1
        assert "REGRESSION: wall_seconds" in capsys.readouterr().out

    def test_quality_regression_exits_one_even_when_faster(
            self, manifest, capsys, tmp_path):
        a = self._write(tmp_path, "a.json",
                        manifest(wall=2.0, objective=100.0))
        b = self._write(tmp_path, "b.json",
                        manifest(wall=1.0, objective=102.0))
        assert main(["obs", "diff", a, b]) == 1
        assert "REGRESSION: objective exceeded" in \
            capsys.readouterr().out

    def test_unprofiled_runs_gate_on_the_peak_rss_gauge(
            self, manifest, capsys, tmp_path):
        def unprofiled(rss):
            return manifest(gauges={"resources/peak_rss_bytes": rss})

        a = self._write(tmp_path, "a.json", unprofiled(1000.0))
        b = self._write(tmp_path, "b.json", unprofiled(1200.0))
        assert main(["obs", "diff", a, b]) == 1
        assert "REGRESSION: peak_rss_bytes exceeded" in \
            capsys.readouterr().out

    def test_schema_failure_exits_two_naming_the_errors(
            self, manifest, capsys, tmp_path):
        """A document without metrics is refused, not diffed clean."""
        a = self._write(tmp_path, "a.json", manifest())
        broken = manifest()
        del broken["result"]
        b = self._write(tmp_path, "b.json", broken)
        for before, after in ((a, b), (b, a)):
            assert main(["obs", "diff", before, after]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{b}: $: missing required key 'result'" \
                in captured.err

    @pytest.mark.parametrize("document", [
        {},
        {"spans": {}, "wall_seconds": 1.0,
         "gauges": {"resources/peak_rss_bytes": 1200.0}}],
        ids=["empty", "telemetry-snapshot"])
    def test_non_manifest_exits_two(self, manifest, capsys, tmp_path,
                                    document):
        a = self._write(tmp_path, "a.json", manifest())
        b = self._write(tmp_path, "b.json", document)
        assert main(["obs", "diff", a, b]) == 2
        captured = capsys.readouterr()
        assert "no regressions" not in captured.out
        assert f"{b}: $: missing required key 'kind'" in captured.err

    def test_unreadable_input_exits_two(self, manifest, capsys,
                                        tmp_path):
        a = self._write(tmp_path, "a.json", manifest())
        assert main(["obs", "diff", a,
                     str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_object_input_exits_two(self, manifest, capsys,
                                        tmp_path):
        a = self._write(tmp_path, "a.json", manifest())
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["obs", "diff", a, str(bad)]) == 2
        assert f"{bad}: $: expected type object, got list" in \
            capsys.readouterr().err
