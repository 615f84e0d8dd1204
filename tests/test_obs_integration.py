"""End-to-end telemetry test: place with a live recorder and check the
whole observability surface at once.

This is the convergence-audit test the ISSUE asks for: the per-round
Eq. 3 decomposition must be present for every coarse round, the best
objective must be monotone non-increasing, the manifest must validate
against the packaged schema, and the span tree must agree with the
reported wall time.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import Placer3D
from repro.core.pipeline import default_pipeline_spec
from repro.obs import (
    EventSink,
    Recorder,
    build_manifest,
    read_events,
    render,
    validate_manifest,
)

ROUNDS = 2


@pytest.fixture(scope="module")
def telemetry_run(tmp_path_factory):
    """One instrumented placement of the small netlist, shared."""
    # module-level imports of the fixtures aren't possible; rebuild the
    # conftest small netlist + config inline to allow module scoping
    from repro.core.config import PlacementConfig
    from repro.netlist.generator import GeneratorSpec, generate_netlist

    netlist = generate_netlist(GeneratorSpec(
        name="small", num_cells=120, total_area=120 * 5e-12, seed=7))
    config = dataclasses.replace(
        PlacementConfig(alpha_ilv=1e-5, alpha_temp=0.0, num_layers=4,
                        seed=0),
        legalization_rounds=ROUNDS)
    trace_path = str(tmp_path_factory.mktemp("telemetry") / "run.jsonl")
    recorder = Recorder(sink=EventSink(trace_path))
    result = Placer3D(netlist, config, recorder=recorder).run(check=True)
    recorder.close()
    return netlist, config, result, trace_path


class TestConvergenceSeries:
    def test_round_series_has_all_eq3_terms_per_round(self, telemetry_run):
        _, _, result, _ = telemetry_run
        points = result.telemetry.series["placer/round"]
        assert len(points) == ROUNDS
        for point in points:
            for key in ("round", "objective", "best_objective",
                        "wl_term", "ilv_term", "thermal_term"):
                assert key in point
            # Eq. 3: the objective is exactly the sum of its terms
            assert point["objective"] == pytest.approx(
                point["wl_term"] + point["ilv_term"]
                + point["thermal_term"], rel=1e-9)

    def test_best_objective_is_monotone_non_increasing(self, telemetry_run):
        _, _, result, _ = telemetry_run
        best = [p["best_objective"]
                for p in result.telemetry.series["placer/round"]]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best, best[1:]))
        assert best[-1] == pytest.approx(result.objective, rel=1e-9)


class TestSpanTree:
    def test_round_seconds_reports_each_round_separately(self,
                                                        telemetry_run):
        _, _, result, _ = telemetry_run
        assert len(result.round_seconds) == ROUNDS
        for per_round in result.round_seconds:
            for stage in ("moves", "cellshift", "detailed"):
                assert per_round[stage] > 0.0

    def test_flat_stage_seconds_sum_the_rounds(self, telemetry_run):
        _, config, result, _ = telemetry_run
        for stage in default_pipeline_spec(config).round_stage_names():
            if stage not in result.stage_seconds:
                continue
            total = sum(r.get(stage, 0.0) for r in result.round_seconds)
            assert result.stage_seconds[stage] == pytest.approx(total)

    def test_span_total_agrees_with_wall_time(self, telemetry_run):
        _, _, result, _ = telemetry_run
        wall = result.telemetry.wall_seconds
        assert wall == pytest.approx(result.runtime_seconds, rel=0.05)
        stage_sum = sum(result.stage_seconds.values())
        # stages are nested inside the place span, never exceed it
        assert stage_sum <= wall * 1.01

    def test_deep_counters_reach_the_ambient_recorder(self, telemetry_run):
        _, _, result, _ = telemetry_run
        counters = result.telemetry.counters
        assert counters["fm/passes"] > 0
        assert counters["moves/candidates"] > 0
        assert counters["global/bisections"] > 0
        assert counters["detailed/cells_placed"] > 0


class TestTraceAndManifest:
    def test_trace_jsonl_parses_and_carries_spans(self, telemetry_run):
        _, _, _, trace_path = telemetry_run
        events = read_events(trace_path)
        types = {e["type"] for e in events}
        assert "span" in types
        assert "series" in types
        span_paths = {e["path"] for e in events if e["type"] == "span"}
        assert "place" in span_paths
        assert any(p.startswith("place/round1/") for p in span_paths)
        assert any(p.startswith("place/round2/") for p in span_paths)

    def test_manifest_is_schema_valid_and_complete(self, telemetry_run):
        netlist, config, result, trace_path = telemetry_run
        manifest = build_manifest(netlist, config, result,
                                  trace_path=trace_path)
        assert validate_manifest(manifest) == []
        assert len(manifest["rounds"]) == ROUNDS
        assert manifest["result"]["objective"] == pytest.approx(
            result.objective)
        paths = {row["path"] for row in manifest["stages"]}
        assert "place/global" in paths
        assert "place/round2/moves" in paths

    def test_report_renders_spans_counters_and_series(self, telemetry_run):
        _, _, result, _ = telemetry_run
        text = render(result.telemetry, title="small")
        assert "-- spans --" in text
        assert "place" in text
        assert "fm/passes" in text
        assert "placer/round" in text


class TestDefaultPathStillTimed:
    def test_without_recorder_stage_seconds_and_telemetry_exist(
            self, small_netlist, config):
        config = dataclasses.replace(config, legalization_rounds=1)
        result = Placer3D(small_netlist, config).run()
        assert result.runtime_seconds > 0.0
        assert result.stage_seconds["global"] > 0.0
        assert len(result.round_seconds) == 1
        assert result.telemetry is not None
        # the ambient recorder stays null: deep counters are absent
        assert "fm/passes" not in result.telemetry.counters
