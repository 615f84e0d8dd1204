"""The composable stage pipeline: registry, spec, runner, context.

Covers the stage registry (lookup, options validation, duplicates),
PipelineSpec JSON round-trips with unknown-key rejection, unit-label
enumeration, the default spec's equivalence to the historical flow,
drop-in alternate global stages, the preempt hook's stop boundaries,
and the context's idempotent TRR-net ownership.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import PlacementConfig
from repro.core.context import PlacementContext
from repro.core.detailed import check_legal
from repro.core.pipeline import (PipelineHalted, PipelineSpec,
                                 PlacementPipeline, RepeatEntry,
                                 StageEntry, default_pipeline_spec)
from repro.core.placer import Placer3D
from repro.core.stages import (Stage, available_stages, create_stage,
                               get_stage, register_stage)
from repro.netlist.generator import GeneratorSpec, generate_netlist


def _netlist(num_cells: int = 60, seed: int = 11):
    return generate_netlist(GeneratorSpec(
        name="pipe", num_cells=num_cells,
        total_area=num_cells * 5e-12, seed=seed))


class TestStageRegistry:
    def test_all_core_stages_registered(self):
        names = available_stages()
        for expected in ("global", "quadratic", "random", "moves",
                         "cellshift", "detailed", "refine"):
            assert expected in names

    def test_get_stage_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown stage"):
            get_stage("nope")

    def test_create_stage_rejects_bad_options(self):
        with pytest.raises(ValueError, match="bad options for stage"):
            create_stage("moves", {"bogus_option": 1})

    def test_create_stage_applies_options(self):
        stage = create_stage("quadratic", {"iterations": 4})
        assert getattr(stage, "iterations") == 4

    @pytest.mark.parametrize("name, option", [
        ("global", "workers"), ("moves", "passes"), ("refine", "passes")])
    def test_options_shadowing_config_fields_rejected(self, name, option):
        # num_workers, move_passes and refine_passes are config fields;
        # a spec cannot carry a second knob for the same setting
        with pytest.raises(ValueError, match="bad options for stage"):
            create_stage(name, {option: 2})

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_stage("moves")
            class Duplicate(Stage):
                pass

    def test_needs_objective_split(self):
        assert get_stage("global").needs_objective is False
        assert get_stage("quadratic").needs_objective is False
        assert get_stage("moves").needs_objective is True
        assert get_stage("detailed").needs_objective is True


class TestPipelineSpec:
    def test_default_spec_shape(self):
        spec = default_pipeline_spec(
            PlacementConfig(legalization_rounds=2, refine_passes=1))
        assert isinstance(spec.entries[0], StageEntry)
        assert spec.entries[0].stage == "global"
        repeat = spec.entries[1]
        assert isinstance(repeat, RepeatEntry)
        assert repeat.rounds == 2
        assert [s.stage for s in repeat.stages] == \
            ["moves", "cellshift", "detailed", "refine"]

    def test_default_spec_drops_refine_when_disabled(self):
        spec = default_pipeline_spec(PlacementConfig(refine_passes=0))
        repeat = spec.entries[1]
        assert isinstance(repeat, RepeatEntry)
        assert [s.stage for s in repeat.stages] == \
            ["moves", "cellshift", "detailed"]

    def test_round_trip_through_dict(self):
        spec = default_pipeline_spec(
            PlacementConfig(legalization_rounds=3))
        again = PipelineSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.to_dict() == spec.to_dict()

    def test_round_trip_through_json_file(self, tmp_path):
        spec = PipelineSpec(entries=(
            StageEntry("quadratic", {"iterations": 2}),
            RepeatEntry(stages=(StageEntry("moves"),
                                StageEntry("detailed")), rounds=2),
        ))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert PipelineSpec.from_json_file(path) == spec

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline-spec"):
            PipelineSpec.from_dict({"pipeline": [], "stages": []})

    def test_unknown_stage_entry_key_rejected(self):
        with pytest.raises(ValueError, match="unknown stage-entry"):
            PipelineSpec.from_dict(
                {"pipeline": [{"stage": "moves", "pases": 2}]})

    def test_snapshot_best_key_rejected(self):
        # every repeat group keeps its best round; there is no opt-out
        with pytest.raises(ValueError, match="unknown repeat-group"):
            PipelineSpec.from_dict({"pipeline": [{"repeat": {
                "rounds": 1, "snapshot_best": False,
                "stages": [{"stage": "moves"}]}}]})

    def test_unknown_repeat_key_rejected(self):
        with pytest.raises(ValueError, match="unknown repeat-group"):
            PipelineSpec.from_dict({"pipeline": [{"repeat": {
                "rounds": 1, "stage": [],
                "stages": [{"stage": "moves"}]}}]})

    def test_unknown_stage_name_rejected(self):
        with pytest.raises(ValueError, match="unknown stage"):
            PipelineSpec.from_dict({"pipeline": [{"stage": "warp"}]})

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="at least one entry"):
            PipelineSpec(entries=())

    def test_repeat_needs_rounds_and_stages(self):
        with pytest.raises(ValueError, match="rounds must be >= 1"):
            RepeatEntry(stages=(StageEntry("moves"),), rounds=0)
        with pytest.raises(ValueError, match="at least one stage"):
            RepeatEntry(stages=(), rounds=1)

    def test_units_enumeration(self):
        spec = PipelineSpec(entries=(
            StageEntry("global"),
            RepeatEntry(stages=(StageEntry("moves"),
                                StageEntry("detailed")), rounds=2),
        ))
        assert spec.units() == [
            "0:global",
            "1:round1/moves", "1:round1/detailed", "1:round1/end",
            "1:round2/moves", "1:round2/detailed", "1:round2/end",
            "1:end",
        ]

    def test_round_numbering_spans_repeat_groups(self):
        spec = PipelineSpec(entries=(
            RepeatEntry(stages=(StageEntry("moves"),), rounds=1),
            RepeatEntry(stages=(StageEntry("detailed"),), rounds=1),
        ))
        labels = spec.units()
        assert "0:round1/moves" in labels
        assert "1:round2/detailed" in labels
        assert spec.total_rounds == 2


class TestDefaultPipelineEquivalence:
    def test_explicit_default_spec_matches_implicit(self):
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=3, seed=3,
                                 legalization_rounds=2)
        a = Placer3D(_netlist(), config).run()
        b = Placer3D(_netlist(), config,
                     spec=default_pipeline_spec(config)).run()
        assert np.array_equal(a.placement.x, b.placement.x)
        assert np.array_equal(a.placement.y, b.placement.y)
        assert np.array_equal(a.placement.z, b.placement.z)
        assert a.objective == b.objective

    def test_stage_and_round_seconds_derived_from_spec(self):
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=2, seed=0,
                                 legalization_rounds=2)
        result = Placer3D(_netlist(40), config).run()
        for stage in ("global", "objective_build", "moves",
                      "cellshift", "detailed", "refine"):
            assert stage in result.stage_seconds
        assert len(result.round_seconds) == 2
        assert all("moves" in rnd for rnd in result.round_seconds)


class TestAlternateGlobalStages:
    @pytest.mark.parametrize("global_stage", ["quadratic", "random"])
    def test_swapped_global_stage_runs_and_legalizes(self, global_stage):
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=2, seed=0)
        spec = PipelineSpec(entries=(
            StageEntry(global_stage),
            RepeatEntry(stages=(StageEntry("moves"),
                                StageEntry("cellshift"),
                                StageEntry("detailed"))),
        ))
        result = Placer3D(_netlist(40), config, spec=spec).run()
        check_legal(result.placement)
        assert result.objective > 0

    def test_quadratic_stage_options_flow_from_spec(self):
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=2, seed=0)
        spec = PipelineSpec(entries=(
            StageEntry("quadratic", {"iterations": 1}),
            RepeatEntry(stages=(StageEntry("detailed"),)),
        ))
        result = Placer3D(_netlist(40), config, spec=spec).run()
        check_legal(result.placement)


class TestHaltAfter:
    def test_halt_raises_with_unit_label(self):
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=2, seed=0)
        placer = Placer3D(_netlist(40), config)
        with pytest.raises(PipelineHalted) as excinfo:
            placer.run(preempt=lambda unit: unit == "1:round1/moves")
        assert excinfo.value.unit == "1:round1/moves"
        assert excinfo.value.directory is None

    def test_halt_matches_fully_qualified_label(self):
        """The hook sees each unit's ``idx:name`` label, in order."""
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=2, seed=0)
        seen = []

        def hook(unit):
            seen.append(unit)
            return unit == "0:global"

        with pytest.raises(PipelineHalted):
            Placer3D(_netlist(40), config).run(preempt=hook)
        assert seen == ["0:global"]

        def record(unit):
            seen.append(unit)
            return False

        seen.clear()
        Placer3D(_netlist(40), config).run(preempt=record)
        assert seen == default_pipeline_spec(config).units()


class TestContextTrrOwnership:
    def _thermal_config(self):
        return PlacementConfig(alpha_ilv=1e-5, alpha_temp=1e-5,
                               num_layers=2, seed=0)

    def test_trr_injection_idempotent_across_contexts(self):
        netlist = _netlist(30)
        config = self._thermal_config()
        first = PlacementContext.create(netlist, config)
        nets_after_first = netlist.num_nets
        second = PlacementContext.create(netlist, config)
        assert netlist.num_nets == nets_after_first
        assert first.trr_net_ids == second.trr_net_ids
        assert len(first.trr_net_ids) == \
            sum(1 for c in netlist.cells if c.movable)

    def test_trr_skipped_when_thermal_off(self):
        netlist = _netlist(30)
        before = netlist.num_nets
        ctx = PlacementContext.create(
            netlist, PlacementConfig(alpha_ilv=1e-5, alpha_temp=0.0))
        assert netlist.num_nets == before
        assert ctx.trr_net_ids == {}

    def test_rerunning_one_placer_does_not_duplicate_nets(self):
        netlist = _netlist(30)
        placer = Placer3D(netlist, self._thermal_config())
        placer.run()
        nets_after_first = netlist.num_nets
        placer.run()
        assert netlist.num_nets == nets_after_first


class TestContextObjectiveLifecycle:
    def test_objective_lazy_and_cached(self):
        ctx = PlacementContext.create(
            _netlist(30), PlacementConfig(alpha_ilv=1e-5, num_layers=2))
        assert not ctx.objective_built
        first = ctx.objective
        assert ctx.objective_built
        assert ctx.objective is first

    def test_invalidate_forces_rebuild(self):
        ctx = PlacementContext.create(
            _netlist(30), PlacementConfig(alpha_ilv=1e-5, num_layers=2))
        first = ctx.objective
        ctx.invalidate_objective()
        assert not ctx.objective_built
        assert ctx.objective is not first


class TestPipelineRunnerDirect:
    def test_runner_completes_all_units(self):
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=2, seed=0)
        ctx = PlacementContext.create(_netlist(40), config)
        spec = default_pipeline_spec(config)
        pipeline = PlacementPipeline(spec, ctx)
        pipeline.run()
        assert pipeline._completed == spec.units()
        check_legal(ctx.placement)
