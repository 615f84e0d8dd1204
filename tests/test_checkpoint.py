"""Checkpoint/resume: bit-identical continuation from any boundary.

The acceptance contract: interrupt a run after *any* stage boundary of
the default pipeline, resume from the checkpoint directory, and the
final ``.pl`` coordinates are bit-identical to the uninterrupted run —
for every boundary, including mid-round, round-end bookkeeping and the
best-snapshot restore.  Also covers the checkpoint file format, schema
validation, torn-write detection and resume-against-wrong-run refusal.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.checkpoint import (CheckpointError, checkpoint_paths,
                                   has_checkpoint, load_checkpoint,
                                   save_checkpoint, verify_matches)
from repro.core.config import PlacementConfig
from repro.core.context import PlacementContext
from repro.core.pipeline import PipelineHalted, default_pipeline_spec
from repro.core.placer import Placer3D
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.obs.manifest import validate_checkpoint_meta


def _netlist(num_cells: int = 50, seed: int = 17):
    return generate_netlist(GeneratorSpec(
        name="ckpt", num_cells=num_cells,
        total_area=num_cells * 5e-12, seed=seed))


def _config(**overrides) -> PlacementConfig:
    base = dict(alpha_ilv=1e-5, num_layers=2, seed=5,
                legalization_rounds=2, refine_passes=1)
    base.update(overrides)
    return PlacementConfig(**base)


def _stop_after(unit):
    """A ``preempt`` hook that stops the run after ``unit``."""
    return lambda done: done == unit


def _final_arrays(result):
    pl = result.placement
    return pl.x.copy(), pl.y.copy(), pl.z.copy()


class TestResumeBitIdentical:
    def test_every_default_boundary_resumes_bit_identically(self,
                                                            tmp_path):
        """Interrupt after EACH unit of the default spec and resume."""
        config = _config()
        reference = Placer3D(_netlist(), config).run()
        ref_x, ref_y, ref_z = _final_arrays(reference)
        units = default_pipeline_spec(config).units()
        assert len(units) == 12  # global + 2*(4 stages + end) + end
        for unit in units:
            ckpt_dir = tmp_path / unit.replace("/", "_").replace(":", "-")
            with pytest.raises(PipelineHalted):
                Placer3D(_netlist(), config).run(
                    checkpoint_dir=ckpt_dir, preempt=_stop_after(unit))
            assert has_checkpoint(ckpt_dir)
            resumed = Placer3D(_netlist(), config).run(
                checkpoint_dir=ckpt_dir, resume=True)
            assert np.array_equal(resumed.placement.x, ref_x), unit
            assert np.array_equal(resumed.placement.y, ref_y), unit
            assert np.array_equal(resumed.placement.z, ref_z), unit
            assert resumed.objective == reference.objective, unit

    def test_thermal_run_resumes_bit_identically(self, tmp_path):
        config = _config(alpha_temp=1e-5, legalization_rounds=1,
                         refine_passes=0)
        reference = Placer3D(_netlist(40), config).run()
        ref_x, ref_y, ref_z = _final_arrays(reference)
        ckpt_dir = tmp_path / "thermal"
        with pytest.raises(PipelineHalted):
            Placer3D(_netlist(40), config).run(
                checkpoint_dir=ckpt_dir,
                preempt=_stop_after("1:round1/cellshift"))
        resumed = Placer3D(_netlist(40), config).run(
            checkpoint_dir=ckpt_dir, resume=True)
        assert np.array_equal(resumed.placement.x, ref_x)
        assert np.array_equal(resumed.placement.y, ref_y)
        assert np.array_equal(resumed.placement.z, ref_z)

    def test_resume_after_final_unit_returns_reference_result(self,
                                                              tmp_path):
        config = _config(legalization_rounds=1)
        reference = Placer3D(_netlist(40), config).run()
        ckpt_dir = tmp_path / "done"
        last = default_pipeline_spec(config).units()[-1]
        with pytest.raises(PipelineHalted):
            Placer3D(_netlist(40), config).run(
                checkpoint_dir=ckpt_dir, preempt=_stop_after(last))
        resumed = Placer3D(_netlist(40), config).run(
            checkpoint_dir=ckpt_dir, resume=True)
        assert np.array_equal(resumed.placement.x,
                              reference.placement.x)
        assert resumed.objective == reference.objective


class TestCheckpointFormat:
    def _halted_checkpoint(self, tmp_path):
        config = _config(legalization_rounds=1, refine_passes=0)
        ckpt_dir = tmp_path / "fmt"
        with pytest.raises(PipelineHalted):
            Placer3D(_netlist(40), config).run(
                checkpoint_dir=ckpt_dir,
                preempt=_stop_after("1:round1/moves"))
        return ckpt_dir, config

    def test_metadata_passes_schema_validation(self, tmp_path):
        ckpt_dir, _ = self._halted_checkpoint(tmp_path)
        meta_path, _ = checkpoint_paths(ckpt_dir)
        meta = json.loads(meta_path.read_text())
        assert validate_checkpoint_meta(meta) == []
        assert meta["kind"] == "repro.placement.checkpoint"
        assert meta["completed"] == ["0:global", "1:round1/moves"]
        assert meta["objective_built"] is True

    def test_created_unix_comes_from_obs_wall_time(self, tmp_path,
                                                   monkeypatch):
        # pins the RPL013 fix: checkpoint timestamps route through the
        # observability layer's single wall-clock touchpoint
        import repro.core.checkpoint as ckpt_mod
        monkeypatch.setattr(ckpt_mod, "wall_time",
                            lambda: 1181260800.0)
        ckpt_dir, _ = self._halted_checkpoint(tmp_path)
        meta_path, _ = checkpoint_paths(ckpt_dir)
        meta = json.loads(meta_path.read_text())
        assert meta["created_unix"] == 1181260800.0

    def test_loaded_checkpoint_matches_run(self, tmp_path):
        ckpt_dir, config = self._halted_checkpoint(tmp_path)
        data = load_checkpoint(ckpt_dir)
        ctx = PlacementContext.create(_netlist(40), config)
        spec_dict = default_pipeline_spec(config).to_dict()
        verify_matches(data, ctx, spec_dict)  # must not raise
        assert data.power is not None
        assert data.x.shape == ctx.placement.x.shape

    def test_missing_arrays_detected_as_torn_write(self, tmp_path):
        ckpt_dir, _ = self._halted_checkpoint(tmp_path)
        _, npz_path = checkpoint_paths(ckpt_dir)
        npz_path.unlink()
        assert not has_checkpoint(ckpt_dir)
        with pytest.raises(CheckpointError, match="torn write"):
            load_checkpoint(ckpt_dir)

    def test_corrupt_metadata_rejected(self, tmp_path):
        ckpt_dir, _ = self._halted_checkpoint(tmp_path)
        meta_path, _ = checkpoint_paths(ckpt_dir)
        meta = json.loads(meta_path.read_text())
        del meta["rng_state"]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CheckpointError, match="schema validation"):
            load_checkpoint(ckpt_dir)

    def test_missing_checkpoint_dir_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "nothing")


class TestResumeRefusals:
    def _checkpoint(self, tmp_path, config):
        ckpt_dir = tmp_path / "refuse"
        with pytest.raises(PipelineHalted):
            Placer3D(_netlist(40), config).run(
                checkpoint_dir=ckpt_dir, preempt=_stop_after("0:global"))
        return ckpt_dir

    def test_different_config_refused(self, tmp_path):
        config = _config(legalization_rounds=1)
        ckpt_dir = self._checkpoint(tmp_path, config)
        other = _config(legalization_rounds=1, seed=99)
        with pytest.raises(CheckpointError, match="config hash"):
            Placer3D(_netlist(40), other).run(
                checkpoint_dir=ckpt_dir, resume=True)

    def test_different_spec_refused(self, tmp_path):
        config = _config(legalization_rounds=1)
        ckpt_dir = self._checkpoint(tmp_path, config)
        from repro.core.pipeline import (PipelineSpec, RepeatEntry,
                                         StageEntry)
        other_spec = PipelineSpec(entries=(
            StageEntry("global"),
            RepeatEntry(stages=(StageEntry("detailed"),)),
        ))
        with pytest.raises(CheckpointError, match="spec hash"):
            Placer3D(_netlist(40), config, spec=other_spec).run(
                checkpoint_dir=ckpt_dir, resume=True)

    def test_different_netlist_refused(self, tmp_path):
        config = _config(legalization_rounds=1)
        ckpt_dir = self._checkpoint(tmp_path, config)
        with pytest.raises(CheckpointError, match="netlist"):
            Placer3D(_netlist(60), config).run(
                checkpoint_dir=ckpt_dir, resume=True)

    def test_resume_without_directory_refused(self):
        config = _config(legalization_rounds=1)
        with pytest.raises(CheckpointError,
                           match="without a checkpoint directory"):
            Placer3D(_netlist(40), config).run(resume=True)


class TestSaveCheckpointValidation:
    def test_save_before_objective_build_round_trips(self, tmp_path):
        config = _config(legalization_rounds=1)
        ctx = PlacementContext.create(_netlist(40), config)
        spec_dict = default_pipeline_spec(config).to_dict()
        save_checkpoint(tmp_path, ctx, spec_dict, completed=[])
        data = load_checkpoint(tmp_path)
        assert data.meta["objective_built"] is False
        assert data.power is None
        assert data.best is None
        verify_matches(data, ctx, spec_dict)

    def test_best_snapshot_round_trips(self, tmp_path):
        config = _config(legalization_rounds=1)
        ctx = PlacementContext.create(_netlist(40), config)
        spec_dict = default_pipeline_spec(config).to_dict()
        best = (1.25, ctx.placement.x.copy(), ctx.placement.y.copy(),
                ctx.placement.z.copy())
        save_checkpoint(tmp_path, ctx, spec_dict, completed=["0:global"],
                        best=best)
        data = load_checkpoint(tmp_path)
        assert data.best is not None
        assert data.best[0] == 1.25
        assert np.array_equal(data.best[1], ctx.placement.x)
