"""Checkpoint/resume: bit-identical continuation from any boundary.

The acceptance contract: interrupt a run after *any* stage boundary of
the default pipeline, resume from the checkpoint directory, and the
final ``.pl`` coordinates are bit-identical to the uninterrupted run —
for every boundary, including mid-round, round-end bookkeeping and the
best-snapshot restore.  Also covers the checkpoint file format, schema
validation, torn-write detection and resume-against-wrong-run refusal.
"""

from __future__ import annotations

import builtins
import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.checkpoint import (CheckpointError, checkpoint_paths,
                                   has_checkpoint, load_checkpoint,
                                   save_checkpoint, verify_matches)
from repro.core.config import PlacementConfig
from repro.core.context import PlacementContext
from repro.core.objective import ObjectiveState
from repro.core.pipeline import PipelineHalted, default_pipeline_spec
from repro.core.placer import Placer3D
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.net import PinRole
from repro.netlist.netlist import Netlist
from repro.netlist.suite import load_benchmark
from repro.obs.manifest import validate_checkpoint_meta


def _netlist(num_cells: int = 50, seed: int = 17):
    return generate_netlist(GeneratorSpec(
        name="ckpt", num_cells=num_cells,
        total_area=num_cells * 5e-12, seed=seed))


def _rewired(netlist):
    """A copy of ``netlist`` whose first net has one sink pin moved to
    another cell."""
    copy = Netlist(netlist.name)
    for cell in netlist.cells:
        copy.add_cell(cell.name, cell.width, cell.height, fixed=cell.fixed,
                      fixed_position=cell.fixed_position)
    first, *rest = netlist.nets
    pins = list(first.pins)
    sink = next(k for k, (_, role) in enumerate(pins)
                if role is PinRole.SINK)
    spare = min(set(range(netlist.num_cells)) - set(first.cell_ids))
    pins[sink] = (spare, PinRole.SINK)
    copy.add_net(first.name, pins, activity=first.activity)
    for net in rest:
        copy.add_net(net.name, net.pins, activity=net.activity)
    return copy


def _config(**overrides) -> PlacementConfig:
    base = dict(alpha_ilv=1e-5, num_layers=2, seed=5,
                legalization_rounds=2, refine_passes=1)
    base.update(overrides)
    return PlacementConfig(**base)


def _stop_after(unit):
    """A ``preempt`` hook that stops the run after ``unit``."""
    return lambda done: done == unit


def _assert_resumes_bit_identically(tmp_path, make_netlist, config,
                                    units):
    """Halt a run after each of ``units``, resume it, and require the
    uninterrupted run's final placement and objective, bit for bit."""
    reference = Placer3D(make_netlist(), config).run()
    for unit in units:
        ckpt_dir = tmp_path / unit.replace("/", "_").replace(":", "-")
        with pytest.raises(PipelineHalted):
            Placer3D(make_netlist(), config).run(
                checkpoint_dir=ckpt_dir, preempt=_stop_after(unit))
        assert has_checkpoint(ckpt_dir)
        resumed = Placer3D(make_netlist(), config).run(
            checkpoint_dir=ckpt_dir, resume=True)
        for axis in ("x", "y", "z"):
            assert np.array_equal(getattr(resumed.placement, axis),
                                  getattr(reference.placement, axis)), unit
        assert resumed.objective == reference.objective, unit


class TestResumeBitIdentical:
    def test_every_default_boundary_resumes_bit_identically(self,
                                                            tmp_path):
        """Interrupt after EACH unit of the default spec and resume."""
        config = _config()
        units = default_pipeline_spec(config).units()
        assert len(units) == 12  # global + 2*(4 stages + end) + end
        _assert_resumes_bit_identically(tmp_path, _netlist, config, units)

    def test_thermal_run_resumes_bit_identically(self, tmp_path):
        config = _config(alpha_temp=1e-5, legalization_rounds=1,
                         refine_passes=0)
        _assert_resumes_bit_identically(
            tmp_path, lambda: _netlist(40), config, ["1:round1/cellshift"])

    def test_ibm01_resumes_bit_identically_from_every_boundary(
            self, tmp_path):
        """A net's span as a small apply writes it and as a rebuild
        writes it can differ in the last bit: after ``moves`` dozens of
        ibm01@0.03 nets hold the former, and resume must keep them."""
        netlist = load_benchmark("ibm01", scale=0.03)
        config = PlacementConfig(seed=0)
        _assert_resumes_bit_identically(
            tmp_path, lambda: netlist, config,
            default_pipeline_spec(config).units())

    def test_thermal_ibm01_resumes_after_moves(self, tmp_path):
        """The same for a thermal run halted after ``moves``, with the
        driver resistance sums maintained at the boundary."""
        netlist = load_benchmark("ibm01", scale=0.05)
        config = PlacementConfig(alpha_temp=1e-3, seed=1,
                                 legalization_rounds=2)
        _assert_resumes_bit_identically(
            tmp_path, lambda: netlist, config, ["1:round1/moves"])

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


class TestObjectiveCheckpointState:
    def test_restore_brings_back_history_dependent_bits(self):
        """After small applies, some nets' spans and driver resistance
        sums differ from a rebuild's in the last bits; a restore must
        bring back the saved bits."""
        config = PlacementConfig(alpha_temp=1e-5, seed=0)
        ctx = PlacementContext.create(load_benchmark("ibm01", scale=0.03),
                                      config)
        pl, chip = ctx.placement, ctx.placement.chip
        rng = np.random.default_rng(0)
        pl.x[:] = rng.random(len(pl.x)) * chip.width
        pl.y[:] = rng.random(len(pl.y)) * chip.height
        state = ctx.objective
        state.optimal_region_centers([0])  # extreme caches current
        movable = [c.id for c in ctx.netlist.cells if c.movable]
        for cid in rng.choice(movable, size=300):
            state.apply_moves([(int(cid), rng.random() * chip.width,
                                rng.random() * chip.height,
                                int(rng.integers(chip.num_layers)))])
        power, total, wl, drv_rsum = state.checkpoint_state()
        assert drv_rsum is not None
        resumed = ObjectiveState(pl.copy(), config, state.power_model)
        resumed._refresh_extremes()
        assert not np.array_equal(resumed._wl, wl)
        assert not np.array_equal(resumed._drv_rsum, drv_rsum)
        resumed.restore_checkpoint(power, total, wl, drv_rsum)
        assert resumed.total == state.total
        for name in ("_power", "_wl", "_ilv", "_drv_rsum"):
            assert np.array_equal(getattr(resumed, name),
                                  getattr(state, name)), name
        for mine, theirs in zip(resumed._ext_stack, state._ext_stack):
            assert np.array_equal(mine, theirs)


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
        assert data.wl is not None
        assert data.wl.shape == (ctx.netlist.num_nets,)
        assert data.drv_rsum is None  # not a thermal run
        assert data.x.shape == ctx.placement.x.shape

    def test_missing_arrays_detected_as_torn_write(self, tmp_path):
        ckpt_dir, _ = self._halted_checkpoint(tmp_path)
        _, npz_path = checkpoint_paths(ckpt_dir)
        npz_path.unlink()
        assert not has_checkpoint(ckpt_dir)
        with pytest.raises(CheckpointError, match="torn write"):
            load_checkpoint(ckpt_dir)

    def test_thermal_checkpoint_carries_driver_sums(self, tmp_path):
        config = _config(alpha_temp=1e-5, legalization_rounds=1,
                         refine_passes=0)
        ckpt_dir = tmp_path / "thermal-fmt"
        with pytest.raises(PipelineHalted):
            Placer3D(_netlist(40), config).run(
                checkpoint_dir=ckpt_dir,
                preempt=_stop_after("1:round1/moves"))
        data = load_checkpoint(ckpt_dir)
        assert data.drv_rsum is not None
        assert data.drv_rsum.shape == data.wl.shape

    def test_checkpoint_without_spans_refused(self, tmp_path):
        ckpt_dir, _ = self._halted_checkpoint(tmp_path)
        _, npz_path = checkpoint_paths(ckpt_dir)
        with np.load(str(npz_path)) as arrays:
            kept = {k: arrays[k] for k in arrays.files if k != "wl"}
        np.savez(str(npz_path), **kept)
        with pytest.raises(CheckpointError, match="no wl array"):
            load_checkpoint(ckpt_dir)

    def test_corrupt_metadata_rejected(self, tmp_path):
        ckpt_dir, _ = self._halted_checkpoint(tmp_path)
        meta_path, _ = checkpoint_paths(ckpt_dir)
        meta = json.loads(meta_path.read_text())
        del meta["spec_hash"]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CheckpointError, match="schema validation"):
            load_checkpoint(ckpt_dir)

    def test_missing_checkpoint_dir_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "nothing")


@pytest.fixture(scope="module")
def ibm01_runs(tmp_path_factory):
    """ibm01 at scale 0.03: the straight run's result, and the
    checkpoint a run halted after ``1:round1/moves`` leaves."""
    netlist = load_benchmark("ibm01", scale=0.03)
    config = PlacementConfig(seed=0)
    straight = Placer3D(netlist, config).run()
    halted = tmp_path_factory.mktemp("halted")
    with pytest.raises(PipelineHalted):
        Placer3D(netlist, config).run(
            checkpoint_dir=halted, preempt=_stop_after("1:round1/moves"))
    return netlist, config, straight, load_checkpoint(halted)


class TestFailedSaves:
    """A save that fails leaves the previous checkpoint whole.

    The run's third save (after ``1:round1/cellshift``) fails inside
    the arrays write, between the arrays and the metadata writes, or
    inside the metadata write.  The checkpoint must still be the one of
    the second boundary, arrays and all, and resuming from it must end
    on the straight run's placement.
    """

    @staticmethod
    def _fail_third_save(monkeypatch, where):
        import repro.core.checkpoint as ckpt_mod

        saving = []
        save = ckpt_mod.save_checkpoint

        def counted_save(*args, **kwargs):
            saving.append(True)
            try:
                return save(*args, **kwargs)
            finally:
                saving[-1] = False

        def failing(real, partial):
            def call(*args, **kwargs):
                if len(saving) != 3 or not saving[-1]:
                    return real(*args, **kwargs)
                if partial is not None:
                    partial(*args, **kwargs)
                raise OSError(28, f"injected failure {where}")
            return call

        def half_arrays(file, **arrays):
            buffer = io.BytesIO()
            real_savez(buffer, **arrays)
            data = buffer.getvalue()[:len(buffer.getvalue()) // 2]
            if hasattr(file, "write"):
                file.write(data)
            else:
                with open(file, "wb") as fh:
                    fh.write(data)

        def half_document(obj, fh, **kwargs):
            text = json.dumps(obj, **kwargs)
            fh.write(text[:len(text) // 2])

        real_open = builtins.open

        def metadata_open(file, mode="r", *args, **kwargs):
            # the metadata file cannot be created: nothing of it is
            # written, the arrays are
            if "w" in mode and Path(file).name.startswith(
                    "checkpoint.json"):
                return failing(real_open, None)(file, mode, *args,
                                                **kwargs)
            return real_open(file, mode, *args, **kwargs)

        real_savez = np.savez
        monkeypatch.setattr(ckpt_mod, "save_checkpoint", counted_save)
        if where == "in the arrays write":
            monkeypatch.setattr(np, "savez", failing(np.savez,
                                                     half_arrays))
        elif where == "between the writes":
            monkeypatch.setattr(builtins, "open", metadata_open)
        else:
            monkeypatch.setattr(json, "dump", failing(json.dump,
                                                      half_document))

    @pytest.mark.parametrize("where", ["in the arrays write",
                                       "between the writes",
                                       "in the metadata write"])
    def test_previous_checkpoint_survives(self, tmp_path, monkeypatch,
                                          ibm01_runs, where):
        netlist, config, straight, at_moves = ibm01_runs
        self._fail_third_save(monkeypatch, where)
        with pytest.raises(OSError, match=where):
            Placer3D(netlist, config).run(checkpoint_dir=tmp_path)
        monkeypatch.undo()

        data = load_checkpoint(tmp_path)
        assert data.completed == ["0:global", "1:round1/moves"]
        for name in ("x", "y", "z", "power", "wl"):
            assert np.array_equal(getattr(data, name),
                                  getattr(at_moves, name)), name
        # and the failed save removed what it wrote
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["checkpoint.json", data.meta["arrays_file"]]
        resumed = Placer3D(netlist, config).run(checkpoint_dir=tmp_path,
                                                resume=True)
        for axis in ("x", "y", "z"):
            assert np.array_equal(getattr(resumed.placement, axis),
                                  getattr(straight.placement, axis))
        assert resumed.objective == straight.objective


class TestArraysFile:
    def _checkpoint(self, tmp_path):
        config = _config(legalization_rounds=1, refine_passes=0)
        ckpt_dir = tmp_path / "arrays"
        with pytest.raises(PipelineHalted):
            Placer3D(_netlist(40), config).run(
                checkpoint_dir=ckpt_dir,
                preempt=_stop_after("1:round1/cellshift"))
        return ckpt_dir

    def test_truncated_metadata_raises_checkpoint_error(self, tmp_path):
        ckpt_dir = self._checkpoint(tmp_path)
        meta_path, _ = checkpoint_paths(ckpt_dir)
        text = meta_path.read_text()
        meta_path.write_text(text[:len(text) // 2])
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(ckpt_dir)

    def test_saves_alternate_and_leave_one_arrays_file(self, tmp_path):
        ckpt_dir = self._checkpoint(tmp_path)
        files = sorted(p.name for p in ckpt_dir.iterdir())
        # three saves: state-0, state-1, state-0
        assert files == ["checkpoint.json", "state-0.npz"]
        assert checkpoint_paths(ckpt_dir)[1].name == "state-0.npz"

    def test_legacy_state_npz_loads(self, tmp_path):
        ckpt_dir = self._checkpoint(tmp_path)
        before = load_checkpoint(ckpt_dir)
        meta_path, npz_path = checkpoint_paths(ckpt_dir)
        npz_path.rename(ckpt_dir / "state.npz")
        meta = json.loads(meta_path.read_text())
        meta["arrays_file"] = "state.npz"
        meta_path.write_text(json.dumps(meta))
        assert has_checkpoint(ckpt_dir)
        after = load_checkpoint(ckpt_dir)
        assert after.completed == before.completed
        assert np.array_equal(after.x, before.x)

    @pytest.mark.parametrize("name", ["../state-0.npz", "sub/state-0.npz",
                                      "/tmp/state-0.npz", "", ".."])
    def test_arrays_file_outside_directory_refused(self, tmp_path, name):
        ckpt_dir = self._checkpoint(tmp_path)
        meta_path, _ = checkpoint_paths(ckpt_dir)
        meta = json.loads(meta_path.read_text())
        meta["arrays_file"] = name
        meta_path.write_text(json.dumps(meta))
        assert not has_checkpoint(ckpt_dir)
        with pytest.raises(CheckpointError, match="arrays file"):
            load_checkpoint(ckpt_dir)


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

    def test_rewired_netlist_refused(self, tmp_path):
        config = _config(legalization_rounds=1)
        ckpt_dir = self._checkpoint(tmp_path, config)
        rewired = _rewired(_netlist(40))

        def counts(n):
            return (n.name, n.num_cells, n.num_nets, n.num_movable,
                    n.num_pins())

        # the same name and counts: only the content hash differs
        assert counts(rewired) == counts(_netlist(40))
        with pytest.raises(CheckpointError,
                           match="checkpoint netlist .*'ckpt'"):
            Placer3D(rewired, config).run(
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
        assert data.wl is None
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
