"""Preemption/resume: bit-identical placements around cancellation.

The service's cancellation contract: a running job stops cooperatively
at the next stage boundary (the preemption hook fires *after* that
boundary's checkpoint is saved), and a resumed job finishes
bit-identically to a never-interrupted run.  Covered at two levels:
the pipeline hook itself, preempted at every boundary of the default
spec, and the spooled job path, preempted by its document's
``cancel_requested`` field and requeued through the engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.checkpoint import has_checkpoint
from repro.core.config import PlacementConfig
from repro.core.pipeline import PipelineHalted, default_pipeline_spec
from repro.core.placer import Placer3D
from repro.netlist.bookshelf import read_bookshelf, write_bookshelf
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.service import PlacementEngine
from repro.service.jobstore import JobRequest
from repro.service import worker
from repro.service.worker import execute_job, run_job


def _netlist(num_cells: int = 50, seed: int = 17):
    return generate_netlist(GeneratorSpec(
        name="preempt", num_cells=num_cells,
        total_area=num_cells * 5e-12, seed=seed))


def _config(**overrides) -> PlacementConfig:
    base = dict(alpha_ilv=1e-5, num_layers=2, seed=5,
                legalization_rounds=2, refine_passes=1)
    base.update(overrides)
    return PlacementConfig(**base)


class _FireAt:
    """Preemption hook that fires on its n-th poll."""

    def __init__(self, fire_at: int) -> None:
        self.fire_at = fire_at
        self.calls = 0

    def __call__(self, unit: str) -> bool:
        self.calls += 1
        return self.calls == self.fire_at


class TestPreemptEveryBoundary:
    def test_every_default_boundary_preempts_and_resumes(self,
                                                         tmp_path):
        """Preempt after EACH unit of the default spec and resume."""
        config = _config()
        reference = Placer3D(_netlist(), config).run()
        ref_x = reference.placement.x.copy()
        ref_y = reference.placement.y.copy()
        ref_z = reference.placement.z.copy()
        units = default_pipeline_spec(config).units()
        assert len(units) == 12
        for index, unit in enumerate(units):
            ckpt_dir = tmp_path / f"boundary-{index:02d}"
            hook = _FireAt(index + 1)
            with pytest.raises(PipelineHalted) as excinfo:
                Placer3D(_netlist(), config).run(
                    checkpoint_dir=ckpt_dir, preempt=hook)
            # the hook fired right after this unit's checkpoint landed
            assert excinfo.value.unit == unit
            assert hook.calls == index + 1
            assert has_checkpoint(ckpt_dir)
            resumed = Placer3D(_netlist(), config).run(
                checkpoint_dir=ckpt_dir, resume=True)
            assert np.array_equal(resumed.placement.x, ref_x), unit
            assert np.array_equal(resumed.placement.y, ref_y), unit
            assert np.array_equal(resumed.placement.z, ref_z), unit
            assert resumed.objective == reference.objective, unit

    def test_preempted_resume_is_not_polled_for_done_units(self,
                                                           tmp_path):
        """A resumed run re-polls only the units it actually runs."""
        config = _config(legalization_rounds=1, refine_passes=0)
        units = default_pipeline_spec(config).units()
        ckpt_dir = tmp_path / "resume-polls"
        with pytest.raises(PipelineHalted):
            Placer3D(_netlist(40), config).run(
                checkpoint_dir=ckpt_dir, preempt=_FireAt(1))
        hook = _FireAt(len(units) + 1)  # never fires
        Placer3D(_netlist(40), config).run(
            checkpoint_dir=ckpt_dir, resume=True, preempt=hook)
        assert hook.calls == len(units) - 1


class TestServiceJobPreemption:
    def test_cancelled_job_resumes_bit_identically(self, tmp_path):
        config = _config(legalization_rounds=1, refine_passes=0)
        prefix = str(tmp_path / "preempt")
        write_bookshelf(prefix, _netlist(40))
        reference = Placer3D(read_bookshelf(prefix), config).run()

        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            request = JobRequest(config=config.to_dict(),
                                 bookshelf=prefix)
            job_id = engine.submit(request)
            # dispatch by hand and request the cancel while the job
            # runs, once its first boundary has passed: the worker
            # reads job.json at the next boundary and preempts there
            engine.store.transition(job_id, "running")
            units = default_pipeline_spec(config).units()

            def cancel_after_first_boundary(*args, preempt, **kwargs):
                def hook(unit):
                    stop = preempt(unit)
                    if unit == units[0]:
                        engine.store.request_cancel(job_id)
                    return stop
                return run_job(*args, preempt=hook, **kwargs)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(worker, "run_job",
                              cancel_after_first_boundary)
                outcome = execute_job(
                    {"job_dir": str(engine.store.job_dir(job_id))})
            assert outcome == {"state": "preempted", "unit": units[1]}
            # the request is the document's field: no file beside it
            assert sorted(p.name for p in
                          engine.store.job_dir(job_id).iterdir()) \
                == ["checkpoint", "job.json"]
            assert has_checkpoint(engine.store.checkpoint_dir(job_id))
            engine.scheduler.settle(
                job_id, engine.status(job_id)["hashes"]["cache_key"],
                outcome)
            parked = engine.status(job_id)
            assert parked["state"] == "cancelled"
            assert parked["preemptions"] == 1

            resumed = engine.resume(job_id)
            assert resumed["state"] == "queued"
            assert resumed["cancel_requested"] is False
            (document,) = engine.wait([job_id], timeout=120)
            assert document["state"] == "done"
            assert document["preemptions"] == 1

            arrays = np.load(
                engine.store.result_dir(job_id) / "placement.npz")
            assert np.array_equal(arrays["x"], reference.placement.x)
            assert np.array_equal(arrays["y"], reference.placement.y)
            assert np.array_equal(arrays["z"], reference.placement.z)
            assert document["result"]["objective"] \
                == pytest.approx(reference.objective)
