"""Running a job: one body for every path.

:func:`run_job` is the job body: it places the netlist with the
request's config and spec, writes the result artifacts and returns the
outcome the scheduler settles.  The engine's inline path
(``repro place``) calls it with the caller's netlist and recorder.

:func:`execute_job` is the spooled path's loader around it: a
module-level function of one picklable ``{"job_dir": ...}`` payload,
so the scheduler can dispatch it through either execution backend
unchanged — inline on :class:`~repro.parallel.SerialBackend`, in a
separate process on :class:`~repro.parallel.ProcessPoolBackend`.  It
rebuilds the netlist and recorder from the spooled ``job.json``.

Cancellation and resume both ride the checkpoint substrate: the run
always checkpoints into the job's ``checkpoint/`` directory, the
preemption hook reads the job document's ``cancel_requested`` field at
every stage boundary, and a requeued job resumes from the last
checkpoint — finishing bit-identically to an uninterrupted run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Union

import numpy as np

from repro import obs
from repro.core.checkpoint import has_checkpoint
from repro.core.config import PlacementConfig
from repro.core.pipeline import (PipelineHalted, PipelineSpec,
                                 default_pipeline_spec)
from repro.core.placer import Placer3D
from repro.metrics.report import PlacementReport, evaluate_placement
from repro.netlist import bookshelf
from repro.netlist.cache import (benchmark_key, bookshelf_key,
                                 cached_netlist)
from repro.netlist.netlist import Netlist
from repro.netlist.suite import load_benchmark
from repro.service.jobstore import JobRequest

__all__ = ["execute_job", "load_job_netlist", "result_summary",
           "run_job"]


def load_job_netlist(request: JobRequest, seed: int) -> Netlist:
    """Rebuild the netlist a job request describes.

    Loads go through the source-keyed netlist cache: a sweep's
    per-alpha jobs and service resubmissions of one circuit parse or
    generate it once and share the loaded netlist after that.
    """
    if request.circuit is not None:
        circuit = request.circuit
        return cached_netlist(
            benchmark_key(circuit, request.scale, seed),
            lambda: load_benchmark(circuit, scale=request.scale,
                                   seed=seed))
    assert request.bookshelf is not None
    prefix = request.bookshelf
    return cached_netlist(
        bookshelf_key(prefix),
        lambda: bookshelf.read_bookshelf(prefix))


def result_summary(result: Any,
                   report: PlacementReport) -> Dict[str, Any]:
    """The compact result section stored on job documents.

    Wirelength/ILV come from the metric ``report`` (the evaluated
    placement, what ``sweep`` tables print), the objective and wall
    time from the placer ``result``.
    """
    return {
        "objective": float(result.objective),
        "wirelength": float(report.wirelength),
        "ilv": int(report.ilv),
        "ilv_density": float(report.ilv_density),
        "wall_seconds": float(result.runtime_seconds),
    }


def run_job(document: Mapping[str, Any], result_dir: Path,
            netlist: Netlist, recorder: Optional[obs.Recorder], *,
            checkpoint_dir: Optional[Union[str, Path]] = None,
            resume: bool = False,
            preempt: Optional[Callable[[str], bool]] = None,
            ) -> Dict[str, Any]:
    """Run one job to its next boundary: done or preempted.

    The config and pipeline spec come from the job document's
    request; the netlist and recorder come from the caller, and the
    recorder is closed on every exit path.  A finished run has passed
    the check its spec implies and leaves ``placement.npz`` and
    ``manifest.json`` in ``result_dir``.

    Args:
        document: the job document (``job.json``).
        result_dir: where the result artifacts go.
        netlist: the circuit the request describes.
        recorder: telemetry recorder for the run, or ``None``; the
            manifest's ``trace_path`` is its sink's path.
        checkpoint_dir: serialize the run state here after every
            stage boundary.
        resume: continue from the last checkpoint in
            ``checkpoint_dir``.
        preempt: stop hook polled with each finished unit's label.

    Returns:
        ``{"state": "preempted", "unit": ...}`` when ``preempt``
        stopped the run at a stage boundary (checkpoint already
        saved), else ``{"state": "done", "summary": ...,
        "manifest_path": ..., "manifest_errors": [...],
        "telemetry": Telemetry | None}``.  Exceptions propagate.
    """
    trace_path = (recorder.sink.path
                  if recorder is not None and recorder.sink is not None
                  else None)
    try:
        request = JobRequest.from_dict(document["request"])
        config = PlacementConfig.from_dict(request.config)
        spec = (PipelineSpec.from_dict(request.spec)
                if request.spec is not None
                else default_pipeline_spec(config))
        result = Placer3D(netlist, config, recorder=recorder,
                          spec=spec).run(checkpoint_dir=checkpoint_dir,
                                         resume=resume, preempt=preempt)
    except PipelineHalted as stopped:
        return {"state": "preempted", "unit": stopped.unit}
    finally:
        if recorder is not None:
            recorder.close()

    report = evaluate_placement(result.placement, config.tech,
                                thermal=False)
    result_dir.mkdir(exist_ok=True)
    np.savez_compressed(result_dir / "placement.npz",
                        x=result.placement.x, y=result.placement.y,
                        z=result.placement.z)
    manifest = obs.build_manifest(
        netlist, config, result, trace_path=trace_path,
        pipeline=spec.to_dict(),
        job={"id": document["id"], "cache": "miss",
             "preemptions": int(document.get("preemptions", 0))})
    manifest_path = obs.write_manifest(result_dir / "manifest.json",
                                       manifest)
    if request.telemetry_prefix:
        obs.write_manifest(f"{request.telemetry_prefix}.manifest.json",
                           manifest)
    return {
        "state": "done",
        "summary": result_summary(result, report),
        "manifest_path": manifest_path,
        "manifest_errors": list(obs.validate_manifest(manifest)),
        "telemetry": result.telemetry,
    }


def execute_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Load one spooled job and :func:`run_job` it.

    The run checkpoints into the job's ``checkpoint/`` directory,
    resumes from it when a checkpoint is there, and stops at the first
    stage boundary at which ``job.json`` reads ``cancel_requested``.

    Args:
        payload: ``{"job_dir": <path>}`` — the job's spool directory
            (must contain ``job.json``).

    Returns:
        The :func:`run_job` outcome.  Exceptions propagate to the
        handle and park the job as ``failed``.
    """
    job_dir = Path(payload["job_dir"])
    doc_path = job_dir / "job.json"
    document = json.loads(doc_path.read_text(encoding="utf-8"))
    request = JobRequest.from_dict(document["request"])
    netlist = load_job_netlist(
        request, PlacementConfig.from_dict(request.config).seed)
    recorder: Optional[obs.Recorder] = None
    if request.want_telemetry or request.telemetry_prefix:
        recorder = obs.Recorder(sink=(
            obs.EventSink(f"{request.telemetry_prefix}.trace.jsonl")
            if request.telemetry_prefix else None))
    checkpoint_dir = job_dir / "checkpoint"

    def cancel_requested(unit: str) -> bool:
        text = doc_path.read_text(encoding="utf-8")
        return bool(json.loads(text)["cancel_requested"])

    return run_job(document, job_dir / "result", netlist, recorder,
                   checkpoint_dir=checkpoint_dir,
                   resume=has_checkpoint(checkpoint_dir),
                   preempt=cancel_requested)
