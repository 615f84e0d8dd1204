"""The placement engine: the façade every run path submits through.

``PlacementEngine`` composes the job store, the result cache, an
execution backend and the scheduler into one object with two modes:

- **Spooled** (``submit`` + ``wait``/``serve``): jobs execute as
  :func:`~repro.service.worker.execute_job` payloads on the backend —
  the ``sweep`` and ``serve`` paths.
- **Inline** (``run_inline``): the job runs on the calling thread with
  the caller's own netlist and recorder — the ``place`` path.

Both run the one job body, :func:`~repro.service.worker.run_job`, and
leave ``running`` through the one settle step,
:meth:`~repro.service.scheduler.Scheduler.settle`.  Either way the
result lands in the content-addressed cache, so a ``place`` today
seeds a cache hit for a ``sweep`` point tomorrow.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro import obs
from repro.core.config import PlacementConfig
from repro.core.pipeline import default_pipeline_spec
from repro.netlist.netlist import Netlist, netlist_hash
from repro.obs.manifest import config_hash, content_hash
from repro.parallel import create_backend
from repro.service.cache import CacheEntry, ResultCache, cache_key
from repro.service.jobstore import JobRequest, JobStateError, JobStore
from repro.service.scheduler import (POLL_SECONDS, Scheduler,
                                     fulfil_from_cache)
from repro.service.worker import load_job_netlist, run_job

__all__ = ["PlacementEngine"]


class PlacementEngine:
    """Job store + cache + backend + scheduler behind one interface.

    Args:
        jobs_dir: the job-store root (spool directories live here).
        cache_dir: the result-cache root; defaults to
            ``<jobs_dir>/cache``.
        workers: execution-backend worker count (``0``/``None`` =
            auto, same resolution as ``--workers``).
        recorder: service telemetry recorder; a private one is created
            when omitted (counters surface via :meth:`counters`).
    """

    def __init__(self, jobs_dir: Union[str, Path],
                 cache_dir: Optional[Union[str, Path]] = None,
                 workers: Optional[int] = None,
                 recorder: Optional[obs.Recorder] = None) -> None:
        self.jobs_dir = Path(jobs_dir)
        self.store = JobStore(self.jobs_dir)
        self.cache = ResultCache(cache_dir if cache_dir is not None
                                 else self.jobs_dir / "cache")
        self.backend = create_backend(workers)
        self.recorder = recorder if recorder is not None \
            else obs.Recorder()
        self.scheduler = Scheduler(self.store, self.cache, self.backend,
                                   recorder=self.recorder)

    # -- submission ----------------------------------------------------
    def job_hashes(self, request: JobRequest,
                   netlist: Optional[Netlist] = None,
                   netlist_digest: Optional[str] = None,
                   ) -> Dict[str, str]:
        """The identity hash triple (plus cache key) of a request.

        Args:
            request: the submission payload.
            netlist: an already-loaded netlist to hash (avoids
                reloading when the caller has one — e.g. a sweep
                hashing one circuit for every point).
            netlist_digest: a precomputed netlist hash (strongest
                form of the same shortcut).
        """
        config = PlacementConfig.from_dict(request.config)
        spec_doc = (request.spec if request.spec is not None
                    else default_pipeline_spec(config).to_dict())
        if netlist_digest is None:
            if netlist is None:
                netlist = load_job_netlist(request, config.seed)
            netlist_digest = netlist_hash(netlist)
        cfg_hash = config_hash(config)
        spec_hash = content_hash(spec_doc)
        return {"config": cfg_hash, "spec": spec_hash,
                "netlist": netlist_digest,
                "cache_key": cache_key(cfg_hash, spec_hash,
                                       netlist_digest)}

    def submit(self, request: JobRequest,
               netlist: Optional[Netlist] = None,
               netlist_digest: Optional[str] = None) -> str:
        """Spool a new queued job; returns its job id."""
        hashes = self.job_hashes(request, netlist=netlist,
                                 netlist_digest=netlist_digest)
        document = self.store.create(request, hashes)
        self.recorder.count("jobs/submitted")
        return str(document["id"])

    # -- inline execution (the bit-identical `place` path) -------------
    def run_inline(self, job_id: str, *, netlist: Netlist,
                   recorder: Optional[obs.Recorder] = None,
                   checkpoint_dir: Optional[Union[str, Path]] = None,
                   resume: bool = False,
                   preempt: Optional[Callable[[str], bool]] = None,
                   ) -> Optional[Dict[str, Any]]:
        """Run a queued job on the calling thread with the caller's
        own netlist and recorder.

        A cached result short-circuits the job to ``done`` without
        running a stage.  Otherwise the job runs through
        :func:`~repro.service.worker.run_job`, as a spooled job does,
        and is settled by the scheduler's one settle step.

        Returns:
            ``None`` when the result cache served the job, else the
            ``run_job`` outcome (``done``, or ``preempted`` when the
            ``preempt`` hook stopped the run; the job then parks as
            ``cancelled``, resumable from ``checkpoint_dir``).

        Raises:
            CheckpointError: resume mismatch (job parks as ``failed``,
                as on any other run error).
        """
        if self.try_cache(job_id) is not None:
            return None
        document = self.store.transition(job_id, "running",
                                         expect=("queued",))
        self.recorder.count("cache/miss")
        key = str(document["hashes"]["cache_key"])
        try:
            outcome = run_job(document, self.store.result_dir(job_id),
                              netlist, recorder,
                              checkpoint_dir=checkpoint_dir,
                              resume=resume, preempt=preempt)
        except Exception as exc:
            self.scheduler.settle(job_id, key,
                                  {"state": "failed", "error": str(exc)})
            raise
        self.scheduler.settle(job_id, key, outcome)
        return outcome

    def try_cache(self, job_id: str) -> Optional[CacheEntry]:
        """Short-circuit a queued job if its key is already cached."""
        document = self.store.load(job_id)
        if document["state"] != "queued":
            return None
        entry = self.cache.fetch(str(document["hashes"]["cache_key"]))
        if entry is None:
            return None
        fulfil_from_cache(self.store, document, entry, self.recorder)
        return entry

    # -- lifecycle operations ------------------------------------------
    def status(self, job_id: str) -> Dict[str, Any]:
        """The job's current document."""
        return self.store.load(job_id)

    def list_jobs(self) -> List[Dict[str, Any]]:
        """All job documents in submission order."""
        return self.store.list_jobs()

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation (cooperative for running jobs).

        Sets the document's ``cancel_requested`` field.  A queued job
        parks as ``cancelled`` immediately; a running job keeps going
        until its next stage boundary, where the worker's preemption
        hook reads the field and stops (the scheduler then parks it).
        Either way the checkpoint state supports a bit-identical
        :meth:`resume`.
        """
        document = self.store.request_cancel(job_id)
        if document["state"] == "queued":
            try:
                document = self.store.transition(job_id, "cancelled",
                                                 expect=("queued",))
            except JobStateError:
                # raced the scheduler's dispatch; the field still
                # preempts the now-running job at its next boundary
                document = self.store.load(job_id)
        return document

    def resume(self, job_id: str) -> Dict[str, Any]:
        """Requeue a cancelled/failed job to resume from its
        checkpoint."""
        return self.store.requeue(job_id)

    def outcome(self, job_id: str) -> Optional[Dict[str, Any]]:
        """In-memory worker outcome (telemetry included), if any."""
        return self.scheduler.outcome(job_id)

    def counters(self) -> Dict[str, float]:
        """Service telemetry counters (``cache/hit`` …)."""
        return dict(self.recorder.snapshot().counters)

    # -- waiting -------------------------------------------------------
    def wait(self, job_ids: Optional[Iterable[str]] = None,
             timeout: Optional[float] = None) -> List[Dict[str, Any]]:
        """Block until the given jobs (default: all) leave the active
        states; pumps the scheduler inline unless its thread runs.

        Returns:
            The final job documents, in the order requested.

        Raises:
            TimeoutError: active jobs remain after ``timeout`` seconds.
        """
        wanted = (list(job_ids) if job_ids is not None
                  else [d["id"] for d in self.store.list_jobs()])
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            if not self.scheduler.running:
                self.scheduler.pump()
            states = {job_id: self.store.load(job_id)["state"]
                      for job_id in wanted}
            if all(state not in ("queued", "running")
                   for state in states.values()):
                return [self.store.load(job_id) for job_id in wanted]
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"jobs still active after {timeout:.1f}s: "
                    + ", ".join(sorted(j for j, s in states.items()
                                       if s in ("queued", "running"))))
            time.sleep(POLL_SECONDS)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop the scheduler thread and release the backend."""
        self.scheduler.stop()
        self.backend.close()
        self.recorder.close()

    def __enter__(self) -> "PlacementEngine":
        """Context-manager entry; returns self."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()
