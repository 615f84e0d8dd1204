"""Shards queued jobs across the execution backend.

The scheduler is a pump: each :meth:`Scheduler.pump` harvests finished
futures (publishing results to the cache, parking failures and
preemptions) and then dispatches queued jobs up to the backend's
worker count.  It can be pumped inline (the engine's ``wait`` path)
or from a daemon thread (:meth:`Scheduler.start`, the ``serve`` path).
Its in-flight table is the one record of a job in flight, and
:meth:`Scheduler.liveness` reads it.

Scheduling policy, all observable through the job store:

- FIFO by job id; at most ``backend.num_workers`` jobs in flight.
- A queued job whose document has ``cancel_requested`` set is parked
  as ``cancelled`` without ever dispatching.
- A queued job whose cache key is already published short-circuits to
  ``done`` with ``cache="hit"`` (the ``cache/hit`` telemetry counter).
- A queued job whose cache key is *in flight* is coalesced: it stays
  queued and resolves as a cache hit once the leader publishes.
- A running job whose run stopped at a stage boundary (the
  pipeline's ``preempt`` hook read ``cancel_requested`` there) is
  parked as ``cancelled`` with its preemption count bumped; its
  checkpoint remains, so a requeue resumes bit-identically.

Finished runs, spooled or inline, all leave the ``running`` state
through :meth:`Scheduler.settle`, and so does a job the backend
refuses to dispatch: it is settled ``failed``, never left
``running``.  No one job's bookkeeping stops the pump thread: it
skips an unreadable job document, and logs any error a pump raises.
"""

from __future__ import annotations

import json
import shutil
import threading
from typing import Any, Dict, Optional, Tuple

from repro.obs import Recorder, get_logger
from repro.parallel import ExecutionBackend, Future
from repro.service.cache import CacheEntry, ResultCache
from repro.service.jobstore import JobStore
from repro.service.worker import execute_job

__all__ = ["Scheduler", "fulfil_from_cache"]

_log = get_logger(__name__)


def fulfil_from_cache(store: JobStore, document: Dict[str, Any],
                      entry: CacheEntry,
                      recorder: Optional[Recorder] = None,
                      ) -> Dict[str, Any]:
    """Short-circuit a queued job to ``done`` from a cache entry.

    Copies the cached placement into the job's result directory and
    rewrites the cached manifest's ``job`` section for *this* job
    (``cache="hit"``, no trace), so the job's artifacts are
    indistinguishable in shape from a cold run's.
    """
    job_id = str(document["id"])
    result_dir = store.result_dir(job_id)
    result_dir.mkdir(exist_ok=True)
    shutil.copyfile(entry.placement_path, result_dir / "placement.npz")
    with open(entry.manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["job"] = {"id": job_id, "cache": "hit",
                       "preemptions": int(document["preemptions"])}
    manifest["trace_path"] = None
    manifest_path = result_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    prefix = document["request"].get("telemetry_prefix")
    if prefix:
        with open(f"{prefix}.manifest.json", "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if recorder is not None:
        recorder.count("cache/hit")
    return store.transition(job_id, "done", expect=("queued",),
                            cache="hit", result=dict(entry.summary),
                            manifest_path=str(manifest_path))


def _state(future: Future[Dict[str, Any]]) -> str:
    """A job future's liveness label."""
    if not future.done():
        return "running"
    return "failed" if future.exception() is not None else "done"


class Scheduler:
    """Pumps queued jobs through an execution backend.

    Args:
        store: the spooled job store.
        cache: the content-addressed result cache.
        backend: where job payloads execute; its ``num_workers`` is
            the shard width.
        recorder: service telemetry (``cache/hit``, ``cache/miss``,
            ``jobs/*`` counters).
        poll_seconds: harvest cadence of the daemon-thread loop.
    """

    def __init__(self, store: JobStore, cache: ResultCache,
                 backend: ExecutionBackend,
                 recorder: Optional[Recorder] = None,
                 poll_seconds: float = 0.05) -> None:
        self.store = store
        self.cache = cache
        self.backend = backend
        self.recorder = recorder
        self.poll_seconds = float(poll_seconds)
        self._lock = threading.RLock()
        self._inflight: Dict[str, Tuple[str, Future[Dict[str, Any]]]] = {}
        self._outcomes: Dict[str, Dict[str, Any]] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def _count(self, name: str) -> None:
        if self.recorder is not None:
            self.recorder.count(name)

    # -- pump ----------------------------------------------------------
    def pump(self) -> int:
        """One harvest + dispatch round; returns jobs still active
        (queued or in flight)."""
        with self._lock:
            self._harvest()
            return self._dispatch()

    def _harvest(self) -> None:
        for job_id, (key, future) in list(self._inflight.items()):
            if not future.done():
                continue
            del self._inflight[job_id]
            error = future.exception()
            self.settle(job_id, key,
                        future.result() if error is None
                        else {"state": "failed", "error": str(error)})

    def settle(self, job_id: str, key: str,
               outcome: Dict[str, Any]) -> None:
        """Move a running job to where its outcome leaves it.

        ``failed`` parks it with the error; ``preempted`` parks it as
        ``cancelled`` with its preemption count bumped (its checkpoint
        stays, so a requeue resumes bit-identically); ``done`` records
        the result and publishes it to the cache under ``key``.  A
        publish that fails leaves the job ``done`` without a cache
        entry, with a warning.

        Args:
            job_id: the running job.
            key: its cache key.
            outcome: a :func:`~repro.service.worker.run_job` outcome,
                or ``{"state": "failed", "error": ...}``.
        """
        with self._lock:
            state = outcome["state"]
            if state == "failed":
                _log.warning("job %s failed: %s", job_id,
                             outcome["error"])
                self.store.transition(job_id, "failed",
                                      expect=("running",),
                                      error=str(outcome["error"]))
                self._count("jobs/failed")
                return
            if state == "preempted":
                document = self.store.load(job_id)
                self.store.transition(
                    job_id, "cancelled", expect=("running",),
                    preemptions=int(document["preemptions"]) + 1)
                self._count("jobs/preempted")
                return
            self._outcomes[job_id] = outcome
            summary = dict(outcome["summary"])
            self.store.transition(
                job_id, "done", expect=("running",), result=summary,
                manifest_path=str(outcome["manifest_path"]))
            self._count("jobs/done")
            try:
                with open(outcome["manifest_path"], "r",
                          encoding="utf-8") as fh:
                    manifest = json.load(fh)
                self.cache.store(
                    key, self.store.result_dir(job_id) / "placement.npz",
                    manifest, summary)
            except (OSError, ValueError) as exc:
                _log.warning("job %s is done but its result was not "
                             "cached: %s", job_id, exc)

    def _dispatch(self) -> int:
        capacity = self.backend.num_workers - len(self._inflight)
        inflight_keys = {key for key, _ in self._inflight.values()}
        active = len(self._inflight)
        for document in self.store.list_jobs():
            job_id = document["id"]
            if document["state"] != "queued":
                continue
            if document["cancel_requested"]:
                self.store.transition(job_id, "cancelled",
                                      expect=("queued",))
                self._count("jobs/cancelled")
                continue
            key = str(document["hashes"]["cache_key"])
            entry = self.cache.fetch(key)
            if entry is not None:
                fulfil_from_cache(self.store, document, entry,
                                  self.recorder)
                continue
            if key in inflight_keys or capacity <= 0:
                # duplicate-in-flight coalesces to a cache hit once
                # the leader publishes; over-capacity jobs just wait
                active += 1
                continue
            self.store.transition(job_id, "running", expect=("queued",))
            self._count("cache/miss")
            try:
                future = self.backend.submit(
                    execute_job,
                    {"job_dir": str(self.store.job_dir(job_id))})
            except Exception as exc:
                # a job the backend refused never runs: it fails now
                self.settle(job_id, key,
                            {"state": "failed", "error": str(exc)})
                continue
            self._inflight[job_id] = (key, future)
            inflight_keys.add(key)
            capacity -= 1
            active += 1
        return active

    # -- blocking / threaded operation ---------------------------------
    def start(self) -> None:
        """Run the pump loop in a daemon thread (the serve path)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-scheduler",
                                        daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.pump()
            except Exception as exc:
                # the traceback shows at -vv
                _log.warning("scheduler pump failed: %s: %s",
                             type(exc).__name__, exc)
                _log.debug("scheduler pump failed", exc_info=True)
            self._stop.wait(self.poll_seconds)

    def stop(self) -> None:
        """Stop the pump thread (in-flight backend tasks keep running)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    # -- introspection -------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the daemon pump thread is active."""
        return self._thread is not None

    def liveness(self) -> Dict[str, str]:
        """Per-job liveness of the jobs in flight.

        Read from a snapshot of the in-flight table, not under the
        lock: an inline serial job holds the lock for its whole run,
        and ``stats`` must not wait behind it.  ``list()`` copies the
        table's items in C without releasing the GIL, so the read
        cannot see the table change size.

        Returns:
            ``{job_id: "running" | "done" | "failed"}``.
        """
        return {job_id: _state(future)
                for job_id, (_, future) in list(self._inflight.items())}

    def outcome(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The in-memory outcome of a job completed this session
        (telemetry included), or ``None``."""
        with self._lock:
            return self._outcomes.get(job_id)
