"""Spooled job store: one directory per job, atomic state transitions.

A job is a directory under the store root::

    <root>/job-000001/
        job.json        # the job document (schema-validated)
        checkpoint/     # checkpoint.npz, the last stage boundary's state
        result/         # placement.npz + manifest.json when done

``job.json`` is the single source of truth for a job's lifecycle.  It
is always written atomically (temp file + ``os.replace``), and state
changes go through :meth:`JobStore.transition`, which enforces the
legal state machine::

    queued ──> running ──> done
       │          │  └───> failed ──> queued   (retry)
       │          └──────> cancelled ──> queued   (resume)
       ├────────> cancelled
       └────────> done   (cache hit)

A cancel request is the document's ``cancel_requested`` field.
Cancellation of a *running* job is cooperative: the worker's
preemption hook reads ``job.json`` at every stage boundary, after the
checkpoint is saved, and stops the run there once the field is set;
the scheduler then parks the job as ``cancelled``.  Because the
checkpoint for the last completed unit is already on disk, a later
resume replays the rest of the pipeline bit-identically.

All mutation happens in one process (the engine's); the threading lock
serializes the scheduler thread against RPC handlers.  Other processes
(pool workers) only ever *read* job documents and write under their
own job's ``checkpoint/`` and ``result/`` directories.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.obs import get_logger
from repro.obs.clock import wall_time
from repro.obs.manifest import load_schema
from repro.obs.validate import validate

_log = get_logger(__name__)

__all__ = ["JOB_KIND", "JOB_SCHEMA_VERSION", "JOB_STATES",
           "TERMINAL_STATES", "JobError", "JobRequest", "JobStateError",
           "JobStore", "validate_job"]

JOB_KIND = "repro.service.job"
JOB_SCHEMA_VERSION = 1

#: Every legal job state, in rough lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job no longer makes progress from (``cancelled``/``failed``
#: jobs can still be requeued explicitly via :meth:`JobStore.requeue`).
TERMINAL_STATES = ("done", "failed", "cancelled")

#: The legal transitions of the job state machine.
_TRANSITIONS = frozenset({
    ("queued", "running"),
    ("queued", "done"),        # cache hit short-circuit
    ("queued", "cancelled"),
    ("running", "done"),
    ("running", "failed"),
    ("running", "cancelled"),  # preempted at a stage boundary
    ("cancelled", "queued"),   # resume
    ("failed", "queued"),      # retry
})

_SCHEMA_PATH = Path(__file__).with_name("job_schema.json")


class JobError(RuntimeError):
    """A job or job document is missing or malformed."""


class JobStateError(JobError):
    """An illegal state transition was requested."""


@dataclass(frozen=True)
class JobRequest:
    """What to place: the JSON-safe submission payload.

    Exactly one of ``circuit`` (a suite benchmark name) or
    ``bookshelf`` (a ``.nodes``/``.nets`` file prefix) names the
    netlist source; workers rebuild the netlist from this descriptor,
    so requests stay picklable and spool-able.

    Attributes:
        config: the placement config as ``PlacementConfig.to_dict()``.
        circuit: suite benchmark name (``ibm01`` …), or ``None``.
        bookshelf: Bookshelf file prefix, or ``None``.
        scale: suite benchmark scale (ignored for Bookshelf input).
        spec: serialized pipeline spec, or ``None`` for the default
            flow derived from ``config``.
        label: display label; defaults to the netlist source.
        telemetry_prefix: when set, the worker writes
            ``<prefix>.trace.jsonl`` and ``<prefix>.manifest.json``.
        want_telemetry: ship the run's telemetry snapshot back to the
            dispatching side (for ``--trace`` style reports).
    """

    config: Dict[str, Any]
    circuit: Optional[str] = None
    bookshelf: Optional[str] = None
    scale: float = 0.05
    spec: Optional[Dict[str, Any]] = None
    label: Optional[str] = None
    telemetry_prefix: Optional[str] = None
    want_telemetry: bool = False

    def __post_init__(self) -> None:
        if (self.circuit is None) == (self.bookshelf is None):
            raise ValueError("a job request needs exactly one of "
                             "'circuit' or 'bookshelf'")

    @property
    def source(self) -> str:
        """Human-readable netlist source description."""
        if self.circuit is not None:
            return f"{self.circuit}@{self.scale}"
        return str(self.bookshelf)

    def to_dict(self) -> Dict[str, Any]:
        """JSON form (round-trips through :meth:`from_dict`)."""
        return {
            "config": dict(self.config),
            "circuit": self.circuit,
            "bookshelf": self.bookshelf,
            "scale": float(self.scale),
            "spec": self.spec,
            "label": self.label,
            "telemetry_prefix": self.telemetry_prefix,
            "want_telemetry": bool(self.want_telemetry),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobRequest":
        """Inverse of :meth:`to_dict`, rejecting unknown keys."""
        known = {"config", "circuit", "bookshelf", "scale", "spec",
                 "label", "telemetry_prefix", "want_telemetry"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown job-request keys: {unknown}")
        config = data.get("config")
        if not isinstance(config, Mapping):
            raise ValueError("job request needs a 'config' object")
        return cls(
            config=dict(config),
            circuit=data.get("circuit"),
            bookshelf=data.get("bookshelf"),
            scale=float(data.get("scale", 0.05)),
            spec=(dict(data["spec"])
                  if isinstance(data.get("spec"), Mapping) else None),
            label=data.get("label"),
            telemetry_prefix=data.get("telemetry_prefix"),
            want_telemetry=bool(data.get("want_telemetry", False)))


def validate_job(document: Dict[str, Any]) -> List[str]:
    """Validate a job document; returns errors (empty = valid)."""
    return validate(document, load_schema(_SCHEMA_PATH))


@dataclass
class JobStore:
    """A directory of spooled jobs with atomic state transitions.

    Attributes:
        root: the store root directory (created on construction).
    """

    root: Path
    _lock: threading.RLock = field(init=False, repr=False)
    #: jobs whose document a listing has skipped and warned about
    _unreadable: Set[str] = field(init=False, repr=False)

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._unreadable = set()

    # -- paths ---------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        """The job's spool directory."""
        return self.root / job_id

    def checkpoint_dir(self, job_id: str) -> Path:
        """Where the job's run checkpoints live."""
        return self.job_dir(job_id) / "checkpoint"

    def result_dir(self, job_id: str) -> Path:
        """Where the job's result artifacts live."""
        return self.job_dir(job_id) / "result"

    def _doc_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "job.json"

    # -- creation ------------------------------------------------------
    def create(self, request: JobRequest,
               hashes: Mapping[str, str]) -> Dict[str, Any]:
        """Spool a new ``queued`` job; returns its document.

        Args:
            request: the submission payload.
            hashes: the job's identity —  ``config``, ``spec``,
                ``netlist`` content hashes plus the derived
                ``cache_key``.
        """
        with self._lock:
            job_id = self._allocate_id()
            now = wall_time()
            document: Dict[str, Any] = {
                "kind": JOB_KIND,
                "schema_version": JOB_SCHEMA_VERSION,
                "id": job_id,
                "state": "queued",
                "created_unix": now,
                "updated_unix": now,
                "label": request.label or request.source,
                "request": request.to_dict(),
                "hashes": dict(hashes),
                "cache": "miss",
                "preemptions": 0,
                "cancel_requested": False,
                "error": None,
                "result": None,
                "manifest_path": None,
            }
            self._write(job_id, document)
            return document

    def _allocate_id(self) -> str:
        existing = [p.name for p in self.root.iterdir()
                    if p.is_dir() and p.name.startswith("job-")]
        index = len(existing) + 1
        while True:
            job_id = f"job-{index:06d}"
            try:
                (self.root / job_id).mkdir(exist_ok=False)
                return job_id
            except FileExistsError:
                index += 1

    # -- reads ---------------------------------------------------------
    def load(self, job_id: str) -> Dict[str, Any]:
        """Read one job document.

        Raises:
            JobError: the job does not exist or its document is
                malformed.
        """
        path = self._doc_path(job_id)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except FileNotFoundError:
            raise JobError(f"no such job: {job_id}") from None
        except json.JSONDecodeError as exc:
            raise JobError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(document, dict) \
                or document.get("kind") != JOB_KIND:
            raise JobError(f"{path}: not a {JOB_KIND} document")
        return document

    def job_ids(self) -> List[str]:
        """Every spooled job's id, in submission order."""
        return sorted(p.name for p in self.root.iterdir()
                      if p.is_dir() and p.name.startswith("job-")
                      and (p / "job.json").is_file())

    def list_jobs(self) -> List[Dict[str, Any]]:
        """Every readable job document, ordered by job id (submission
        order).

        A job whose document :meth:`load` cannot read is left out, with
        one warning per job; loading that job still raises.
        """
        documents = []
        with self._lock:
            for job_id in self.job_ids():
                try:
                    documents.append(self.load(job_id))
                except JobError as exc:
                    if job_id not in self._unreadable:
                        self._unreadable.add(job_id)
                        _log.warning("skipping job %s: %s", job_id, exc)
        return documents

    # -- mutation ------------------------------------------------------
    def _write(self, job_id: str, document: Dict[str, Any]) -> None:
        errors = validate_job(document)
        if errors:
            raise JobError("refusing to write an invalid job document: "
                           + "; ".join(errors))
        path = self._doc_path(job_id)
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)

    def update(self, job_id: str, **fields: Any) -> Dict[str, Any]:
        """Merge non-state fields into a job document atomically."""
        if "state" in fields:
            raise JobStateError("use transition() to change a job's "
                                "state")
        with self._lock:
            document = self.load(job_id)
            document.update(fields)
            document["updated_unix"] = wall_time()
            self._write(job_id, document)
            return document

    def transition(self, job_id: str, to_state: str,
                   expect: Optional[Tuple[str, ...]] = None,
                   **fields: Any) -> Dict[str, Any]:
        """Atomically move a job to ``to_state`` (merging ``fields``).

        Args:
            job_id: the job to transition.
            to_state: the new state.
            expect: optionally restrict the allowed *current* states;
                the state-machine check applies either way.
            fields: extra document fields to merge in the same write.

        Raises:
            JobStateError: the transition is not in the legal state
                machine, or the current state is not in ``expect``.
        """
        if to_state not in JOB_STATES:
            raise JobStateError(f"unknown job state {to_state!r}")
        with self._lock:
            document = self.load(job_id)
            current = str(document["state"])
            if expect is not None and current not in expect:
                raise JobStateError(
                    f"{job_id} is {current!r}, expected one of "
                    f"{list(expect)}")
            if (current, to_state) not in _TRANSITIONS:
                raise JobStateError(
                    f"illegal transition {current!r} -> {to_state!r} "
                    f"for {job_id}")
            document["state"] = to_state
            document.update(fields)
            document["updated_unix"] = wall_time()
            self._write(job_id, document)
            return document

    def request_cancel(self, job_id: str) -> Dict[str, Any]:
        """Set the document's ``cancel_requested`` field.

        A running worker's preemption hook reads it at every stage
        boundary; a queued job is cancelled by the scheduler (or the
        engine) before dispatch.
        """
        return self.update(job_id, cancel_requested=True)

    def requeue(self, job_id: str) -> Dict[str, Any]:
        """Move a ``cancelled``/``failed`` job back to ``queued``.

        Clears ``cancel_requested`` in the same write, so the resumed
        run is not immediately re-preempted; the job resumes from its
        last checkpoint and finishes bit-identically to an
        uninterrupted run.
        """
        return self.transition(job_id, "queued",
                               expect=("cancelled", "failed"),
                               cancel_requested=False, error=None)
