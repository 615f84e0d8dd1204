"""Placement-as-a-service: job engine, sharded workers, result cache.

This package composes the substrate earlier layers provide — the
config/spec/netlist hashes on checkpoints, the pluggable
:class:`~repro.parallel.ExecutionBackend`, validated manifests — into a
submit-and-evaluate service:

- :class:`JobStore` (``jobstore.py``) — spooled job directories with
  atomic state transitions ``queued → running → done/failed/cancelled``;
  each job owns a checkpoint directory and a result manifest.
- :class:`ResultCache` (``cache.py``) — content-addressed placement
  results keyed on the ``(config_hash, spec_hash, netlist_hash)``
  triple; a resubmitted job short-circuits to the cached manifest and
  placement (``cache/hit`` in telemetry).
- :class:`Scheduler` (``scheduler.py``) — shards queued jobs across
  the execution backend, coalesces duplicate submissions in flight,
  and parks cancelled jobs at the nearest stage boundary via the
  pipeline's cooperative preemption hook (resumable bit-identically).
- :class:`PlacementEngine` (``engine.py``) — the façade the CLI's
  ``place``/``sweep``/``serve`` commands submit jobs through.
- :class:`RpcServer` / :class:`ServiceClient` (``rpc.py``) — a
  newline-delimited JSON-RPC API over a unix socket
  (``submit`` / ``status`` / ``cancel`` / ``result`` / ``shutdown``).

``rpc.py`` is the only module in ``src/repro`` allowed to import
``socket`` / ``selectors`` (lint rule RPL014).
"""

from repro.netlist.netlist import netlist_hash
from repro.service.cache import CacheEntry, ResultCache, cache_key
from repro.service.engine import PlacementEngine
from repro.service.jobstore import (JOB_STATES, TERMINAL_STATES,
                                    JobError, JobRequest, JobStateError,
                                    JobStore)
from repro.service.rpc import RpcError, RpcServer, ServiceClient
from repro.service.scheduler import Scheduler
from repro.service.worker import execute_job, load_job_netlist

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "CacheEntry",
    "JobError",
    "JobRequest",
    "JobStateError",
    "JobStore",
    "PlacementEngine",
    "ResultCache",
    "RpcError",
    "RpcServer",
    "Scheduler",
    "ServiceClient",
    "cache_key",
    "execute_job",
    "load_job_netlist",
    "netlist_hash",
]
