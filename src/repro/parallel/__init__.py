"""Execution backends for embarrassingly-parallel placement work.

The flow has two hot paths whose work items are fully independent: the
per-level regions of recursive bisection (after the first cut, each
region's subproblem shares nothing with its siblings) and the per-point
pipeline runs of an ``alpha_ILV`` sweep.  This package is the single
place that owns *how* such independent tasks execute:

- :class:`SerialBackend` runs them inline, in submission order;
- :class:`ProcessPoolBackend` fans them out over worker processes.

Both present the same order-preserving :meth:`ExecutionBackend.map`
protocol, and a :meth:`ExecutionBackend.submit` that returns a standard
:class:`~concurrent.futures.Future` (re-exported here as ``Future``),
so call sites are backend-agnostic, and the worker count is resolved
in one place (:func:`resolve_workers`) from the explicit
request, the ``REPRO_WORKERS`` environment variable, or the serial
default.

Determinism contract
--------------------

Parallel execution must be *bit-identical* to serial execution.  Two
rules make that hold:

1. Tasks are pure functions of their (picklable) payload: a worker
   never reads mutable placer state, only what the payload carries.
2. Any randomness a task consumes is derived from a
   :class:`numpy.random.SeedSequence` keyed on a deterministic task id
   (:func:`task_seed_sequence`) — never from a shared stream whose
   state would depend on execution order.

This package is the only place in ``src/repro`` allowed to import
``multiprocessing`` / ``concurrent.futures`` (lint rule RPL011) — and
:mod:`repro.parallel.shared` is the one module allowed to touch
``multiprocessing.shared_memory`` (lint rule RPL015): any other
parallelism or segment lifecycle would bypass the determinism contract
above.
"""

from __future__ import annotations

import multiprocessing
import os
import tracemalloc
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from types import TracebackType
from typing import (Callable, Iterable, List, Optional, Sequence, Type,
                    TypeVar)

import numpy as np

from repro.parallel.shared import (PackedBatch, SegmentRef,
                                   SharedArrayPool)
from repro.parallel.shared import available as shared_memory_available
from repro.parallel.shared import resolve as resolve_packed

__all__ = ["ExecutionBackend", "Future", "PackedBatch",
           "ProcessPoolBackend", "SegmentRef", "SerialBackend",
           "SharedArrayPool", "WORKERS_ENV", "create_backend",
           "resolve_packed", "resolve_workers",
           "shared_memory_available", "task_seed", "task_seed_sequence"]

#: Environment variable consulted when no explicit worker count is set.
WORKERS_ENV = "REPRO_WORKERS"

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_workers(requested: Optional[int] = None) -> int:
    """Resolve the effective worker count.

    Precedence: an explicit positive ``requested`` value wins; ``None``
    or ``0`` ("auto") falls back to the ``REPRO_WORKERS`` environment
    variable; absent that, execution is serial.

    Args:
        requested: explicit worker count (``--workers`` /
            ``PlacementConfig.num_workers``); ``0``/``None`` = auto.

    Returns:
        The worker count, always ``>= 1``.

    Raises:
        ValueError: a negative request, or a ``REPRO_WORKERS`` value
            that is not a non-negative integer.
    """
    if requested is not None:
        if requested < 0:
            raise ValueError(f"worker count cannot be negative: "
                             f"{requested}")
        if requested > 0:
            return int(requested)
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV}={raw!r} is not an integer") from None
        if value < 0:
            raise ValueError(f"{WORKERS_ENV} cannot be negative: {value}")
        if value > 0:
            return value
    return 1


def task_seed_sequence(base_seed: int, key: int) -> np.random.SeedSequence:
    """The RNG stream for task ``key`` of a run seeded with ``base_seed``.

    Equivalent to ``SeedSequence(base_seed).spawn(key + 1)[key]`` — the
    standard parent/child spawn derivation — but random-access: any task
    can derive its stream without the parent sequentially spawning all
    lower-numbered siblings first.  Streams for distinct keys are
    statistically independent, and the derivation depends only on
    ``(base_seed, key)``, never on execution or submission order.

    Args:
        base_seed: the run's root seed (``PlacementConfig.seed``).
        key: deterministic task id (e.g. a region's bisection-tree
            path id).  Must be non-negative.

    Returns:
        The child :class:`numpy.random.SeedSequence`.
    """
    if key < 0:
        raise ValueError(f"task key must be non-negative: {key}")
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(key,))


def task_seed(base_seed: int, key: int) -> int:
    """A 31-bit integer seed drawn from the task's seed sequence.

    For components that take a plain integer seed (e.g.
    :class:`~repro.partition.multilevel.BisectionConfig`) rather than a
    generator.
    """
    state = task_seed_sequence(base_seed, key).generate_state(1)
    return int(state[0]) & 0x7FFFFFFF


class ExecutionBackend:
    """Protocol for running independent picklable tasks.

    Attributes:
        num_workers: parallelism degree the backend was built with.
    """

    num_workers: int = 1

    def map(self, fn: Callable[[_T], _R],
            tasks: Iterable[_T]) -> List[_R]:
        """Apply ``fn`` to every task, returning results in task order.

        ``fn`` must be a module-level callable and every task payload
        picklable, so the same call works on any backend.  Results are
        ordered like the input regardless of completion order.
        """
        raise NotImplementedError

    def submit(self, fn: Callable[[_T], _R], task: _T) -> Future[_R]:
        """Dispatch one task asynchronously; returns its future.

        The same picklability rules as :meth:`map` apply.  On the
        serial backend the task runs inline and the returned future is
        already done, holding the result or the raised exception; pool
        backends return the pool's own future.
        """
        raise NotImplementedError

    def start(self) -> None:
        """Start the workers now instead of at the first dispatch.

        Pool workers fork from the dispatching process as it is when
        they start: a caller about to build state that its tasks never
        read starts them first, and they do not inherit it.  A serial
        backend has nothing to start.
        """

    def worker_pids(self) -> List[int]:
        """Pids of the live worker processes, ascending.

        Empty for a serial backend: its tasks ran in this process.
        """
        return []

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Runs every task inline, in submission order."""

    num_workers = 1

    def map(self, fn: Callable[[_T], _R],
            tasks: Iterable[_T]) -> List[_R]:
        return [fn(task) for task in tasks]

    def submit(self, fn: Callable[[_T], _R], task: _T) -> Future[_R]:
        """Run the task inline; the returned future is already done."""
        future: Future[_R] = Future()
        try:
            future.set_result(fn(task))
        except Exception as exc:
            # captured, not raised: the error surfaces at
            # future.result(), as a pool's does
            future.set_exception(exc)
        return future


def _init_worker() -> None:
    """Pool worker initializer: stop a tracemalloc inherited through
    fork, which would trace every task and report nowhere."""
    if tracemalloc.is_tracing():
        tracemalloc.stop()


class ProcessPoolBackend(ExecutionBackend):
    """Fans tasks out over a pool of worker processes.

    The pool is created once and reused across :meth:`map` calls (one
    global-placement run dispatches a batch per bisection level), so
    process start-up is amortized.  ``fork`` is preferred where
    available — workers inherit the loaded modules instead of
    re-importing them.

    A worker that dies breaks the whole pool, and every task in flight
    fails with ``BrokenProcessPool``.  :meth:`map` lets that error
    stand: a run whose level lost a task has failed.  :meth:`submit`
    dispatches independent jobs, so it replaces a broken pool and the
    next job runs on a fresh one.

    Args:
        num_workers: pool size (``>= 2``; use :func:`create_backend`
            to fall back to :class:`SerialBackend` below that).
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers < 2:
            raise ValueError("ProcessPoolBackend needs >= 2 workers; "
                             "use SerialBackend (or create_backend) "
                             "for serial execution")
        self.num_workers = int(num_workers)
        self._executor = self._new_executor()

    def _new_executor(self) -> ProcessPoolExecutor:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        return ProcessPoolExecutor(max_workers=self.num_workers,
                                   mp_context=context,
                                   initializer=_init_worker)

    def start(self) -> None:
        # with fork the executor launches its whole pool at the first
        # submission: one no-op round trip makes that happen now
        self._executor.submit(int).result()

    def worker_pids(self) -> List[int]:
        # the executor's own table of the processes it started
        processes = self._executor._processes or {}
        return sorted(pid for pid, process in processes.items()
                      if process.is_alive())

    def map(self, fn: Callable[[_T], _R],
            tasks: Iterable[_T]) -> List[_R]:
        items: Sequence[_T] = list(tasks)
        if not items:
            return []
        # A few chunks per worker balances scheduling freedom against
        # per-task IPC overhead for the many-small-regions levels.
        chunksize = max(1, len(items) // (self.num_workers * 4))
        return list(self._executor.map(fn, items, chunksize=chunksize))

    def submit(self, fn: Callable[[_T], _R], task: _T) -> Future[_R]:
        """Dispatch the task to a pool worker; returns its future.

        A pool broken by a dead worker is shut down and replaced
        first.
        """
        try:
            return self._executor.submit(fn, task)
        except BrokenProcessPool:
            self._executor.shutdown(wait=True)
            self._executor = self._new_executor()
            return self._executor.submit(fn, task)

    def close(self) -> None:
        self._executor.shutdown(wait=True)


def create_backend(num_workers: Optional[int] = None) -> ExecutionBackend:
    """Build the backend for a resolved worker count.

    Args:
        num_workers: explicit count, or ``0``/``None`` for auto
            (see :func:`resolve_workers`).

    Returns:
        A :class:`SerialBackend` for one worker, else a
        :class:`ProcessPoolBackend`.
    """
    workers = resolve_workers(num_workers)
    if workers <= 1:
        return SerialBackend()
    return ProcessPoolBackend(workers)
