"""Recorder: the single object pipeline stages talk to.

A :class:`Recorder` bundles a span :class:`~repro.obs.trace.Tracer`
with counters, gauges and named time-series, and optionally streams
everything to a JSONL :class:`~repro.obs.events.EventSink`.

Deep pipeline components (FM refinement, the thermal solver, move
passes) do not take a recorder argument — they read the *ambient*
recorder via :func:`get_recorder`, which is the shared
:data:`NULL_RECORDER` unless a caller installs a real one with
:func:`use_recorder`.  That keeps the default path allocation-free and
branch-cheap, which is how the ≤2 % overhead budget is met.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import TracebackType
from typing import (Any, Callable, ContextManager, Dict, Iterator, List,
                    Optional, Tuple, Type)

from repro.obs.events import EventSink
from repro.obs.resources import ResourceTracker
from repro.obs.trace import SpanStats, Tracer

__all__ = ["NULL_RECORDER", "NullRecorder", "Recorder", "Telemetry",
           "get_recorder", "use_recorder"]

#: Gauge-name prefixes that merge by *max* when folding another
#: recorder's telemetry (:meth:`Recorder.merge`), such as a service
#: job's.  Peak-memory gauges are high-water marks: the merged peak is
#: the largest snapshot's, not whichever merged last.
_MAX_MERGE_GAUGE_PREFIXES: Tuple[str, ...] = (
    "resources/peak_", "resources/tracemalloc_peak_")


def _merges_by_max(name: str) -> bool:
    return name.startswith(_MAX_MERGE_GAUGE_PREFIXES)


@dataclass
class Telemetry:
    """Immutable snapshot of a recorder, attached to results.

    Attributes:
        spans: JSON view of the span-tree root (see
            :meth:`SpanStats.as_dict`).
        counters: monotonic named totals.
        gauges: last-write-wins named values.
        series: named lists of ``{"t": ..., **fields}`` points.
        wall_seconds: total wall time covered by the span tree.
    """

    spans: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, List[Dict[str, float]]] = field(default_factory=dict)
    wall_seconds: float = 0.0


class Recorder:
    """Collects spans, counters, gauges and time-series for one run.

    Args:
        sink: optional JSONL event sink; when given, span completions,
            counter increments, gauge writes and series points are
            streamed to it as they happen.
        clock: monotonic time source, seconds (injectable for tests).
        track_resources: attach a
            :class:`~repro.obs.resources.ResourceTracker` (RSS gauges
            at stage boundaries, tracemalloc attribution while it
            runs).  Off only for recorders too short-lived to report
            memory: a bisection task's, and :class:`NullRecorder`.

    Attributes:
        enabled: ``True`` — branch on this in hot call sites instead of
            paying for no-op method calls in inner loops.
        tracer: the span tree builder.
        sink: the event sink, or ``None``.
        resources: the attached resource tracker, or ``None``.
    """

    enabled: bool = True

    def __init__(self, sink: Optional[EventSink] = None,
                 clock: Callable[[], float] = time.perf_counter,
                 track_resources: bool = True) -> None:
        self.sink = sink
        self._clock = clock
        self._t0 = clock()
        on_exit = self._span_closed if sink is not None else None
        self.tracer = Tracer(clock=clock, on_exit=on_exit)
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.series: Dict[str, List[Dict[str, float]]] = {}
        self.resources = ResourceTracker(self) if track_resources \
            else None

    # -- spans ---------------------------------------------------------
    def span(self, name: str) -> ContextManager[Any]:
        """Open a (possibly ``/``-nested) timing span."""
        return self.tracer.span(name)

    def _span_closed(self, path: str, seconds: float) -> None:
        if self.sink is not None:
            self.sink.emit({"type": "span", "path": path,
                            "seconds": round(seconds, 9)})

    # -- metrics -------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named monotonic counter."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest value."""
        self.gauges[name] = float(value)
        if self.sink is not None:
            self.sink.emit({"type": "gauge", "name": name,
                            "value": float(value)})

    def gauge_max(self, name: str, value: float) -> None:
        """Raise the named gauge to ``value`` if it is a new maximum."""
        current = self.gauges.get(name)
        if current is None or float(value) > current:
            self.gauge(name, value)

    def record(self, name: str, **fields: float) -> None:
        """Append a point to the named time-series.

        The point gets a ``t`` field (seconds since the recorder was
        created) plus the given numeric fields.
        """
        point: Dict[str, float] = {
            "t": round(self._clock() - self._t0, 9)}
        for key, value in fields.items():
            point[key] = float(value)
        self.series.setdefault(name, []).append(point)
        if self.sink is not None:
            event: Dict[str, Any] = {"type": "series", "name": name}
            event.update(point)
            self.sink.emit(event)

    # -- resources -----------------------------------------------------
    def sample_resources(self, label: str) -> None:
        """Record per-span memory gauges, when a tracker is attached.

        Called at pipeline stage boundaries; a no-op without a
        tracker.
        """
        if self.resources is not None:
            self.resources.sample(label)

    def finish_resources(self) -> Optional[Dict[str, Any]]:
        """Finalize resource tracking; the manifest ``resources``
        section, or ``None`` without a tracker."""
        if self.resources is None:
            return None
        return self.resources.finish()

    # -- merging -------------------------------------------------------
    def merge(self, telemetry: Telemetry) -> None:
        """Fold a child recorder's snapshot into this recorder.

        Parallel workers run their own ambient :class:`Recorder` (the
        process-global one is not shared across processes) and ship
        :class:`Telemetry` snapshots back; the dispatching side calls
        this once per snapshot so ``--trace`` reports and manifests
        stay complete under parallelism.

        Semantics per signal:

        - **spans**: the snapshot's tree is merged under the currently
          *open* span (calls and seconds add at matching paths), so a
          caller holding a ``level3/bisect`` span open files worker
          spans beneath it;
        - **counters**: added — totals are distribution-independent;
        - **gauges**: last write wins, matching in-process behaviour —
          except peak-memory gauges (``resources/peak_*``), which are
          high-water marks and merge by max;
        - **series**: points append in merge-call order (the caller
          merges results in task order, keeping this deterministic).
        """
        anchor = self.tracer.current_node()
        anchor.merge(SpanStats.from_dict(telemetry.spans))
        for name, value in telemetry.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        for name, value in telemetry.gauges.items():
            if _merges_by_max(name):
                current = self.gauges.get(name)
                self.gauges[name] = value if current is None \
                    else max(current, value)
            else:
                self.gauges[name] = value
        for name, points in telemetry.series.items():
            self.series.setdefault(name, []).extend(
                dict(point) for point in points)

    # -- lifecycle -----------------------------------------------------
    def snapshot(self) -> Telemetry:
        """Freeze the current state into a :class:`Telemetry`."""
        root = self.tracer.root
        return Telemetry(
            spans=root.as_dict(),
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            series={k: [dict(p) for p in v]
                    for k, v in self.series.items()},
            wall_seconds=root.total_seconds(),
        )

    def close(self) -> None:
        """Close the sink, if any (idempotent)."""
        if self.sink is not None:
            self.sink.close()

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.close()


class _NullSpan:
    """Shared no-op span context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder(Recorder):
    """Recorder that records nothing; the default ambient recorder.

    Every method is a constant-time no-op that allocates nothing, so
    instrumentation left in library code costs one attribute lookup and
    one call per boundary when telemetry is off.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(sink=None, track_resources=False)

    def span(self, name: str) -> ContextManager[Any]:
        return _NULL_SPAN

    def count(self, name: str, value: float = 1.0) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def gauge_max(self, name: str, value: float) -> None:
        return None

    def record(self, name: str, **fields: float) -> None:
        return None

    def merge(self, telemetry: Telemetry) -> None:
        return None


NULL_RECORDER = NullRecorder()

_active: Recorder = NULL_RECORDER


def get_recorder() -> Recorder:
    """Return the ambient recorder (:data:`NULL_RECORDER` by default)."""
    return _active


@contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` as the ambient recorder for a ``with`` body.

    The previous ambient recorder is restored on exit, including on
    exceptions, so nested scopes compose.
    """
    global _active
    previous = _active
    _active = recorder
    try:
        yield recorder
    finally:
        _active = previous
