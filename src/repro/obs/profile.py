"""Low-overhead sampling profiler attributing samples to open spans.

The span tree answers *how long* each pipeline stage took; this module
answers *where inside it* the time goes.  A :class:`SamplingProfiler`
wakes on a fixed interval, captures the profiled thread's Python stack
with ``sys._current_frames()`` (no tracing hooks, so the profiled code
runs at full speed between samples), and files each sample under the
span path the run currently has open — ``round1/moves`` samples stay
separate from ``global`` samples even when both pass through the same
kernel function.

Everything aggregates into a :class:`ProfileData`, which exports

- **collapsed stacks** (``frame;frame;frame count`` lines, the
  flamegraph.pl / speedscope interchange format), with the open span
  path as synthetic root frames (``span:round1`` …);
- **hot-function tables**: per-function *self* (sampled at the leaf)
  and *cumulative* (anywhere on the stack) counts, overall and per
  span path.

Profiling is strictly opt-in (``repro place --profile``): a run
without it constructs no profiler and no sampler thread, so the
default path pays nothing.  The sampler is a daemon thread
rather than a SIGPROF handler so it composes with scipy's C code,
worker processes and non-main threads; the clock and the sampled frame
are injectable, so tests drive :meth:`SamplingProfiler.sample_once`
with synthetic stacks and never sleep.

This module lives in ``repro.obs`` and is therefore allowed to touch
``time`` and ``threading`` directly (lint rules RPL009/RPL013 scope
everything else onto :mod:`repro.obs.clock`).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from types import FrameType, TracebackType
from typing import (Any, Callable, Dict, List, Optional, Tuple, Type)

from repro.obs.trace import Tracer

__all__ = ["INTERVAL", "MAX_DEPTH", "ProfileData", "SamplingProfiler",
           "TOP_FUNCTIONS"]

#: Sampling interval, seconds (100 Hz).  One sample costs a stack walk
#: of the profiled thread (~tens of microseconds), so this rate keeps
#: the profiled run within its overhead budget (<= 5 %, gated by
#: ``benchmarks/bench_scaling.py --check-profile-overhead``).
INTERVAL = 0.01

#: Stack-depth cap per sample.
MAX_DEPTH = 64

#: Hot-function rows kept per table (overall and per span).
TOP_FUNCTIONS = 10

#: Path fragments stripped from frame filenames so collapsed stacks
#: stay stable across checkouts and virtualenvs.
_PATH_MARKERS = ("/src/repro/", "/site-packages/", "/lib/python")


def short_path(filename: str) -> str:
    """A source path relative to the innermost recognised root
    (``src/repro``, ``site-packages`` …), else its basename, so labels
    are machine-independent."""
    filename = filename.replace("\\", "/")
    for marker in _PATH_MARKERS:
        pos = filename.rfind(marker)
        if pos >= 0:
            return filename[pos + len(marker):]
    return filename.rsplit("/", 1)[-1]


def frame_label(frame: FrameType) -> str:
    """Human-stable label for one frame: ``module:qualname``.

    The module part is :func:`short_path` of the source file without
    ``.py``; the function part prefers ``co_qualname`` (3.11+) over
    the bare name so methods keep their class.
    """
    code = frame.f_code
    filename = short_path(code.co_filename)
    if filename.endswith(".py"):
        filename = filename[:-3]
    name = getattr(code, "co_qualname", code.co_name)
    return f"{filename}:{name}"


def stack_of(frame: Optional[FrameType]) -> Tuple[str, ...]:
    """The frame's stack as labels, outermost first, depth-capped.

    When the stack is deeper than :data:`MAX_DEPTH` the outermost
    frames are dropped (the leaf — where the time is actually spent —
    always survives truncation).
    """
    labels: List[str] = []
    while frame is not None and len(labels) < MAX_DEPTH:
        labels.append(frame_label(frame))
        frame = frame.f_back
    labels.reverse()
    return tuple(labels)


class ProfileData:
    """Aggregated samples: span-attributed stacks plus hot tables.

    Attributes:
        samples: total samples recorded.
        stacks: ``(span_path, stack)`` -> sample count, where ``stack``
            is a tuple of frame labels outermost-first and
            ``span_path`` is the ``/``-joined open-span path at sample
            time (``""`` when no span was open).
    """

    __slots__ = ("samples", "stacks")

    def __init__(self) -> None:
        self.samples = 0
        self.stacks: Dict[Tuple[str, Tuple[str, ...]], int] = {}

    # -- recording -----------------------------------------------------
    def add(self, span_path: str, stack: Tuple[str, ...],
            count: int = 1) -> None:
        """Record ``count`` samples of ``stack`` under ``span_path``."""
        key = (span_path, stack)
        self.stacks[key] = self.stacks.get(key, 0) + count
        self.samples += count

    def merge(self, other: "ProfileData") -> None:
        """Fold another profile into this one (sample counts add)."""
        for (span_path, stack), count in other.stacks.items():
            self.add(span_path, stack, count)

    # -- exports -------------------------------------------------------
    def collapsed(self) -> List[str]:
        """Flamegraph-ready collapsed-stack lines, sorted for stability.

        The open span path becomes synthetic root frames
        (``span:round1;span:moves;…``) so a flamegraph groups kernel
        time by pipeline position before grouping by call stack.
        """
        lines: List[str] = []
        for (span_path, stack), count in sorted(self.stacks.items()):
            frames: List[str] = [f"span:{part}"
                                 for part in span_path.split("/")
                                 if part]
            frames.extend(stack)
            if not frames:
                frames = ["<unknown>"]
            lines.append(f"{';'.join(frames)} {count}")
        return lines

    def hot_functions(self, span_path: Optional[str] = None
                      ) -> List[Dict[str, Any]]:
        """Self/cumulative sample counts per function, hottest first.

        Args:
            span_path: restrict to samples taken under this exact open
                span path; ``None`` aggregates every sample.

        Returns:
            The :data:`TOP_FUNCTIONS` hottest rows
            ``{"function", "self", "cum"}``, sorted by descending self
            count (cumulative count breaking ties), where ``cum``
            counts samples with the function anywhere on the stack and
            ``self`` counts samples with it at the leaf.
        """
        self_counts: Dict[str, int] = {}
        cum_counts: Dict[str, int] = {}
        for (path, stack), count in self.stacks.items():
            if span_path is not None and path != span_path:
                continue
            if not stack:
                continue
            leaf = stack[-1]
            self_counts[leaf] = self_counts.get(leaf, 0) + count
            for label in set(stack):
                cum_counts[label] = cum_counts.get(label, 0) + count
        rows = [{"function": label,
                 "self": self_counts.get(label, 0),
                 "cum": cum}
                for label, cum in cum_counts.items()]
        rows.sort(key=lambda r: (-int(r["self"]), -int(r["cum"]),
                                 str(r["function"])))
        return rows[:TOP_FUNCTIONS]

    def span_paths(self) -> List[str]:
        """Distinct open-span paths seen, by descending sample count."""
        totals: Dict[str, int] = {}
        for (path, _), count in self.stacks.items():
            totals[path] = totals.get(path, 0) + count
        return sorted(totals, key=lambda p: (-totals[p], p))

    def span_table(self) -> List[Dict[str, Any]]:
        """Per-span hot-function summary for the manifest/report.

        Returns:
            One row per open-span path (descending sample count):
            ``{"span", "samples", "functions": [hot rows]}``.
        """
        out: List[Dict[str, Any]] = []
        for path in self.span_paths():
            samples = sum(c for (p, _), c in self.stacks.items()
                          if p == path)
            out.append({"span": path, "samples": samples,
                        "functions": self.hot_functions(path)})
        return out

    # -- serialization -------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary (the manifest's ``profile`` section).

        Carries the aggregate hot-function table and the per-span
        breakdown, *not* every raw stack — the collapsed file is the
        full-resolution artifact (see :meth:`write_collapsed`).
        """
        return {
            "samples": self.samples,
            "distinct_stacks": len(self.stacks),
            "hot_functions": self.hot_functions(),
            "spans": self.span_table(),
        }

    @classmethod
    def from_collapsed(cls, lines: List[str]) -> "ProfileData":
        """Rebuild a profile from collapsed-stack lines.

        Inverse of :meth:`collapsed` (synthetic ``span:`` root frames
        fold back into the span path), so profiles round-trip through
        the artifact format and worker profiles can be merged offline.
        """
        data = cls()
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            frames_text, _, count_text = line.rpartition(" ")
            if not frames_text or not count_text.isdigit():
                raise ValueError(
                    f"line {lineno}: not a collapsed stack: {line!r}")
            frames = frames_text.split(";")
            span_parts: List[str] = []
            while frames and frames[0].startswith("span:"):
                span_parts.append(frames.pop(0)[len("span:"):])
            if frames == ["<unknown>"]:
                frames = []
            data.add("/".join(span_parts), tuple(frames),
                     int(count_text))
        return data

    def write_collapsed(self, path: str) -> str:
        """Write the collapsed-stack artifact; returns the path."""
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.collapsed():
                fh.write(line + "\n")
        return path


class SamplingProfiler:
    """Samples one thread's stack on a fixed interval, span-attributed.

    Args:
        tracer: the run's span tracer; each sample is attributed to
            ``tracer.current_path()``.  ``None`` files every sample
            under the empty path.
        clock: monotonic time source (injectable for tests).

    It samples every :data:`INTERVAL` seconds, each stack capped at
    :data:`MAX_DEPTH` frames.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    The profiled thread is the one that *constructs* the profiler —
    the placement pipeline runs where the profiler is created, while
    the sampler itself runs on a daemon thread that never touches
    placement state.
    """

    def __init__(self, tracer: Optional[Tracer] = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.tracer = tracer
        self.clock = clock
        self.data = ProfileData()
        self._target_ident = threading.get_ident()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0
        self.wall_seconds = 0.0

    # -- sampling ------------------------------------------------------
    def sample_once(self, frame: Optional[FrameType] = None) -> None:
        """Take one sample (of ``frame``, or the profiled thread).

        Tests call this directly with a synthetic frame; the sampler
        thread calls it on every tick.  A missing target thread (it
        exited) is a silent no-op.
        """
        if frame is None:
            frame = sys._current_frames().get(self._target_ident)
            if frame is None:
                return
        span_path = self.tracer.current_path() \
            if self.tracer is not None else ""
        self.data.add(span_path, stack_of(frame))

    def _run(self) -> None:
        while not self._stop_event.wait(INTERVAL):
            self.sample_once()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Start the sampler thread (idempotent)."""
        if self._thread is not None:
            return
        self._started_at = self.clock()
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-profiler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the sampler thread and record the profiled wall time."""
        if self._thread is None:
            return
        self._stop_event.set()
        self._thread.join()
        self._thread = None
        self.wall_seconds += self.clock() - self._started_at

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.stop()

    # -- reporting -----------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """The manifest ``profile`` section for this run."""
        document = self.data.as_dict()
        document["interval_seconds"] = INTERVAL
        document["wall_seconds"] = self.wall_seconds
        return document
