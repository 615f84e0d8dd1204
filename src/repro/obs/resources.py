"""Process resource telemetry: peak RSS and tracemalloc attribution.

Wall time tells half the scaling story; the other half is memory.
This module owns the two measurements the bench/regression tooling
gates on:

- **RSS**: :func:`rss_bytes` (current resident set) and
  :func:`peak_rss_bytes` (the high-water mark of this process or of
  another one, by pid), read from ``/proc`` where available with a
  ``resource.getrusage`` fallback for this process, so they work
  inside the CI containers without psutil;
- **tracemalloc**: a top-N allocation-site table, attributing peak
  Python-heap usage to ``file:line`` sites.

A :class:`ResourceTracker` bundles both behind every live
:class:`~repro.obs.recorder.Recorder`: :meth:`ResourceTracker.sample`
is called at pipeline stage boundaries (see ``PlacementPipeline``) and
writes per-span RSS gauges; :meth:`ResourceTracker.sample_workers`
folds pool workers' peaks in; the end-of-run
:meth:`ResourceTracker.finish` produces the manifest's ``resources``
section.  RSS reads cost tens of microseconds, two per stage boundary.
**tracemalloc does not**: it hooks every allocation and slows
allocation-heavy runs by ~8x.  The tracker therefore never starts or
stops it; it reports the allocation table whenever tracemalloc is
running (``repro place --profile-alloc`` runs it around the run).
"""

from __future__ import annotations

import os
import tracemalloc
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

from repro.obs.profile import short_path

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.recorder import Recorder

__all__ = ["PEAK_RSS_GAUGE", "ResourceTracker", "peak_rss_bytes",
           "rss_bytes"]

#: Gauge written by every tracker; merged by *max* across recorders
#: (see ``Recorder.merge``), because a fleet's peak RSS is its largest
#: member, not its last reporter.
PEAK_RSS_GAUGE = "resources/peak_rss_bytes"

#: tracemalloc allocation sites kept in the summary.
TOP_ALLOCATIONS = 10

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") \
    else 4096


def _proc_status_kb(field: str, pid: str = "self") -> Optional[int]:
    """Read one kB-valued field from ``/proc/<pid>/status``."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def rss_bytes() -> int:
    """Current resident set size of this process, bytes (0 unknown).

    Prefers ``/proc/self/statm`` (one read, no parsing ambiguity);
    falls back to ``/proc/self/status`` ``VmRSS``.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    kb = _proc_status_kb("VmRSS")
    return kb * 1024 if kb is not None else 0


def peak_rss_bytes(pid: Optional[int] = None) -> int:
    """Peak resident set size, bytes (0 unknown).

    Of this process by default, else of process ``pid`` (a pool
    worker).  ``/proc/<pid>/status`` ``VmHWM`` where available; for
    this process the fallback is ``getrusage(RUSAGE_SELF).ru_maxrss``
    (kB on Linux).
    """
    kb = _proc_status_kb("VmHWM", "self" if pid is None else str(pid))
    if kb is not None:
        return kb * 1024
    if pid is not None:
        return 0
    try:
        import resource
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) \
            * 1024
    except (ImportError, OSError):
        return 0


class ResourceTracker:
    """Per-run memory telemetry feeding one recorder.

    Args:
        recorder: the recorder that receives gauges and counters.

    The tracker never raises on platforms without ``/proc``: RSS
    gauges degrade to zero, which downstream consumers (diffing,
    reports) treat as "unknown" rather than a regression.
    """

    def __init__(self, recorder: "Recorder") -> None:
        self._recorder = recorder
        self.baseline_rss = rss_bytes()
        self.samples = 0

    # -- sampling ------------------------------------------------------
    def sample(self, label: str) -> None:
        """Record memory state at a span boundary.

        Writes ``resources/rss/<label>`` (current RSS after the unit)
        and raises the peak gauge to this process's peak; counts every
        sample.
        """
        rec = self._recorder
        rec.gauge(f"resources/rss/{label}", float(rss_bytes()))
        rec.gauge_max(PEAK_RSS_GAUGE, float(peak_rss_bytes()))
        rec.count("resources/samples")
        self.samples += 1

    def sample_workers(self, pids: Iterable[int]) -> None:
        """Raise the peak gauge to each pool worker's peak.

        Called once per pool, before it closes: a worker's ``VmHWM``
        is the peak of everything it ran, and it is gone once the
        pool shuts down.
        """
        for pid in pids:
            self._recorder.gauge_max(PEAK_RSS_GAUGE,
                                     float(peak_rss_bytes(pid)))

    # -- lifecycle -----------------------------------------------------
    def finish(self) -> Dict[str, Any]:
        """Final peak reading plus the manifest ``resources`` section.

        The section's ``peak_rss_bytes`` is the peak gauge: the
        largest of this process's peak and every worker peak folded
        in.  While tracemalloc runs, the section also carries its peak
        and top allocation sites.  Safe to call once; the recorder
        keeps the gauges either way.
        """
        current = rss_bytes()
        rec = self._recorder
        rec.gauge_max(PEAK_RSS_GAUGE, float(peak_rss_bytes()))
        tracing = tracemalloc.is_tracing()
        traced_peak = 0
        allocations: List[Dict[str, Any]] = []
        if tracing:
            stats = tracemalloc.take_snapshot().statistics("lineno")
            for stat in stats[:TOP_ALLOCATIONS]:
                frame = stat.traceback[0]
                allocations.append({
                    "site": f"{short_path(frame.filename)}:{frame.lineno}",
                    "size_bytes": int(stat.size),
                    "count": int(stat.count)})
            traced_peak = tracemalloc.get_traced_memory()[1]
            rec.gauge_max("resources/tracemalloc_peak_bytes",
                          float(traced_peak))
        return {
            "peak_rss_bytes": int(rec.gauges[PEAK_RSS_GAUGE]),
            "current_rss_bytes": int(current),
            "baseline_rss_bytes": int(self.baseline_rss),
            "samples": int(self.samples),
            "tracemalloc": {
                "enabled": tracing,
                "peak_bytes": int(traced_peak),
                "top_allocations": allocations,
            },
        }
