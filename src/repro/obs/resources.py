"""Process resource telemetry: peak RSS and tracemalloc attribution.

Wall time tells half the scaling story; the other half is memory.
This module owns the two measurements the bench/regression tooling
gates on:

- **RSS**: :func:`rss_bytes` (current resident set) and
  :func:`peak_rss_bytes` (the process high-water mark), read from
  ``/proc/self`` where available with a ``resource.getrusage``
  fallback, so they work inside the CI containers without psutil;
- **tracemalloc**: allocation tracking with a top-N allocation-site
  table, attributing peak Python-heap usage to ``file:line`` sites.

A :class:`ResourceTracker` bundles both behind the recorder:
:meth:`ResourceTracker.sample` is called at pipeline stage boundaries
(see ``PlacementPipeline``) and writes per-span RSS gauges; the
end-of-run :meth:`ResourceTracker.finish` produces the manifest's
``resources`` section.

Like profiling, resource tracking is opt-in (``--profile`` /
``REPRO_PROFILE=1``) — a :class:`~repro.obs.recorder.Recorder` only
attaches a tracker when asked (or when the environment opts the whole
process tree in, which is how forked workers inherit it; see
``Recorder.merge`` for how worker peak gauges fold back by max).
RSS reads are ~µs-cheap; **tracemalloc is not** — it hooks every
allocation and slows allocation-heavy runs by ~8x, so it requires the
*separate, deeper* opt-in ``--profile-alloc`` / ``REPRO_PROFILE_ALLOC``
(:func:`alloc_enabled`) on top of profiling.
"""

from __future__ import annotations

import os
import tracemalloc
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.recorder import Recorder

__all__ = ["ALLOC_ENV", "ResourceTracker", "alloc_enabled",
           "peak_rss_bytes", "resources_enabled", "rss_bytes"]

#: Deeper opt-in for tracemalloc allocation tracing on top of
#: ``REPRO_PROFILE``.  Kept separate because hooking every allocation
#: costs ~8x wall time — never an acceptable default for a profile
#: run whose own overhead budget is 5 %.
ALLOC_ENV = "REPRO_PROFILE_ALLOC"

#: Gauge written by every tracker; merged by *max* across workers (see
#: ``Recorder.merge``), because a fleet's peak RSS is its largest
#: member, not its last reporter.
PEAK_RSS_GAUGE = "resources/peak_rss_bytes"

#: Default number of tracemalloc allocation sites kept.
DEFAULT_TOP_ALLOCATIONS = 10

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") \
    else 4096


def resources_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` opts this process into tracking."""
    from repro.obs.profile import profile_enabled
    return profile_enabled()


def alloc_enabled() -> bool:
    """Whether ``REPRO_PROFILE_ALLOC`` opts into allocation tracing."""
    value = os.environ.get(ALLOC_ENV, "").strip().lower()
    return value in ("1", "true", "yes", "on")


def _proc_status_kb(field: str) -> Optional[int]:
    """Read one kB-valued field from ``/proc/self/status``."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
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


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, bytes (0 unknown).

    ``/proc/self/status`` ``VmHWM`` where available, else
    ``getrusage(RUSAGE_SELF).ru_maxrss`` (kB on Linux).
    """
    kb = _proc_status_kb("VmHWM")
    if kb is not None:
        return kb * 1024
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
        trace_allocations: also run ``tracemalloc`` for allocation-site
            attribution.  Tracing hooks every allocation (~8x wall
            time on allocation-heavy runs), so ``None`` — the default,
            and what ``Recorder`` auto-attach passes — defers to the
            deeper :func:`alloc_enabled` opt-in rather than riding
            along with plain profiling; if another component already
            started tracemalloc, the tracker observes without taking
            ownership (and will not stop it on :meth:`finish`).
        top_allocations: allocation sites kept in the summary.

    The tracker never raises on platforms without ``/proc``: RSS
    gauges degrade to zero, which downstream consumers (diffing,
    reports) treat as "unknown" rather than a regression.
    """

    def __init__(self, recorder: "Recorder",
                 trace_allocations: Optional[bool] = None,
                 top_allocations: int = DEFAULT_TOP_ALLOCATIONS) -> None:
        self._recorder = recorder
        self.top_allocations = int(top_allocations)
        self.baseline_rss = rss_bytes()
        self.samples = 0
        self._owns_tracemalloc = False
        if trace_allocations is None:
            trace_allocations = alloc_enabled()
        self.tracing = bool(trace_allocations)
        if self.tracing and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True
        self.tracing = self.tracing and tracemalloc.is_tracing()

    # -- sampling ------------------------------------------------------
    def sample(self, label: str) -> None:
        """Record memory state at a span boundary.

        Writes ``resources/rss/<label>`` (current RSS after the unit)
        and raises the peak gauge to this process's peak; counts every
        sample so worker-merged totals are checkable across worker
        counts.
        """
        rec = self._recorder
        rec.gauge(f"resources/rss/{label}", float(rss_bytes()))
        rec.gauge_max(PEAK_RSS_GAUGE, float(peak_rss_bytes()))
        rec.count("resources/samples")
        self.samples += 1

    def top_allocation_rows(self) -> List[Dict[str, Any]]:
        """Current top allocation sites, largest first.

        Empty when tracing is off.  Sites are ``file:line`` with the
        path shortened the same way profiler frames are.
        """
        if not self.tracing or not tracemalloc.is_tracing():
            return []
        from repro.obs.profile import _PATH_MARKERS
        snapshot = tracemalloc.take_snapshot()
        stats = snapshot.statistics("lineno")
        rows: List[Dict[str, Any]] = []
        for stat in stats[:self.top_allocations]:
            frame = stat.traceback[0]
            filename = frame.filename.replace("\\", "/")
            for marker in _PATH_MARKERS:
                pos = filename.rfind(marker)
                if pos >= 0:
                    filename = filename[pos + len(marker):]
                    break
            else:
                filename = filename.rsplit("/", 1)[-1]
            rows.append({
                "site": f"{filename}:{frame.lineno}",
                "size_bytes": int(stat.size),
                "count": int(stat.count),
            })
        return rows

    # -- lifecycle -----------------------------------------------------
    def finish(self) -> Dict[str, Any]:
        """Final sample plus the manifest ``resources`` section.

        The section's ``peak_rss_bytes`` is the peak gauge: the
        largest of this process's peak and every peak merged in from
        pool workers.  Stops tracemalloc if this tracker started it.
        Safe to call once; the recorder keeps the gauges either way.
        """
        current = rss_bytes()
        rec = self._recorder
        rec.gauge_max(PEAK_RSS_GAUGE, float(peak_rss_bytes()))
        traced_peak = 0
        allocations: List[Dict[str, Any]] = []
        if self.tracing and tracemalloc.is_tracing():
            allocations = self.top_allocation_rows()
            traced_peak = tracemalloc.get_traced_memory()[1]
            rec.gauge_max("resources/tracemalloc_peak_bytes",
                          float(traced_peak))
            if self._owns_tracemalloc:
                tracemalloc.stop()
                self._owns_tracemalloc = False
        return {
            "peak_rss_bytes": int(rec.gauges[PEAK_RSS_GAUGE]),
            "current_rss_bytes": int(current),
            "baseline_rss_bytes": int(self.baseline_rss),
            "samples": int(self.samples),
            "tracemalloc": {
                "enabled": bool(self.tracing),
                "peak_bytes": int(traced_peak),
                "top_allocations": allocations,
            },
        }
