"""Observability layer: spans, metrics, events, manifests, logging.

``repro.obs`` is a zero-required-dependency package the whole pipeline
reports through:

- :class:`Tracer` / :class:`SpanStats` — hierarchical timing spans
  with call counts and nested aggregation (``trace.py``);
- :class:`Recorder` / :class:`NullRecorder` — counters, gauges and
  time-series behind one object; the ambient recorder
  (:func:`get_recorder` / :func:`use_recorder`) is a no-op unless a
  caller opts in (``recorder.py``);
- :class:`SamplingProfiler` / :class:`ProfileData` — opt-in sampling
  profiler attributing stacks to open span paths, with collapsed-stack
  export (``profile.py``);
- :class:`ResourceTracker` — the RSS (and, while tracemalloc runs,
  allocation-site) tracking every live recorder carries
  (``resources.py``);
- :class:`EventSink` / :func:`read_events` — structured JSONL event
  stream (``events.py``);
- :func:`build_manifest` / :func:`write_manifest` /
  :func:`validate_manifest` — end-of-run manifest plus its checked-in
  schema (``manifest.py``, ``manifest_schema.json``, ``validate.py``);
- :func:`get_logger` / :func:`configure_cli_logging` — namespaced
  ``repro.*`` logging (``log.py``);
- :func:`render` / :func:`render_manifest` — plain-text telemetry and
  manifest reports (``report.py``); run-to-run comparison against
  fixed wall, RSS and quality budgets lives in ``diffing.py``.

Design note: ``repro.obs`` is the only part of ``src/repro`` allowed
to touch the clocks directly — ``time.perf_counter`` (linter rule
RPL009) and the wall clock (RPL013).  All other timing goes through
spans or :class:`Stopwatch`, and timestamps through
:func:`wall_time` (``clock.py``).
"""

from repro.obs.clock import wall_time
from repro.obs.events import EventSink, read_events
from repro.obs.log import configure_cli_logging, get_logger
from repro.obs.manifest import (build_manifest, config_hash, load_schema,
                                validate_manifest, write_manifest)
from repro.obs.profile import ProfileData, SamplingProfiler
from repro.obs.recorder import (NULL_RECORDER, NullRecorder, Recorder,
                                Telemetry, get_recorder, use_recorder)
from repro.obs.report import (render, render_manifest, render_profile,
                              render_resources, render_spans)
from repro.obs.resources import ResourceTracker, peak_rss_bytes, rss_bytes
from repro.obs.trace import SpanStats, Stopwatch, Tracer

__all__ = [
    "EventSink",
    "NULL_RECORDER",
    "NullRecorder",
    "ProfileData",
    "Recorder",
    "ResourceTracker",
    "SamplingProfiler",
    "SpanStats",
    "Stopwatch",
    "Telemetry",
    "Tracer",
    "build_manifest",
    "config_hash",
    "configure_cli_logging",
    "get_logger",
    "get_recorder",
    "load_schema",
    "peak_rss_bytes",
    "read_events",
    "render",
    "render_manifest",
    "render_profile",
    "render_resources",
    "render_spans",
    "rss_bytes",
    "use_recorder",
    "validate_manifest",
    "wall_time",
    "write_manifest",
]
