"""Plain-text rendering of telemetry snapshots and run manifests.

Used by ``repro place --trace``, ``repro obs report`` and the
benchmark harnesses to print per-stage, memory and hot-function
breakdowns without any plotting dependencies.

The manifest renderers read a document that passed
``manifest_schema.json`` (``repro obs report`` validates it on load),
so they read its fields directly.  A section the schema lets be null
(``profile`` of an unprofiled run, ``resources`` of a service job's
manifest) renders as an honest "(none)".
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional

from repro.obs.recorder import Telemetry

__all__ = ["render", "render_manifest", "render_profile",
           "render_resources", "render_spans"]

#: Deepest span level :func:`render_spans` prints (0 = top level).
SPAN_DEPTH = 4


def render_spans(spans: Mapping[str, Any]) -> str:
    """Render a span tree (as produced by ``SpanStats.as_dict``).

    Each line shows indentation by depth, the node name, its total
    seconds, its share of the parent, and the call count, down to
    :data:`SPAN_DEPTH`.  Returns an empty string for an empty tree.
    """
    lines: List[str] = []

    def visit(node: Mapping[str, Any], depth: int,
              parent_total: float) -> None:
        if depth > SPAN_DEPTH:
            return
        total = float(node["total_seconds"])
        share = 100.0 * total / parent_total if parent_total > 0 else 0.0
        indent = "  " * depth
        lines.append(f"{indent}{node['name']:<24s}"
                     f"{total:>10.4f}s {share:>5.1f}%  x{node['calls']}")
        for child in node["children"]:
            visit(child, depth + 1, total)

    for child in spans.get("children", []):
        visit(child, 0, float(spans["total_seconds"]))
    return "\n".join(lines)


def _bytes_human(value: float) -> str:
    size = float(value)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(size) < 1024.0 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" \
                else f"{int(size)} B"
        size /= 1024.0
    return f"{size:.1f} GiB"  # pragma: no cover - unreachable


def render_resources(resources: Optional[Mapping[str, Any]]) -> str:
    """Render a manifest ``resources`` section (memory report).

    ``None`` (no section recorded) renders a single "(none)" line.
    """
    if resources is None:
        return "-- memory --\n(none recorded)"
    lines = ["-- memory --"]
    for key, label in (("peak_rss_bytes", "peak RSS"),
                       ("current_rss_bytes", "final RSS"),
                       ("baseline_rss_bytes", "baseline RSS")):
        if resources[key] > 0:
            lines.append(f"{label:<24s}"
                         f"{_bytes_human(resources[key]):>14s}")
    lines.append(f"{'samples':<24s}{resources['samples']:>14d}")
    trace = resources["tracemalloc"]
    if trace["enabled"]:
        lines.append(f"{'python heap peak':<24s}"
                     f"{_bytes_human(trace['peak_bytes']):>14s}")
        if trace["top_allocations"]:
            lines.append("top allocation sites:")
            for row in trace["top_allocations"]:
                lines.append(f"  {row['site']:<38s}"
                             f"{_bytes_human(row['size_bytes']):>12s}")
    return "\n".join(lines)


def render_profile(profile: Optional[Mapping[str, Any]]) -> str:
    """Render a manifest ``profile`` section (hot-function report).

    ``None`` (unprofiled run) renders a single "(none)" line.
    """
    if profile is None:
        return "-- hot functions --\n(none: run without --profile)"
    lines = ["-- hot functions --"]
    header = f"{profile['samples']} samples"
    if profile["interval_seconds"] > 0:
        header += f" @ {profile['interval_seconds'] * 1000:.0f}ms"
    lines.append(header)
    if profile["hot_functions"]:
        lines.append(f"{'function':<44s}{'self':>6s}{'cum':>6s}")
        for row in profile["hot_functions"]:
            lines.append(f"{row['function']:<44s}"
                         f"{row['self']:>6d}{row['cum']:>6d}")
    else:
        lines.append("(no samples attributed)")
    if profile["spans"]:
        lines.append("per-span samples:")
        for row in profile["spans"]:
            span = row["span"] or "(no span)"
            lines.append(f"  {span:<42s}{row['samples']:>6d}")
    return "\n".join(lines)


def render(telemetry: Telemetry, title: str = "telemetry") -> str:
    """Render a full telemetry snapshot as readable text.

    Sections: span tree, counters (sorted by name), and one summary
    line per time-series (point count plus last point).  Empty
    sections are omitted; a snapshot with no spans at all still
    renders its header.
    """
    lines: List[str] = [f"== {title} "
                        f"(wall {telemetry.wall_seconds:.4f}s) =="]
    span_text = render_spans(telemetry.spans)
    if span_text:
        lines.append("-- spans --")
        lines.append(span_text)
    else:
        lines.append("-- spans --")
        lines.append("(no spans recorded)")
    if telemetry.counters:
        lines.append("-- counters --")
        for name in sorted(telemetry.counters):
            value = telemetry.counters[name]
            if float(value).is_integer():
                lines.append(f"{name:<32s}{int(value):>12d}")
            else:
                lines.append(f"{name:<32s}{value:>12.4f}")
    if telemetry.series:
        lines.append("-- series --")
        for name in sorted(telemetry.series):
            points = telemetry.series[name]
            if not points:
                lines.append(f"{name:<24s}{0:>6d} points")
                continue
            last = {k: v for k, v in points[-1].items() if k != "t"}
            parts = ", ".join(f"{k}={v:.6g}"
                              for k, v in sorted(last.items()))
            lines.append(f"{name:<24s}{len(points):>6d} points"
                         f"  last: {parts}")
    return "\n".join(lines)


def render_manifest(manifest: Mapping[str, Any]) -> str:
    """Render a schema-valid run manifest as a full text report.

    Sections: run header (circuit, seed, result), span stages, memory
    and hot functions.
    """
    lines = [f"== run report: {manifest['circuit']['name']} =="]
    result = manifest["result"]
    for key in ("objective", "wirelength", "ilv", "wall_seconds",
                "peak_temperature"):
        if result[key] is not None:
            lines.append(f"{key:<24s}{float(result[key]):>14.6g}")
    lines.append("-- stages --")
    for row in manifest["stages"]:
        lines.append(f"{row['path']:<36s}{float(row['seconds']):>10.4f}s"
                     f"  x{row['calls']}")
    if not manifest["stages"]:
        lines.append("(no stages recorded)")
    lines.append(render_resources(manifest["resources"]))
    lines.append(render_profile(manifest["profile"]))
    return "\n".join(lines)
