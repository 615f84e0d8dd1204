"""Run-to-run comparison of run manifests.

``repro obs diff A B`` answers the question every optimisation PR and
every head-to-head (bisection vs analytical global placement) has to
answer honestly: *did wall time, memory or quality regress, and by how
much?*  Each gated metric belongs to a family with a fixed budget, the
percent increase over ``A`` it may grow by (:data:`BUDGET_PCT`):

- **wall** (10 %): ``result.wall_seconds`` (per-stage breakdowns are
  reported but not gated — stage noise is much larger than total
  noise);
- **rss** (10 %): the ``resources/peak_rss_bytes`` gauge /
  ``resources`` manifest section;
- **quality** (1 %): objective, wirelength, ILV count and peak
  temperature (tight: quality is deterministic per seed).

Both documents are run manifests that passed ``manifest_schema.json``
(``repro obs diff`` validates them on load).  A metric missing on
either side (a null ``peak_temperature``, no peak RSS) is ``n/a`` and
never a regression; a metric whose increase exceeds its family budget
is a :class:`MetricDelta` with ``regressed=True``, and the CLI exits
nonzero when any exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

__all__ = ["BUDGET_PCT", "MetricDelta", "diff_documents",
           "extract_metrics", "has_regressions", "render_diff"]

#: family -> allowed percent increase of a metric over ``A``.
BUDGET_PCT: Dict[str, float] = {"wall": 10.0, "rss": 10.0,
                                "quality": 1.0}

#: metric name -> budget family.  Metrics outside this table are
#: informational (reported, never gated).
_GATED_FAMILIES: Dict[str, str] = {
    "wall_seconds": "wall",
    "peak_rss_bytes": "rss",
    "objective": "quality",
    "wirelength": "quality",
    "ilv": "quality",
    "peak_temperature": "quality",
}


@dataclass(frozen=True)
class MetricDelta:
    """One compared metric.

    Attributes:
        name: metric name (``wall_seconds``, ``stage/global`` …).
        before: value in document A (``None`` when absent).
        after: value in document B (``None`` when absent).
        pct: percent change B vs A (``None`` when not computable).
        threshold_pct: gating budget (``None`` for informational rows).
        regressed: ``pct`` exceeds ``threshold_pct``.
    """

    name: str
    before: Optional[float]
    after: Optional[float]
    pct: Optional[float]
    threshold_pct: Optional[float]
    regressed: bool


def extract_metrics(manifest: Mapping[str, Any]) -> Dict[str, float]:
    """Pull the comparable metrics out of a schema-valid manifest.

    Returns:
        ``{metric_name: value}``; gated metrics use the names in the
        family table, per-stage wall times appear as
        ``stage/<path>`` informational rows.  Peak RSS comes from the
        ``resources`` section, or from the ``resources/peak_rss_bytes``
        gauge when that section is null; a peak of 0 (the platform
        could not measure it) is left out.
    """
    result = manifest["result"]
    metrics = {key: float(result[key])
               for key in ("wall_seconds", "objective", "wirelength",
                           "ilv")}
    if result["peak_temperature"] is not None:
        metrics["peak_temperature"] = float(result["peak_temperature"])
    resources = manifest["resources"]
    rss = (manifest["gauges"].get("resources/peak_rss_bytes", 0)
           if resources is None else resources["peak_rss_bytes"])
    if rss > 0:
        metrics["peak_rss_bytes"] = float(rss)
    for row in manifest["stages"]:
        if "/" not in row["path"]:
            metrics[f"stage/{row['path']}"] = float(row["seconds"])
    return metrics


def diff_documents(before: Mapping[str, Any],
                   after: Mapping[str, Any]) -> List[MetricDelta]:
    """Compare two documents metric by metric.

    Returns:
        Deltas in stable order: gated metrics first (family-table
        order), then informational rows alphabetically.  Metrics
        present on only one side yield a delta with ``pct=None`` that
        never regresses.
    """
    a = extract_metrics(before)
    b = extract_metrics(after)
    names = list(_GATED_FAMILIES)
    names.extend(sorted((set(a) | set(b)) - set(names)))
    deltas: List[MetricDelta] = []
    for name in names:
        va, vb = a.get(name), b.get(name)
        if va is None and vb is None:
            continue
        pct: Optional[float] = None
        if va is not None and vb is not None and va > 0:
            pct = 100.0 * (vb / va - 1.0)
        family = _GATED_FAMILIES.get(name)
        threshold = None if family is None else BUDGET_PCT[family]
        regressed = (pct is not None and threshold is not None
                     and pct > threshold)
        deltas.append(MetricDelta(name=name, before=va, after=vb,
                                  pct=pct, threshold_pct=threshold,
                                  regressed=regressed))
    return deltas


def has_regressions(deltas: List[MetricDelta]) -> bool:
    """Whether any compared metric exceeded its budget."""
    return any(d.regressed for d in deltas)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if abs(value) >= 1e6 and float(value).is_integer():
        return f"{value:.4g}"
    if float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def render_diff(deltas: List[MetricDelta],
                label_a: str = "A", label_b: str = "B") -> str:
    """Readable comparison table with a one-line verdict at the end."""
    lines = [f"{'metric':<24s}{label_a:>14s}{label_b:>14s}"
             f"{'delta':>10s}  {'budget':>8s}  verdict"]
    for d in deltas:
        pct = "n/a" if d.pct is None else f"{d.pct:+.1f}%"
        budget = "-" if d.threshold_pct is None \
            else f"{d.threshold_pct:.0f}%"
        verdict = "REGRESSED" if d.regressed else (
            "ok" if d.threshold_pct is not None else "info")
        lines.append(f"{d.name:<24s}{_fmt(d.before):>14s}"
                     f"{_fmt(d.after):>14s}{pct:>10s}  {budget:>8s}"
                     f"  {verdict}")
    regressions = [d.name for d in deltas if d.regressed]
    if regressions:
        lines.append(f"REGRESSION: {', '.join(regressions)} "
                     f"exceeded budget")
    else:
        lines.append("no regressions within budget")
    return "\n".join(lines)
