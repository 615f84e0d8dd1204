"""Committed perf ledger: append bench results, watch for regressions.

The scaling benchmark (``benchmarks/bench_scaling.py``) produces a
point-in-time measurement; this module turns those points into a
*trajectory*.  ``repro obs history --append`` copies the flat
``{metric: value}`` map of a bench document into one ledger entry
and appends it to a committed JSONL file
(``benchmarks/results/ledger.jsonl``); ``repro obs history --check``
compares the newest entry against a rolling-median baseline of the
previous entries and exits nonzero when any watched metric regressed
beyond its budget.

Ledger entries are one JSON object per line::

    {"kind": "repro.bench.entry", "recorded_unix": ..., "label": ...,
     "commit": ..., "metrics": {"wall_seconds/0.05": 1.52, ...}}

All ledger metrics are *higher-is-worse* (seconds, bytes): the
regression test is one-sided.  The rolling **median** (not mean) keeps
a single noisy CI run from poisoning the baseline, and a short window
keeps the baseline tracking genuine drift instead of freezing at the
seed entry forever.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.obs.clock import wall_time

__all__ = ["LEDGER_KIND", "Regression", "append_entry",
           "check_latest", "entry_from_measurement", "load_ledger",
           "render_history"]

LEDGER_KIND = "repro.bench.entry"

#: Entries the rolling baseline looks back over.
DEFAULT_WINDOW = 5

#: Allowed increase over the rolling median, percent.  Wall-clock
#: benches on shared CI runners are noisy; 20 % catches real
#: complexity regressions without flaking on scheduler jitter.
DEFAULT_THRESHOLD_PCT = 20.0


@dataclass(frozen=True)
class Regression:
    """One ledger metric that exceeded its budget.

    Attributes:
        metric: flat metric name (``wall_seconds/0.05`` …).
        baseline: rolling-median value over the window.
        value: the latest entry's value.
        pct: percent increase of ``value`` over ``baseline``.
    """

    metric: str
    baseline: float
    value: float
    pct: float


def entry_from_measurement(measurement: Mapping[str, Any], label: str,
                           commit: Optional[str] = None,
                           recorded_unix: Optional[float] = None,
                           ) -> Dict[str, Any]:
    """Build one ledger entry from a bench document's ``metrics`` map.

    The bench already names its metrics the way the ledger tracks them
    (``wall_seconds/0.05``, ``large/peak_rss_bytes/ibm01`` …), so the
    entry copies the flat map's numeric values as they are.

    Raises:
        ValueError: when the document carries no numeric metrics.
    """
    raw = measurement.get("metrics")
    if not isinstance(raw, Mapping):
        raise ValueError("measurement has no 'metrics' map")
    metrics = {str(name): float(value)
               for name, value in sorted(raw.items())
               if isinstance(value, (int, float))
               and not isinstance(value, bool)}
    if not metrics:
        raise ValueError("measurement contains no ledger metrics")
    entry: Dict[str, Any] = {
        "kind": LEDGER_KIND,
        "recorded_unix": round(
            wall_time() if recorded_unix is None else recorded_unix, 3),
        "label": str(label),
        "metrics": metrics,
    }
    if commit:
        entry["commit"] = str(commit)
    return entry


def load_ledger(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a JSONL ledger, oldest entry first.

    Blank lines are skipped; a malformed line or a non-ledger object
    raises ``ValueError`` with its line number — a committed ledger
    that does not parse should fail loudly, not shrink silently.
    """
    entries: List[Dict[str, Any]] = []
    ledger_path = Path(path)
    if not ledger_path.exists():
        return entries
    with open(ledger_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{ledger_path}:{lineno}: invalid JSON: {exc}"
                ) from exc
            if not isinstance(obj, dict) \
                    or obj.get("kind") != LEDGER_KIND \
                    or not isinstance(obj.get("metrics"), dict):
                raise ValueError(
                    f"{ledger_path}:{lineno}: not a {LEDGER_KIND} entry")
            entries.append(obj)
    return entries


def append_entry(path: Union[str, Path],
                 entry: Mapping[str, Any]) -> None:
    """Append one entry to the ledger (creating parents as needed)."""
    ledger_path = Path(path)
    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    with open(ledger_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(entry), sort_keys=True) + "\n")


def check_latest(entries: List[Dict[str, Any]],
                 window: int = DEFAULT_WINDOW,
                 threshold_pct: float = DEFAULT_THRESHOLD_PCT,
                 ) -> List[Regression]:
    """Compare the newest entry against the rolling-median baseline.

    For each metric in the latest entry, the baseline is the median of
    that metric over up to ``window`` *preceding* entries; metrics
    with no history are new and pass.  With fewer than two entries
    there is nothing to compare, so the check passes.

    Returns:
        Regressions (empty when within budget), sorted by metric name.
    """
    if len(entries) < 2:
        return []
    latest = entries[-1]
    lookback = entries[max(0, len(entries) - 1 - window):-1]
    regressions: List[Regression] = []
    for metric, value in sorted(latest.get("metrics", {}).items()):
        if not isinstance(value, (int, float)) \
                or isinstance(value, bool):
            continue
        past = [e["metrics"][metric] for e in lookback
                if isinstance(e.get("metrics", {}).get(metric),
                              (int, float))
                and not isinstance(e["metrics"][metric], bool)]
        if not past:
            continue
        baseline = float(median(past))
        if baseline <= 0:
            continue
        pct = 100.0 * (float(value) / baseline - 1.0)
        if pct > threshold_pct:
            regressions.append(Regression(
                metric=metric, baseline=baseline,
                value=float(value), pct=pct))
    return regressions


def render_history(entries: List[Dict[str, Any]],
                   metric: Optional[str] = None) -> str:
    """Text view of the ledger.

    Without ``metric``: one row per entry (label, #metrics, commit).
    With ``metric``: that metric's trajectory across entries.
    """
    if not entries:
        return "ledger is empty"
    lines: List[str] = []
    if metric is None:
        lines.append(f"{'#':>3s}  {'label':<28s}{'metrics':>8s}  commit")
        for i, entry in enumerate(entries):
            commit = str(entry.get("commit", "-"))[:12]
            lines.append(
                f"{i:>3d}  {str(entry.get('label', '?')):<28s}"
                f"{len(entry.get('metrics', {})):>8d}  {commit}")
        return "\n".join(lines)
    lines.append(f"{'#':>3s}  {'label':<28s}{metric:>20s}")
    for i, entry in enumerate(entries):
        value = entry.get("metrics", {}).get(metric)
        shown = "n/a" if not isinstance(value, (int, float)) \
            or isinstance(value, bool) else f"{float(value):.6g}"
        lines.append(f"{i:>3d}  {str(entry.get('label', '?')):<28s}"
                     f"{shown:>20s}")
    return "\n".join(lines)
