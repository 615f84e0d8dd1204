"""End-of-run manifest: what ran, with what, and what came out.

The manifest is a single JSON document written next to the ``.pl``
(or wherever ``--telemetry-out`` points) capturing everything needed to
reproduce and audit a run: netlist stats, the full config plus a stable
hash of it, the RNG seed, tool versions, the per-stage span summary,
the per-round Eq. 3 decomposition, and counters.  Its shape is pinned
by ``manifest_schema.json`` (validated in CI with the dependency-free
validator in :mod:`repro.obs.validate`).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import platform
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.obs.recorder import Telemetry
from repro.obs.validate import validate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.config import PlacementConfig
    from repro.core.placer import PlacementResult
    from repro.netlist.netlist import Netlist

__all__ = ["CHECKPOINT_KIND", "EXECUTION_ONLY_KEYS",
           "HASHED_CONFIG_KEYS", "MANIFEST_KIND", "SCHEMA_VERSION",
           "build_manifest", "config_hash", "content_hash",
           "load_schema", "validate_checkpoint_meta",
           "validate_manifest", "write_manifest"]

MANIFEST_KIND = "repro.placement.run"
CHECKPOINT_KIND = "repro.placement.checkpoint"
SCHEMA_VERSION = 1

_SCHEMA_PATH = Path(__file__).with_name("manifest_schema.json")
_CHECKPOINT_SCHEMA_PATH = Path(__file__).with_name(
    "checkpoint_schema.json")


def _config_dict(config: "PlacementConfig") -> Dict[str, Any]:
    """Flatten a config dataclass into JSON-safe primitives."""
    raw = dataclasses.asdict(config)

    def scrub(value: Any) -> Any:
        if isinstance(value, dict):
            return {str(k): scrub(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [scrub(v) for v in value]
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        return repr(value)

    scrubbed = scrub(raw)
    assert isinstance(scrubbed, dict)
    return scrubbed


def content_hash(document: Any) -> str:
    """Stable content hash of any JSON-serialisable document.

    Returns:
        ``"sha256:<hex>"`` over the sorted-key compact JSON, so two
        structurally identical documents hash identically across
        sessions.  Used for config hashes in manifests and for the
        config/spec hashes that guard checkpoint resume.
    """
    blob = json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return "sha256:" + hashlib.sha256(blob).hexdigest()


#: Config keys that only steer execution (how fast, on how many
#: cores), never results.  They stay visible in the manifest's
#: ``config`` section but are excluded from :func:`config_hash`, so a
#: checkpoint taken at ``--workers 4`` resumes under ``--workers 1``
#: (and vice versa) — the determinism contract of :mod:`repro.parallel`
#: guarantees the science is identical.
EXECUTION_ONLY_KEYS = ("num_workers",)

#: Config keys that *do* shape results and therefore participate in
#: :func:`config_hash`.  Together with :data:`EXECUTION_ONLY_KEYS`
#: this is an exhaustive, audited classification of every
#: ``PlacementConfig`` field: :func:`config_hash` refuses a config
#: carrying a key in neither tuple, so a newly added field (e.g. a
#: service knob) cannot silently change — or silently not change —
#: the hash that keys checkpoints and the service result cache.
HASHED_CONFIG_KEYS = (
    "alpha_ilv", "alpha_temp", "num_layers",
    "use_thermal_net_weights", "use_trr_nets",
    "partition_starts", "move_target_bins",
    "legalization_rounds", "refine_passes",
    "seed", "tech",
)


def config_hash(config: "PlacementConfig") -> str:
    """Stable content hash of a placement config.

    Returns:
        ``"sha256:<hex>"`` over the sorted-key JSON of the config
        (minus :data:`EXECUTION_ONLY_KEYS`), so two runs with identical
        scientific knobs hash identically across sessions and worker
        counts.

    Raises:
        ValueError: the config carries a field classified neither in
            :data:`HASHED_CONFIG_KEYS` nor :data:`EXECUTION_ONLY_KEYS`.
    """
    document = _config_dict(config)
    unclassified = sorted(set(document) - set(HASHED_CONFIG_KEYS)
                          - set(EXECUTION_ONLY_KEYS))
    if unclassified:
        raise ValueError(
            f"unclassified PlacementConfig keys {unclassified}: add "
            f"each to HASHED_CONFIG_KEYS (results change with it) or "
            f"EXECUTION_ONLY_KEYS (pure execution steering) in "
            f"repro.obs.manifest")
    for key in EXECUTION_ONLY_KEYS:
        document.pop(key, None)
    return content_hash(document)


def _versions() -> Dict[str, str]:
    import numpy
    import scipy

    import repro
    return {
        "python": platform.python_version(),
        "numpy": str(numpy.__version__),
        "scipy": str(scipy.__version__),
        "repro": str(repro.__version__),
    }


def _stage_rows(telemetry: Telemetry) -> List[Dict[str, Any]]:
    """Flatten the span tree into ``(path, calls, seconds)`` rows."""
    rows: List[Dict[str, Any]] = []

    def visit(node: Dict[str, Any], prefix: str) -> None:
        for child in node.get("children", []):
            path = f"{prefix}{child['name']}"
            rows.append({"path": path,
                         "calls": int(child["calls"]),
                         "seconds": float(child["seconds"])})
            visit(child, f"{path}/")

    visit(telemetry.spans, "")
    return rows


def build_manifest(netlist: "Netlist", config: "PlacementConfig",
                   result: "PlacementResult",
                   telemetry: Optional[Telemetry] = None,
                   trace_path: Optional[str] = None,
                   peak_temperature: Optional[float] = None,
                   pipeline: Optional[Dict[str, Any]] = None,
                   resources: Optional[Dict[str, Any]] = None,
                   profile: Optional[Dict[str, Any]] = None,
                   job: Optional[Dict[str, Any]] = None,
                   ) -> Dict[str, Any]:
    """Assemble the run manifest document.

    Args:
        netlist: the placed circuit (for size stats).
        config: the placement configuration that produced ``result``.
        result: the finished placement result.
        telemetry: recorder snapshot; defaults to
            ``result.telemetry``.
        trace_path: path of the JSONL trace written alongside, if any.
        peak_temperature: optional evaluated peak temperature, kelvin.
        pipeline: the serialized :class:`PipelineSpec` the run
            executed (``spec.to_dict()``), recorded so a manifest pins
            the exact stage composition, not just the config knobs.
        resources: the resource tracker's summary
            (``Recorder.finish_resources()``) — peak RSS and, while
            tracemalloc runs, allocation sites.  ``None`` when the
            caller has no tracker's summary to give.
        profile: the sampling profiler's summary
            (``SamplingProfiler.summary()``).  ``None`` when the run
            was not profiled.
        job: the service-job section (``id``, ``cache`` status,
            ``preemptions``) when the run executed as a
            :mod:`repro.service` job; ``None`` for direct runs.

    Returns:
        A JSON-serialisable dict matching ``manifest_schema.json``.
    """
    tele = telemetry if telemetry is not None else result.telemetry
    if tele is None:
        tele = Telemetry()
    rounds: List[Dict[str, float]] = [
        dict(point) for point in tele.series.get("placer/round", [])]
    return {
        "kind": MANIFEST_KIND,
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "circuit": {
            "name": netlist.name,
            "num_cells": int(netlist.num_cells),
            "num_nets": int(netlist.num_nets),
            "num_movable": int(netlist.num_movable),
            "num_pins": int(netlist.num_pins()),
            "total_cell_area": float(netlist.total_cell_area),
        },
        "seed": int(config.seed),
        "config": _config_dict(config),
        "config_hash": config_hash(config),
        "versions": _versions(),
        "result": {
            "objective": float(result.objective),
            "wirelength": float(result.wirelength),
            "ilv": int(result.ilv),
            "wall_seconds": float(result.runtime_seconds),
            "peak_temperature": (None if peak_temperature is None
                                 else float(peak_temperature)),
        },
        "stages": _stage_rows(tele),
        "rounds": rounds,
        "counters": dict(tele.counters),
        "gauges": dict(tele.gauges),
        "trace_path": trace_path,
        "pipeline": pipeline,
        "resources": resources,
        "profile": profile,
        "job": job,
    }


def write_manifest(path: Union[str, Path],
                   manifest: Dict[str, Any]) -> str:
    """Write a manifest as pretty-printed JSON; returns the path."""
    path = str(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


@functools.lru_cache(maxsize=None)
def load_schema(path: Path = _SCHEMA_PATH) -> Dict[str, Any]:
    """Load a packaged JSON schema (the run manifest's by default)
    once per process; every caller shares the dict, so none may
    mutate it."""
    with open(path, "r", encoding="utf-8") as fh:
        schema = json.load(fh)
    assert isinstance(schema, dict)
    return schema


def validate_manifest(manifest: Dict[str, Any]) -> List[str]:
    """Validate a manifest; returns a list of errors (empty = valid)."""
    return validate(manifest, load_schema())


def validate_checkpoint_meta(meta: Dict[str, Any]) -> List[str]:
    """Validate checkpoint metadata; returns errors (empty = valid).

    Checkpoints reuse the same dependency-free schema validator as run
    manifests, so a corrupt or hand-edited checkpoint is refused with
    a precise error instead of resuming garbage.
    """
    return validate(meta, load_schema(_CHECKPOINT_SCHEMA_PATH))
