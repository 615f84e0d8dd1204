"""Content-addressed result cache for placement jobs.

A placement run is a pure function of three documents — the config
(minus execution-only keys), the pipeline spec, and the netlist — so
its result can be addressed by the hash triple.  The cache stores, per
key, the final placement coordinates (``placement.npz``), the run
manifest (``manifest.json``) and a small result summary
(``summary.json``); a resubmission of the same triple short-circuits
straight to ``done`` without running a single stage, which is the
``cache/hit`` counter in service telemetry.

Entries are published atomically (staged in a temp directory, then
``os.replace``-d into place), so a half-written entry is never
visible; a concurrent publish of the same key keeps the first writer's
entry — both are bit-identical by construction.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = ["CacheEntry", "ResultCache", "cache_key"]


def cache_key(config_hash: str, spec_hash: str,
              netlist_hash: str) -> str:
    """Derive the cache address from the identity hash triple.

    Returns:
        A bare sha256 hex digest (no prefix) — it doubles as the
        cache-entry directory name.
    """
    blob = "|".join((config_hash, spec_hash, netlist_hash))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """One published cache entry.

    Attributes:
        key: the sha256 cache key the entry is addressed by.
        placement_path: path to the ``placement.npz`` coordinates.
        manifest_path: path to the cached run manifest.
        summary: the result summary (objective, wirelength, ilv,
            wall_seconds of the *original* run).
    """

    key: str
    placement_path: Path
    manifest_path: Path
    summary: Dict[str, Any]


class ResultCache:
    """Content-addressed store of finished placement results.

    Args:
        root: cache root directory; entries live in two-level
            fan-out subdirectories (``<root>/ab/abcdef…``).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def entry_dir(self, key: str) -> Path:
        """The directory a key's entry occupies (existing or not)."""
        return self.root / key[:2] / key

    def fetch(self, key: str) -> Optional[CacheEntry]:
        """Look up a key; returns the entry or ``None`` on a miss."""
        directory = self.entry_dir(key)
        summary_path = directory / "summary.json"
        if not summary_path.is_file():
            return None
        with open(summary_path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        if not isinstance(summary, dict):
            return None
        return CacheEntry(key=key,
                          placement_path=directory / "placement.npz",
                          manifest_path=directory / "manifest.json",
                          summary=summary)

    def store(self, key: str, placement_path: Union[str, Path],
              manifest: Dict[str, Any],
              summary: Dict[str, Any]) -> CacheEntry:
        """Publish a finished result under ``key`` atomically.

        The artifacts are staged into a sibling temp directory and
        moved into place with ``os.replace``; if another publisher won
        the race the first entry is kept (the results are
        bit-identical by construction, so either is correct).
        """
        directory = self.entry_dir(key)
        directory.parent.mkdir(parents=True, exist_ok=True)
        staging = directory.parent / f".tmp-{key}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        shutil.copyfile(placement_path, staging / "placement.npz")
        with open(staging / "manifest.json", "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(staging / "summary.json", "w",
                  encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        try:
            os.replace(staging, directory)
        except OSError:
            # lost the publish race (or a non-empty dir already
            # exists): keep the incumbent entry, drop the staging copy
            shutil.rmtree(staging, ignore_errors=True)
        entry = self.fetch(key)
        assert entry is not None
        return entry

    def keys(self) -> List[str]:
        """All published cache keys (unordered fan-out walk)."""
        found: List[str] = []
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if entry.is_dir() and (entry / "summary.json").is_file():
                    found.append(entry.name)
        return found
