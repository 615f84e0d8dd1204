"""Source-keyed cache of loaded netlists.

``sweep`` dispatches one job per ``alpha_ILV`` point and the placement
service re-executes resubmitted requests — and every one of those jobs
used to re-parse or re-generate its circuit from scratch, the single
largest fixed cost of a job at full instance scale (~0.3 s for
ibm01@1.0, dwarfing the cache-hit path itself).  This cache keeps each
loaded :class:`Netlist` under a source key and answers repeats with
that same object:

- **shared**: the placer never mutates a netlist, so every job of one
  circuit can read the same instance.  Structures derived from it (the
  signal CSR of :mod:`repro.netlist.csr`, the service's netlist hash)
  are cached on the instance, so they too are built once per process.
- **source key**: the key describes where the netlist came from —
  generator parameters (:func:`benchmark_key`) or Bookshelf file
  identity including mtime/size (:func:`bookshelf_key`) — so an edited
  file on disk misses and re-parses, while a resubmission hits.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Callable, Dict, Optional

from repro.netlist.netlist import Netlist

__all__ = ["NetlistCache", "benchmark_key", "bookshelf_key",
           "cached_netlist", "clear_netlist_cache",
           "netlist_cache_stats"]


def benchmark_key(name: str, scale: float, seed: int) -> str:
    """Source key for a generated suite / synthetic circuit."""
    return f"bench:{name}:{scale:g}:{seed}"


def bookshelf_key(prefix: str) -> str:
    """Source key for a Bookshelf circuit on disk.

    Includes each component file's size and mtime, so editing the
    files invalidates the key naturally.
    """
    parts = [f"bookshelf:{os.path.abspath(prefix)}"]
    for ext in (".nodes", ".nets", ".pl"):
        path = prefix + ext
        try:
            st = os.stat(path)
            parts.append(f"{ext}:{st.st_size}:{st.st_mtime_ns}")
        except FileNotFoundError:
            parts.append(f"{ext}:absent")
    return "|".join(parts)


class NetlistCache:
    """LRU store of loaded netlists, keyed by source.

    Args:
        capacity: maximum cached circuits; the least recently used
            entry is evicted first.
    """

    def __init__(self, capacity: int = 6) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[str, Netlist]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get_or_load(self, key: str,
                    loader: Callable[[], Netlist]) -> Netlist:
        """The netlist for ``key``, loading (and caching) on a miss.

        Every call for one key returns the same object; callers read it
        and must not add cells or nets to it.
        """
        netlist = self._entries.get(key)
        if netlist is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return netlist
        self.misses += 1
        netlist = loader()
        self._entries[key] = netlist
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return netlist

    def stats(self) -> Dict[str, int]:
        """Counters: hits, misses, entries."""
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries)}

    def clear(self) -> None:
        """Drop every entry (counters keep running)."""
        self._entries.clear()


#: Process-wide cache instance the loaders below share.
_GLOBAL: Optional[NetlistCache] = None


def _global_cache() -> NetlistCache:
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = NetlistCache()
    return _GLOBAL


def cached_netlist(key: str, loader: Callable[[], Netlist]) -> Netlist:
    """Load through the process-wide netlist cache."""
    return _global_cache().get_or_load(key, loader)


def netlist_cache_stats() -> Dict[str, int]:
    """Stats of the process-wide cache."""
    return _global_cache().stats()


def clear_netlist_cache() -> None:
    """Reset the process-wide cache (tests)."""
    global _GLOBAL
    _GLOBAL = None
