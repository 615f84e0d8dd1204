"""Zero-copy task dispatch over ``multiprocessing.shared_memory``.

The PR-5 data plane shipped every :class:`BisectionTask` through pickle:
a few kilobytes of CSR arrays per task, re-serialized for every region
of every bisection level.  At full instance scale that serialization is
the dominant dispatch cost.  This module replaces it with a *batch
arena*: the dispatcher packs one shared-memory segment per task batch
(one bisection level), and what travels through the pool's pickle
channel is a :class:`SegmentRef` — segment name plus item index, about a
hundred bytes — while workers map the arrays read-only, zero-copy, from
the segment.

Segment layout (all offsets 8-byte aligned)::

    [u64 header length n][pickled headers, n bytes][array region ...]

The *headers* are one dict per packed item: scalar fields are stored
verbatim, each array field is replaced by an ``("__array__", offset,
shape, dtype_str)`` descriptor resolved against the array region.  The
descriptor carries the exact source dtype, so a round trip through the
arena is bit-identical to pickling the arrays themselves — parallel
results stay bit-identical to serial at every worker count.

Lifecycle: :class:`SharedArrayPool` owns segment creation and unlinking
on the dispatching side; a batch's segment is unlinked as soon as its
results are collected (attached workers keep it mapped until they move
on — Linux shm is fd-backed, unlink-while-mapped is safe).  On the
worker side :func:`resolve` keeps a single-segment attachment cache:
frontier levels are barriers, so when a ref for a *new* segment arrives
the previous segment can be closed — a worker never holds more than one
batch mapped (plus any whose buffers are still referenced, retired and
reaped once released).

The arena publishes per-*batch* rather than once per run because task
payloads are level-dependent: terminal propagation bakes the current
positions into each region's CSR arrays, so there is no run-constant
CSR superset to share.  What is constant per run is the pool itself and
its naming/accounting.

Falls back cleanly: :func:`available` probes whether the platform can
create segments (some containers mount no ``/dev/shm``); callers keep
the dense pickled path when it cannot.

This module lives in ``repro.parallel`` on purpose: lint rule RPL015
confines ``multiprocessing.shared_memory`` imports here, the same way
RPL011 confines process pools, so segment lifecycle (create / close /
unlink, resource-tracker handling) has exactly one owner.
"""

from __future__ import annotations

import atexit
import pickle
import struct
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["PackedBatch", "SegmentRef", "SharedArrayPool", "available",
           "resolve"]

#: Array-field marker inside a packed header dict.
_ARRAY_TAG = "__array__"

#: Alignment of the header/array regions, bytes (covers float64/int64).
_ALIGN = 8

_HEADER_LEN = struct.Struct("<Q")


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


# Resource-tracker note: on Python < 3.13 *attaching* a segment
# registers it with the tracker just like creating one does.  Under the
# fork start method (our pools prefer it) every process shares the
# parent's tracker, whose cache is a set — the workers' duplicate
# registrations collapse onto the creator's entry, and the single
# unregister inside PackedBatch.close()'s unlink() retires it.  An
# explicit per-worker unregister here would *double*-remove and make
# the tracker process print KeyError tracebacks, so workers must not
# unregister what they attach.

_available: Optional[bool] = None


def available() -> bool:
    """Whether this platform can create shared-memory segments.

    Probes once by creating (and immediately unlinking) a minimal
    segment; some sandboxes mount no shm filesystem.  Callers fall
    back to dense pickled dispatch when this is ``False``.
    """
    global _available
    if _available is None:
        try:
            probe = shared_memory.SharedMemory(create=True, size=_ALIGN)
            probe.close()
            probe.unlink()
            _available = True
        except Exception:
            _available = False
    return _available


@dataclass(frozen=True)
class SegmentRef:
    """The entire cross-process payload for one packed item.

    Attributes:
        segment: shared-memory segment name.
        index: item position within the segment's header list.
    """

    segment: str
    index: int


class PackedBatch:
    """One published batch: a segment plus the refs that address it.

    Attributes:
        refs: one :class:`SegmentRef` per packed item, in item order.
        segment_bytes: total segment size, bytes.
        array_bytes: bytes occupied by the array region alone.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 refs: List[SegmentRef], array_bytes: int) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.refs = refs
        self.segment_bytes = shm.size
        self.array_bytes = array_bytes

    @property
    def name(self) -> str:
        """Segment name (valid until :meth:`close`)."""
        if self._shm is None:
            raise ValueError("batch already closed")
        return self._shm.name

    def close(self) -> None:
        """Close and unlink the segment (idempotent).

        Safe while workers are still attached: the segment vanishes
        from the namespace but stays mapped wherever it is open.
        """
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


class SharedArrayPool:
    """Dispatcher-side owner of shared-memory task arenas.

    One pool lives for one placer run.  :meth:`pack` publishes a batch
    of array-bearing task payloads into a fresh segment and returns the
    :class:`PackedBatch` whose tiny refs are what the execution backend
    pickles.  The pool tracks open batches so :meth:`close` can unlink
    anything a crashed level left behind.

    Usage::

        pool = SharedArrayPool()
        try:
            batch = pool.pack(payload_dicts)
            results = backend.map(worker_fn, batch.refs)
            batch.close()
        finally:
            pool.close()
    """

    def __init__(self) -> None:
        self._open: List[PackedBatch] = []
        self._closed = False

    def pack(self, items: Sequence[Mapping[str, Any]]) -> PackedBatch:
        """Publish a batch of payload dicts into one shared segment.

        Args:
            items: payload dicts; :class:`numpy.ndarray` values go to
                the zero-copy array region, everything else must be
                picklable and rides in the header.

        Returns:
            The published batch; call its ``close()`` once every
            result is in.

        Raises:
            ValueError: on an empty batch or a closed pool.
        """
        if self._closed:
            raise ValueError("pool is closed")
        if not items:
            raise ValueError("cannot pack an empty batch")
        headers: List[Dict[str, Any]] = []
        arrays: List[Tuple[int, np.ndarray]] = []  # (offset, source)
        cursor = 0  # within the array region
        for item in items:
            header: Dict[str, Any] = {}
            for key, value in item.items():
                if isinstance(value, np.ndarray):
                    arr = np.ascontiguousarray(value)
                    cursor = _align(cursor)
                    header[key] = (_ARRAY_TAG, cursor, arr.shape,
                                   arr.dtype.str)
                    arrays.append((cursor, arr))
                    cursor += arr.nbytes
                else:
                    header[key] = value
            headers.append(header)
        blob = pickle.dumps(headers, protocol=pickle.HIGHEST_PROTOCOL)
        region = _align(_HEADER_LEN.size + len(blob))
        size = max(_ALIGN, region + cursor)
        shm = shared_memory.SharedMemory(create=True, size=size)
        buf = shm.buf
        _HEADER_LEN.pack_into(buf, 0, len(blob))
        buf[_HEADER_LEN.size:_HEADER_LEN.size + len(blob)] = blob
        for offset, arr in arrays:
            dest = np.ndarray(arr.shape, dtype=arr.dtype, buffer=buf,
                              offset=region + offset)
            dest[...] = arr
        del dest, buf  # release exported views before any close()
        refs = [SegmentRef(shm.name, i) for i in range(len(items))]
        batch = PackedBatch(shm, refs, array_bytes=cursor)
        self._open.append(batch)
        return batch

    def close(self) -> None:
        """Unlink every still-open batch (idempotent)."""
        self._closed = True
        batches, self._open = self._open, []
        for batch in batches:
            batch.close()

    def __enter__(self) -> "SharedArrayPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------
# Worker side

#: The one attached segment: (name, shm, parsed headers, array region).
_attached: Optional[Tuple[str, shared_memory.SharedMemory,
                          List[Dict[str, Any]], int]] = None

#: Segments whose buffers were still referenced when superseded; reaped
#: opportunistically once the references die.
_retired: List[shared_memory.SharedMemory] = []


def _reap_retired() -> None:
    still: List[shared_memory.SharedMemory] = []
    for shm in _retired:
        try:
            shm.close()
        except BufferError:
            still.append(shm)
    _retired[:] = still


def _close_attached() -> None:
    global _attached
    if _attached is not None:
        _retired.append(_attached[1])
        _attached = None
    _reap_retired()


atexit.register(_close_attached)


def _attach(name: str) -> Tuple[shared_memory.SharedMemory,
                                List[Dict[str, Any]], int]:
    global _attached
    if _attached is not None and _attached[0] == name:
        return _attached[1], _attached[2], _attached[3]
    _close_attached()
    shm = shared_memory.SharedMemory(name=name)
    (blob_len,) = _HEADER_LEN.unpack_from(shm.buf, 0)
    headers = pickle.loads(
        bytes(shm.buf[_HEADER_LEN.size:_HEADER_LEN.size + blob_len]))
    region = _align(_HEADER_LEN.size + blob_len)
    _attached = (name, shm, headers, region)
    return shm, headers, region


def resolve(ref: SegmentRef) -> Dict[str, Any]:
    """Materialize one packed payload from its segment ref.

    Arrays come back as read-only zero-copy views into the mapped
    segment — valid until the *next* batch's segment is attached in
    this process, which by the frontier-barrier contract is after the
    current task's results have been returned.  Callers needing the
    data past that point must copy.

    Args:
        ref: the payload address produced by
            :meth:`SharedArrayPool.pack`.

    Returns:
        The payload dict with array descriptors resolved to views.
    """
    shm, headers, region = _attach(ref.segment)
    header = headers[ref.index]
    payload: Dict[str, Any] = {}
    for key, value in header.items():
        if (isinstance(value, tuple) and len(value) == 4
                and value[0] == _ARRAY_TAG):
            _, offset, shape, dtype_str = value
            view = np.ndarray(shape, dtype=np.dtype(dtype_str),
                              buffer=shm.buf, offset=region + offset)
            view.flags.writeable = False
            payload[key] = view
        else:
            payload[key] = value
    return payload
