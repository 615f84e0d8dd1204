"""Dtype-minimized CSR views of a netlist's signal structure.

:class:`~repro.core.objective.ObjectiveState`'s vectorized net/pin
kernels need the same handful of flat arrays: the net->pin CSR over
unique cell ids, the driver CSR, the cell->net incidence CSR and the
sorted membership keys.  Building them walks every net's Python pin
list — cheap once, wasteful when a sweep or the placement service
evaluates the same circuit many times.  :func:`signal_csr` caches the
result on the :class:`Netlist` until a cell or net is added; since
:mod:`repro.netlist.cache` serves one loaded instance per circuit,
every run of that circuit in a process shares one build.

Index arrays are dtype-minimized: int32 when every index and every
pin count fits (``ranges allow``), int64 otherwise — full ibm01 needs
~51k pin entries, a factor-2 smaller resident set and half the bytes
to ship than int64.  The sorted membership *keys* are always int64:
they encode ``net * num_cells + cell`` products that overflow int32
long before the index arrays do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

import numpy as np

from repro.analysis import FloatArray, IntArray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netlist.netlist import Netlist

__all__ = ["SignalCSR", "build_signal_csr", "index_dtype", "signal_csr"]

#: Largest count an int32 index array may address.
_INT32_MAX = np.iinfo(np.int32).max


def index_dtype(max_value: int) -> np.dtype:
    """The smallest supported index dtype that can hold ``max_value``.

    int32 where ranges allow, int64 beyond — the guard that keeps a
    >2-billion-pin parse from silently wrapping.
    """
    return np.dtype(np.int32 if max_value <= _INT32_MAX else np.int64)


@dataclass(frozen=True)
class SignalCSR:
    """Flat signal-net structure shared by vectorized kernels.

    All index arrays use the minimized dtype of :func:`index_dtype`;
    consumers whose arithmetic can overflow int32 (key encodings,
    ``reduceat`` offsets into much larger arrays) must upcast at the
    point of use.

    Attributes:
        num_cells: cell count of the owning netlist.
        net_ids: netlist net id per signal net (nets with pins), in net
            order.
        net_ptr: length ``m + 1``; net ``e``'s unique pins are
            ``pin_cell[net_ptr[e]:net_ptr[e + 1]]``.
        pin_cell: unique cell ids per net, first-occurrence pin order.
        pin_net: owning local net index per ``pin_cell`` entry.
        pin_key: int64 ``net * num_cells + cell`` membership keys,
            globally sorted for ``searchsorted`` queries.
        drv_ptr, drv_cell, drv_net: driver CSR (with multiplicity).
        cell_net_ptr, cell_net_idx: cell -> local net incidence CSR.
        cell_net_drvmult: driver-pin multiplicity per incidence entry.
    """

    num_cells: int
    net_ids: IntArray
    net_ptr: IntArray
    pin_cell: IntArray
    pin_net: IntArray
    pin_key: IntArray
    drv_ptr: IntArray
    drv_cell: IntArray
    drv_net: IntArray
    cell_net_ptr: IntArray
    cell_net_idx: IntArray
    cell_net_drvmult: FloatArray

    @property
    def num_nets(self) -> int:
        """Signal net count."""
        return len(self.net_ptr) - 1

    @property
    def net_deg(self) -> IntArray:
        """Unique-pin count per signal net."""
        return np.diff(self.net_ptr)

    @property
    def nbytes(self) -> int:
        """Total bytes of all component arrays."""
        return sum(int(getattr(self, f).nbytes) for f in (
            "net_ids", "net_ptr", "pin_cell", "pin_net", "pin_key",
            "drv_ptr", "drv_cell", "drv_net", "cell_net_ptr",
            "cell_net_idx", "cell_net_drvmult"))

    def pin_lists(self) -> List[List[int]]:
        """Per-net unique pin lists (the scalar-path mirror)."""
        if self.num_nets == 0:
            return []
        return [p.tolist()
                for p in np.split(self.pin_cell, self.net_ptr[1:-1])]

    def driver_lists(self) -> List[List[int]]:
        """Per-net driver lists, with multiplicity."""
        if self.num_nets == 0:
            return []
        return [d.tolist()
                for d in np.split(self.drv_cell, self.drv_ptr[1:-1])]


def build_signal_csr(netlist: "Netlist") -> SignalCSR:
    """Build the signal CSR structure by walking the netlist once."""
    n_cells = netlist.num_cells
    net_ids: List[int] = []
    pins: List[List[int]] = []
    drivers: List[List[int]] = []
    for net in netlist.nets:
        if not net.pins:
            continue
        net_ids.append(net.id)
        pins.append(net.unique_cell_ids)
        drivers.append(net.driver_ids)
    m = len(pins)
    total_pins = sum(len(p) for p in pins)
    total_drv = sum(len(d) for d in drivers)
    dtype = index_dtype(max(n_cells, len(netlist.nets), total_pins,
                            total_drv))

    deg = np.fromiter((len(p) for p in pins), dtype=dtype, count=m)
    net_ptr = np.zeros(m + 1, dtype=dtype)
    np.cumsum(deg, out=net_ptr[1:])
    pin_cell = np.fromiter((c for p in pins for c in p), dtype=dtype,
                           count=total_pins)
    pin_net = np.repeat(np.arange(m, dtype=dtype), deg)

    drv_deg = np.fromiter((len(d) for d in drivers), dtype=dtype,
                          count=m)
    drv_ptr = np.zeros(m + 1, dtype=dtype)
    np.cumsum(drv_deg, out=drv_ptr[1:])
    drv_cell = np.fromiter((c for d in drivers for c in d), dtype=dtype,
                           count=total_drv)
    drv_net = np.repeat(np.arange(m, dtype=dtype), drv_deg)

    # sorted membership keys (int64: the product overflows int32 first)
    scale = np.int64(max(n_cells, 1))
    keys = pin_net.astype(np.int64) * scale + pin_cell.astype(np.int64)
    pin_key = np.sort(keys, kind="stable")

    # cell -> net incidence: a stable sort of pin_cell groups each
    # cell's entries while preserving net order within the cell —
    # exactly the order a per-net append loop would produce
    order = np.argsort(pin_cell, kind="stable")
    cdeg = np.bincount(pin_cell, minlength=n_cells).astype(dtype) \
        if total_pins else np.zeros(n_cells, dtype=dtype)
    cell_net_ptr = np.zeros(n_cells + 1, dtype=dtype)
    np.cumsum(cdeg, out=cell_net_ptr[1:])
    cell_net_idx = pin_net[order]

    # driver-pin multiplicity per (cell, local net) incidence entry
    if total_drv:
        drv_keys = (drv_cell.astype(np.int64) * np.int64(max(m, 1))
                    + drv_net.astype(np.int64))
        uniq, counts = np.unique(drv_keys, return_counts=True)
        owner = np.repeat(np.arange(n_cells, dtype=np.int64), cdeg)
        query = owner * np.int64(max(m, 1)) + cell_net_idx.astype(
            np.int64)
        pos = np.searchsorted(uniq, query)
        pos_clipped = np.minimum(pos, len(uniq) - 1)
        hit = uniq[pos_clipped] == query
        drvmult = np.where(hit, counts[pos_clipped], 0).astype(
            np.float64)
    else:
        drvmult = np.zeros(total_pins, dtype=np.float64)

    return SignalCSR(
        num_cells=n_cells,
        net_ids=np.asarray(net_ids, dtype=dtype),
        net_ptr=net_ptr, pin_cell=pin_cell, pin_net=pin_net,
        pin_key=pin_key, drv_ptr=drv_ptr, drv_cell=drv_cell,
        drv_net=drv_net, cell_net_ptr=cell_net_ptr,
        cell_net_idx=cell_net_idx, cell_net_drvmult=drvmult)


def signal_csr(netlist: "Netlist") -> SignalCSR:
    """The netlist's signal CSR, built once until the netlist changes."""
    return netlist.derived(build_signal_csr)
