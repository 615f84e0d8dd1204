"""The netlist's connectivity as flat int64 CSR arrays.

Every per-net kernel reads the same net->pin structure: Eq. 3's
wirelength and via spans (:class:`~repro.core.objective.ObjectiveState`,
:func:`~repro.metrics.wirelength.compute_net_metrics`), Eq. 10's
attribution of net power to driver cells
(:meth:`~repro.thermal.power.PowerModel.cell_powers`) and the
connectivity counts of detailed legalization.  Building it walks every
net's Python pin list — cheap once, wasteful when a sweep or the
placement service evaluates the same circuit many times.
:func:`signal_csr` caches the result on the :class:`Netlist` until a
cell or net is added; since :mod:`repro.netlist.cache` serves one loaded
instance per circuit, every run of that circuit in a process shares one
build, so its arrays are read-only.

Every net has at least one pin (``Netlist.add_net`` refuses an empty
one), so the CSR's net ``e`` is the netlist's net id ``e``.  All index
arrays are int64, the dtype every consumer computes in, so no kernel
converts or copies them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, List

import numpy as np
from numpy.typing import NDArray

from repro.analysis import FloatArray, IntArray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netlist.netlist import Netlist

__all__ = ["SignalCSR", "build_signal_csr", "signal_csr"]


@dataclass(frozen=True)
class SignalCSR:
    """Flat net structure shared by vectorized kernels.

    Attributes:
        pins: per-net unique cell ids, first-occurrence pin order (the
            lists the CSR arrays flatten, kept for scalar paths).
        drivers: per-net driver cell ids, with multiplicity.
        net_ptr: length ``m + 1``; net ``e``'s unique pins are
            ``pin_cell[net_ptr[e]:net_ptr[e + 1]]``.
        pin_cell: ``pins`` flattened.
        pin_key: ``net * num_cells + cell`` membership keys (the
            netlist's cell count), globally sorted for ``searchsorted``
            queries.
        drv_ptr, drv_cell, drv_net: driver CSR over ``drivers``.
        cell_net_ptr, cell_net_idx: cell -> net incidence CSR.
        cell_net_drvmult: driver-pin multiplicity per incidence entry.
    """

    pins: List[List[int]]
    drivers: List[List[int]]
    net_ptr: IntArray
    pin_cell: IntArray
    pin_key: IntArray
    drv_ptr: IntArray
    drv_cell: IntArray
    drv_net: IntArray
    cell_net_ptr: IntArray
    cell_net_idx: IntArray
    cell_net_drvmult: FloatArray

    def __post_init__(self) -> None:
        for array in self._arrays():
            array.setflags(write=False)

    def _arrays(self) -> List[NDArray[Any]]:
        values = (getattr(self, f.name) for f in fields(self))
        return [v for v in values if isinstance(v, np.ndarray)]

    @property
    def num_nets(self) -> int:
        """Net count."""
        return len(self.net_ptr) - 1

    @property
    def net_deg(self) -> IntArray:
        """Unique-pin count per net."""
        return np.diff(self.net_ptr)

    @property
    def nbytes(self) -> int:
        """Total bytes of all component arrays."""
        return sum(int(array.nbytes) for array in self._arrays())


def build_signal_csr(netlist: "Netlist") -> SignalCSR:
    """Build the CSR structure by walking the netlist once."""
    n_cells = netlist.num_cells
    pins = [net.unique_cell_ids for net in netlist.nets]
    drivers = [net.driver_ids for net in netlist.nets]
    m = len(pins)
    total_pins = sum(len(p) for p in pins)
    total_drv = sum(len(d) for d in drivers)

    deg = np.fromiter((len(p) for p in pins), dtype=np.int64, count=m)
    net_ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(deg, out=net_ptr[1:])
    pin_cell = np.fromiter((c for p in pins for c in p), dtype=np.int64,
                           count=total_pins)
    pin_net = np.repeat(np.arange(m, dtype=np.int64), deg)

    drv_deg = np.fromiter((len(d) for d in drivers), dtype=np.int64,
                          count=m)
    drv_ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(drv_deg, out=drv_ptr[1:])
    drv_cell = np.fromiter((c for d in drivers for c in d),
                           dtype=np.int64, count=total_drv)
    drv_net = np.repeat(np.arange(m, dtype=np.int64), drv_deg)

    pin_key = np.sort(pin_net * np.int64(max(n_cells, 1)) + pin_cell,
                      kind="stable")

    # cell -> net incidence: a stable sort of pin_cell groups each
    # cell's entries while preserving net order within the cell —
    # exactly the order a per-net append loop would produce
    order = np.argsort(pin_cell, kind="stable")
    cdeg = np.bincount(pin_cell, minlength=n_cells)
    cell_net_ptr = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(cdeg, out=cell_net_ptr[1:])
    cell_net_idx = pin_net[order]

    # driver-pin multiplicity per (cell, net) incidence entry
    if total_drv:
        drv_keys = drv_cell * np.int64(max(m, 1)) + drv_net
        uniq, counts = np.unique(drv_keys, return_counts=True)
        owner = np.repeat(np.arange(n_cells, dtype=np.int64), cdeg)
        query = owner * np.int64(max(m, 1)) + cell_net_idx
        pos = np.searchsorted(uniq, query)
        pos_clipped = np.minimum(pos, len(uniq) - 1)
        hit = uniq[pos_clipped] == query
        drvmult = np.where(hit, counts[pos_clipped], 0).astype(
            np.float64)
    else:
        drvmult = np.zeros(total_pins, dtype=np.float64)

    return SignalCSR(
        pins=pins, drivers=drivers, net_ptr=net_ptr,
        pin_cell=pin_cell, pin_key=pin_key, drv_ptr=drv_ptr,
        drv_cell=drv_cell, drv_net=drv_net, cell_net_ptr=cell_net_ptr,
        cell_net_idx=cell_net_idx, cell_net_drvmult=drvmult)


def signal_csr(netlist: "Netlist") -> SignalCSR:
    """The netlist's CSR, built once until the netlist changes."""
    return netlist.derived(build_signal_csr)
