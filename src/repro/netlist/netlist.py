"""The netlist container: cells, nets and the structures derived from
them."""

from __future__ import annotations

from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar, cast)

import numpy as np
from numpy.typing import NDArray

from repro.analysis import FloatArray, IntArray
from repro.netlist.cell import Cell
from repro.netlist.net import Net, PinRole
from repro.obs.manifest import content_hash

_T = TypeVar("_T")
_A = TypeVar("_A", bound=NDArray[np.generic])


class Netlist:
    """A circuit: a set of cells connected by hypergraph nets.

    Cells and nets get dense integer ids in insertion order, so every
    per-cell or per-net quantity elsewhere in the library can live in a
    flat NumPy array indexed by id.

    The placer never mutates a netlist, so one loaded instance can serve
    every run of its circuit (see :mod:`repro.netlist.cache`).
    """

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self.cells: List[Cell] = []
        self.nets: List[Net] = []
        self._cell_by_name: Dict[str, int] = {}
        self._net_by_name: Dict[str, int] = {}
        # everything derived from the cells and nets, keyed by its
        # builder (see :meth:`derived`)
        self._derived: Dict[Callable[["Netlist"], object], object] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_cell(self, name: str, width: float, height: float,
                 fixed: bool = False,
                 fixed_position: Optional[Tuple[float, float, int]] = None
                 ) -> Cell:
        """Create a cell and return it.

        Raises:
            ValueError: if the name is already taken.
        """
        if name in self._cell_by_name:
            raise ValueError(f"duplicate cell name {name!r}")
        cell = Cell(id=len(self.cells), name=name, width=width,
                    height=height, fixed=fixed,
                    fixed_position=fixed_position)
        self.cells.append(cell)
        self._cell_by_name[name] = cell.id
        self._derived.clear()
        return cell

    def add_net(self, name: str,
                pins: Sequence[Tuple[int, PinRole]],
                activity: float = 0.2) -> Net:
        """Create a net over existing cells and return it.

        Args:
            name: net name, unique within the netlist.
            pins: ``(cell_id, role)`` pairs; at least one pin.
            activity: switching activity ``a_i``.

        Raises:
            ValueError: on duplicate names, empty pin lists or bad ids.
        """
        if name in self._net_by_name:
            raise ValueError(f"duplicate net name {name!r}")
        if not pins:
            raise ValueError(f"net {name!r} has no pins")
        for cid, _ in pins:
            if not 0 <= cid < len(self.cells):
                raise ValueError(f"net {name!r}: unknown cell id {cid}")
        net = Net(id=len(self.nets), name=name, pins=list(pins),
                  activity=activity)
        self.nets.append(net)
        self._net_by_name[name] = net.id
        self._derived.clear()
        return net

    def derived(self, build: Callable[["Netlist"], _T]) -> _T:
        """``build(self)``, computed once until a cell or net is added.

        The netlist's only cache: the size arrays, the incidence lists,
        the signal CSR and the content hash all live here.  It is keyed
        by ``build``, so pass a module-level function.  Every run of a
        circuit shares one loaded instance (see
        :mod:`repro.netlist.cache`), so arrays built here are read-only.
        """
        try:
            return cast(_T, self._derived[build])
        except KeyError:
            value = self._derived[build] = build(self)
            return value

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def cell(self, name: str) -> Cell:
        """Cell by name."""
        return self.cells[self._cell_by_name[name]]

    def net(self, name: str) -> Net:
        """Net by name."""
        return self.nets[self._net_by_name[name]]

    @property
    def num_cells(self) -> int:
        """Number of cells (movable + fixed)."""
        return len(self.cells)

    @property
    def num_nets(self) -> int:
        """Number of nets."""
        return len(self.nets)

    @property
    def num_movable(self) -> int:
        """Number of movable (non-fixed) cells."""
        return sum(1 for c in self.cells if c.movable)

    @property
    def movable_ids(self) -> IntArray:
        """Ids of movable cells as a read-only int64 array."""
        return self.derived(_movable_ids)

    def fixed_cells(self) -> List[Cell]:
        """All fixed cells (terminals / pads)."""
        return [c for c in self.cells if c.fixed]

    def nets_of_cell(self, cell_id: int) -> List[int]:
        """Ids of nets incident to a cell, ascending.  Treat as
        read-only."""
        return self.derived(_incidence)[cell_id]

    # ------------------------------------------------------------------
    # bulk attribute arrays
    # ------------------------------------------------------------------
    @property
    def widths(self) -> FloatArray:
        """Cell widths (metres) indexed by cell id, read-only."""
        return self.derived(_widths)

    @property
    def heights(self) -> FloatArray:
        """Cell heights (metres) indexed by cell id, read-only."""
        return self.derived(_heights)

    @property
    def areas(self) -> FloatArray:
        """Cell areas (square metres) indexed by cell id, read-only."""
        return self.derived(_areas)

    @property
    def total_cell_area(self) -> float:
        """Total area of the *movable* cells, square metres."""
        movable = np.array([c.movable for c in self.cells], dtype=bool)
        return float(self.areas[movable].sum()) if len(self.cells) else 0.0

    @property
    def average_cell_width(self) -> float:
        """Mean movable-cell width, metres."""
        widths = [c.width for c in self.cells if c.movable]
        if not widths:
            raise ValueError("netlist has no movable cells")
        return float(np.mean(widths))

    @property
    def average_cell_height(self) -> float:
        """Mean movable-cell height, metres."""
        heights = [c.height for c in self.cells if c.movable]
        if not heights:
            raise ValueError("netlist has no movable cells")
        return float(np.mean(heights))

    # ------------------------------------------------------------------
    # statistics & validation
    # ------------------------------------------------------------------
    def degree_histogram(self) -> Dict[int, int]:
        """Histogram of net degrees (pin counts)."""
        hist: Dict[int, int] = {}
        for net in self.nets:
            hist[net.degree] = hist.get(net.degree, 0) + 1
        return hist

    def num_pins(self) -> int:
        """Total pin count over all nets."""
        return sum(net.degree for net in self.nets)

    def validate(self) -> None:
        """Consistency checks; raises ``ValueError`` on violation.

        Checks that ids are dense, names map back correctly, all pins
        reference existing cells, and every net has >= 1 pin (single-pin
        nets are tolerated because benchmark formats contain them, but
        they carry no cost).
        """
        for i, cell in enumerate(self.cells):
            if cell.id != i:
                raise ValueError(f"cell id {cell.id} at position {i}")
            if self._cell_by_name.get(cell.name) != i:
                raise ValueError(f"broken name index for cell {cell.name!r}")
        for i, net in enumerate(self.nets):
            if net.id != i:
                raise ValueError(f"net id {net.id} at position {i}")
            if self._net_by_name.get(net.name) != i:
                raise ValueError(f"broken name index for net {net.name!r}")
            if not net.pins:
                raise ValueError(f"net {net.name!r} has no pins")
            for cid, _ in net.pins:
                if not 0 <= cid < len(self.cells):
                    raise ValueError(
                        f"net {net.name!r} references unknown cell {cid}")


# ----------------------------------------------------------------------
# builders of :meth:`Netlist.derived` entries
# ----------------------------------------------------------------------
def _read_only(array: _A) -> _A:
    array.setflags(write=False)
    return array


def _widths(netlist: Netlist) -> FloatArray:
    return _read_only(np.array([c.width for c in netlist.cells],
                               dtype=np.float64))


def _heights(netlist: Netlist) -> FloatArray:
    return _read_only(np.array([c.height for c in netlist.cells],
                               dtype=np.float64))


def _areas(netlist: Netlist) -> FloatArray:
    return _read_only(netlist.widths * netlist.heights)


def _movable_ids(netlist: Netlist) -> IntArray:
    return _read_only(np.fromiter(
        (c.id for c in netlist.cells if c.movable), dtype=np.int64))


def _incidence(netlist: Netlist) -> List[List[int]]:
    # Python lists for the objective's scalar (joint-move) paths;
    # global placement reads the signal CSR's cell -> net arrays
    incidence: List[List[int]] = [[] for _ in range(netlist.num_cells)]
    for net in netlist.nets:
        for cid in net.unique_cell_ids:
            incidence[cid].append(net.id)
    return incidence


def netlist_hash(netlist: Netlist) -> str:
    """Stable content hash of a netlist's placement-relevant content.

    Hashes cell geometry/fixity and the net hypergraph.  Two
    structurally identical netlists hash identically regardless of
    load path.  The digest is cached on the netlist until it changes.
    """
    return netlist.derived(_netlist_digest)


def _netlist_digest(netlist: Netlist) -> str:
    cells = [[cell.name, float(cell.width), float(cell.height),
              bool(cell.fixed),
              (None if cell.fixed_position is None
               else [float(cell.fixed_position[0]),
                     float(cell.fixed_position[1]),
                     int(cell.fixed_position[2])])]
             for cell in netlist.cells]
    nets = [[net.name, float(net.activity),
             [[int(cell_id), role.value] for cell_id, role in net.pins]]
            for net in netlist.nets]
    return content_hash({"name": netlist.name, "cells": cells,
                         "nets": nets})
