"""Placement state: cell coordinates over a chip geometry."""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.geometry.chip import ChipGeometry
from repro.netlist.netlist import Netlist


class Placement:
    """Coordinates of every cell of a netlist inside a 3D chip.

    Coordinates refer to *cell centres*: ``x``/``y`` in metres, ``z`` as
    integer layer indices.  The arrays are indexed by cell id and shared
    freely with the placer's inner loops.

    Attributes:
        netlist: the circuit being placed.
        chip: the placement volume.
        x, y: float arrays of cell-centre coordinates, metres.
        z: int array of layer indices.

    Fixed cells take their ``fixed_position``; one on a layer outside
    ``[0, chip.num_layers)`` raises ``ValueError`` naming the cell.
    """

    def __init__(self, netlist: Netlist, chip: ChipGeometry,
                 x: Optional[np.ndarray] = None,
                 y: Optional[np.ndarray] = None,
                 z: Optional[np.ndarray] = None) -> None:
        self.netlist = netlist
        self.chip = chip
        n = netlist.num_cells
        self.x = np.array(x, dtype=float) if x is not None else np.zeros(n)
        self.y = np.array(y, dtype=float) if y is not None else np.zeros(n)
        self.z = np.array(z, dtype=np.int64) if z is not None \
            else np.zeros(n, dtype=np.int64)
        for arr, label in ((self.x, "x"), (self.y, "y"), (self.z, "z")):
            if arr.shape != (n,):
                raise ValueError(
                    f"{label} has shape {arr.shape}, expected ({n},)")
        self._apply_fixed()

    def _apply_fixed(self) -> None:
        layers = self.chip.num_layers
        for cell in self.netlist.cells:
            if cell.fixed:
                fx, fy, fz = cell.fixed_position
                if not 0 <= fz < layers:
                    raise ValueError(
                        f"fixed cell {cell.name!r} is on layer {fz}, "
                        f"outside the chip's {layers} layers")
                self.x[cell.id] = fx
                self.y[cell.id] = fy
                self.z[cell.id] = fz

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def at_center(netlist: Netlist, chip: ChipGeometry) -> "Placement":
        """All movable cells at the centre of the chip.

        This is the starting point of global placement (Section 6 of the
        paper): "placing the cells at the center of the chip".
        """
        n = netlist.num_cells
        x = np.full(n, 0.5 * chip.width)
        y = np.full(n, 0.5 * chip.height)
        z = np.full(n, (chip.num_layers - 1) // 2, dtype=np.int64)
        return Placement(netlist, chip, x, y, z)

    @staticmethod
    def random(netlist: Netlist, chip: ChipGeometry,
               seed: int = 0) -> "Placement":
        """Uniformly random placement (useful for tests and baselines)."""
        rng = np.random.default_rng(seed)
        n = netlist.num_cells
        x = rng.uniform(0.0, chip.width, n)
        y = rng.uniform(0.0, chip.height, n)
        z = rng.integers(0, chip.num_layers, n)
        return Placement(netlist, chip, x, y, z)

    def copy(self) -> "Placement":
        """Deep copy of the coordinate arrays (netlist/chip are shared)."""
        return Placement(self.netlist, self.chip,
                         self.x.copy(), self.y.copy(), self.z.copy())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def move(self, cell_id: int, x: float, y: float, z: int) -> None:
        """Move one cell; refuses to move fixed cells."""
        if self.netlist.cells[cell_id].fixed:
            raise ValueError(
                f"cell {self.netlist.cells[cell_id].name!r} is fixed")
        self.x[cell_id] = x
        self.y[cell_id] = y
        self.z[cell_id] = z

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def position(self, cell_id: int) -> Tuple[float, float, int]:
        """``(x, y, layer)`` of one cell."""
        return (float(self.x[cell_id]), float(self.y[cell_id]),
                int(self.z[cell_id]))

    def layer_populations(self) -> np.ndarray:
        """Number of movable cells per layer, shape ``(num_layers,)``."""
        counts = np.zeros(self.chip.num_layers, dtype=np.int64)
        for cell in self.netlist.cells:
            if cell.movable:
                counts[int(self.z[cell.id])] += 1
        return counts

    def layer_areas(self) -> np.ndarray:
        """Movable cell area per layer, square metres."""
        areas = np.zeros(self.chip.num_layers, dtype=float)
        cell_areas = self.netlist.areas
        for cell in self.netlist.cells:
            if cell.movable:
                areas[int(self.z[cell.id])] += cell_areas[cell.id]
        return areas

    def iter_movable(self) -> Iterable[Tuple[int, float, float, int]]:
        """Yield ``(cell_id, x, y, layer)`` for every movable cell."""
        for cell in self.netlist.cells:
            if cell.movable:
                yield (cell.id, float(self.x[cell.id]),
                       float(self.y[cell.id]), int(self.z[cell.id]))
