"""Uniform 3D density meshes over the placement volume.

Coarse legalization works on a mesh whose bins are roughly two average
cell widths by two average cell heights by one layer (Section 4 of the
paper); detailed legalization uses a finer mesh with bins about the size
of one cell (Section 5).  Both are instances of :class:`DensityMesh`.

Densities are the ratio of cell area assigned to a bin to the bin's
capacity.  Cells are assigned to bins by their centre point — the same
convention the paper's cell-shifting procedure uses when it maps cells to
shifted bin boundaries.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.analysis import FloatArray, IntArray, contract
from repro.geometry.chip import ChipGeometry

if TYPE_CHECKING:
    from repro.netlist.placement import Placement

BinIndex = Tuple[int, int, int]


def axis_bin(coord: float, size: float, count: int) -> int:
    """Floor-based bin index of a coordinate, clamped to the axis.

    Shared by the scalar and vectorized binning paths so both use the
    same convention (``floor``, not int() truncation — the two differ
    for coordinates that stray below zero before clamping).
    """
    return min(max(int(math.floor(coord / size)), 0), count - 1)


def axis_bins(coords: FloatArray, size: float, count: int) -> IntArray:
    """Vectorized :func:`axis_bin` over an array of coordinates."""
    raw = np.floor(coords / size).astype(np.int64)
    return np.clip(raw, 0, count - 1)


class DensityMesh:
    """A uniform mesh of density bins over a :class:`ChipGeometry`.

    Attributes:
        chip: the placement volume being binned.
        nx, ny: number of bins in x and y (per layer).
        nz: number of layers (one bin per layer in z).
        bin_width, bin_height: lateral bin dimensions, metres.
    """

    def __init__(self, chip: ChipGeometry, nx: int, ny: int) -> None:
        if nx < 1 or ny < 1:
            raise ValueError("mesh must have at least one bin per axis")
        self.chip = chip
        self.nx = nx
        self.ny = ny
        self.nz = chip.num_layers
        self.bin_width = chip.width / nx
        self.bin_height = chip.height / ny
        # cell area accumulated per bin
        self._area: FloatArray = np.zeros((nx, ny, self.nz),
                                          dtype=np.float64)
        # ids of cells whose centre lies in each bin
        self._members: Dict[BinIndex, List[int]] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def coarse_for(chip: ChipGeometry, avg_cell_width: float,
                   avg_cell_height: float) -> "DensityMesh":
        """The coarse-legalization mesh: bins of ~2 cell widths x 2 cell
        heights x 1 layer (Section 4)."""
        nx = max(1, int(round(chip.width / (2.0 * avg_cell_width))))
        ny = max(1, int(round(chip.height / (2.0 * avg_cell_height))))
        return DensityMesh(chip, nx, ny)

    @staticmethod
    def fine_for(chip: ChipGeometry, avg_cell_width: float,
                 avg_cell_height: float) -> "DensityMesh":
        """The detailed-legalization mesh: bins about one average cell in
        size (Section 5)."""
        nx = max(1, int(round(chip.width / avg_cell_width)))
        ny = max(1, int(round(chip.height / avg_cell_height)))
        return DensityMesh(chip, nx, ny)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def bin_capacity(self) -> float:
        """Placeable area of one bin, square metres."""
        return self.bin_width * self.bin_height

    def bin_of(self, x: float, y: float, z: int) -> BinIndex:
        """Bin index containing the point (clamped to the mesh)."""
        i = axis_bin(x, self.bin_width, self.nx)
        j = axis_bin(y, self.bin_height, self.ny)
        k = min(max(int(z), 0), self.nz - 1)
        return (i, j, k)

    def bin_center(self, index: BinIndex) -> Tuple[float, float, int]:
        """Centre point ``(x, y, layer)`` of a bin."""
        i, j, k = index
        self._check_index(index)
        return ((i + 0.5) * self.bin_width, (j + 0.5) * self.bin_height, k)

    def bins_within(self, center: BinIndex, radius: int,
                    include_vertical: bool = True) -> List[BinIndex]:
        """All bins within a Chebyshev ``radius`` of ``center``.

        Used to build target regions for the move/swap procedures.
        """
        ci, cj, ck = center
        self._check_index(center)
        zr = radius if include_vertical else 0
        out: List[BinIndex] = []
        for i in range(max(0, ci - radius), min(self.nx, ci + radius + 1)):
            for j in range(max(0, cj - radius), min(self.ny, cj + radius + 1)):
                for k in range(max(0, ck - zr), min(self.nz, ck + zr + 1)):
                    out.append((i, j, k))
        return out

    def _check_index(self, index: BinIndex) -> None:
        i, j, k = index
        if not (0 <= i < self.nx and 0 <= j < self.ny and 0 <= k < self.nz):
            raise IndexError(f"bin index {index} outside mesh "
                             f"({self.nx} x {self.ny} x {self.nz})")

    # ------------------------------------------------------------------
    # occupancy bookkeeping
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Remove all recorded cell area."""
        self._area.fill(0.0)
        self._members.clear()

    def add_cell(self, cell_id: int, x: float, y: float, z: int,
                 area: float) -> BinIndex:
        """Record a cell's area in the bin containing its centre."""
        index = self.bin_of(x, y, z)
        self._area[index] += area
        self._members.setdefault(index, []).append(cell_id)
        return index

    def remove_cell(self, cell_id: int, index: BinIndex, area: float) -> None:
        """Remove a previously added cell from a bin."""
        members = self._members.get(index)
        if not members or cell_id not in members:
            raise KeyError(f"cell {cell_id} is not in bin {index}")
        members.remove(cell_id)
        self._area[index] -= area
        if self._area[index] < 0 and self._area[index] > -1e-24:
            self._area[index] = 0.0

    def build(self, positions: Iterable[Tuple[int, float, float, int, float]]
              ) -> None:
        """Populate the mesh from ``(cell_id, x, y, layer, area)`` tuples."""
        self.clear()
        for cell_id, x, y, z, area in positions:
            self.add_cell(cell_id, x, y, z, area)

    @contract(dtypes={"areas": np.floating})
    def build_from_placement(self, placement: "Placement",
                             areas: FloatArray) -> None:
        """Vectorized :meth:`build` over a placement's movable cells.

        Bin indices for every movable cell come from three clipped
        array ops and the per-bin area from one ``np.add.at``; member
        lists are grouped with a stable argsort, so they keep the same
        (netlist) order the scalar build produced.
        """
        self.clear()
        ids = placement.netlist.movable_ids
        if not len(ids):
            return
        i, j, k = self.bins_of(placement)
        np.add.at(self._area, (i, j, k), areas[ids])
        flat = (i * self.ny + j) * self.nz + k
        order = np.argsort(flat, kind="stable")
        flat_sorted = flat[order]
        ids_sorted = ids[order]
        bounds = np.flatnonzero(np.diff(flat_sorted)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(flat_sorted)]))
        for s, e in zip(starts, ends):
            f = int(flat_sorted[s])
            index = (f // (self.ny * self.nz),
                     (f // self.nz) % self.ny, f % self.nz)
            self._members[index] = ids_sorted[s:e].tolist()

    def bins_of(self, placement: "Placement"
                ) -> Tuple[IntArray, IntArray, IntArray]:
        """Bin indices ``(i, j, k)`` of a placement's movable cells, in
        ``movable_ids`` order: the bins :meth:`build_from_placement`
        records them in."""
        ids = placement.netlist.movable_ids
        return (axis_bins(placement.x[ids], self.bin_width, self.nx),
                axis_bins(placement.y[ids], self.bin_height, self.ny),
                np.clip(placement.z[ids].astype(np.int64), 0,
                        self.nz - 1))

    def members(self, index: BinIndex) -> List[int]:
        """Ids of cells currently assigned to a bin."""
        self._check_index(index)
        return list(self._members.get(index, ()))

    def iter_members(self) -> Iterator[Tuple[BinIndex, List[int]]]:
        """(index, member ids) pairs for every recorded bin.

        The lists are the live internals — callers must not mutate
        them.
        """
        return iter(self._members.items())

    def area_in(self, index: BinIndex) -> float:
        """Cell area currently assigned to a bin, square metres."""
        self._check_index(index)
        return float(self._area[index])

    # ------------------------------------------------------------------
    # densities
    # ------------------------------------------------------------------
    @property
    def densities(self) -> FloatArray:
        """Array of bin densities, shape ``(nx, ny, nz)``.

        Density is cell area divided by bin capacity; 1.0 means exactly
        full.
        """
        return self._area / self.bin_capacity

    @property
    def max_density(self) -> float:
        """The largest bin density on the mesh (dividing by the positive
        capacity keeps the order, so no density array is built)."""
        return float(self._area.max()) / self.bin_capacity

    def overflow(self, limit: float = 1.0) -> float:
        """Total cell area above ``limit`` x capacity, summed over bins."""
        excess = self._area - limit * self.bin_capacity
        return float(np.clip(excess, 0.0, None).sum())
