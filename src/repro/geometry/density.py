"""Uniform 3D density meshes over the placement volume.

Coarse legalization works on a mesh whose bins are roughly two average
cell widths by two average cell heights by one layer (Section 4 of the
paper); detailed legalization uses a finer mesh with bins about the size
of one cell (Section 5).  Both are instances of :class:`DensityMesh`.

A mesh is an area grid: the cell area assigned to each bin.  Densities
are that area divided by the bin's capacity.  Cells are assigned to bins
by their centre point through one array rule, :func:`axis_bins` — the
same convention the paper's cell-shifting procedure uses when it maps
cells to shifted bin boundaries.  Which cells sit in a bin is kept by
the one stage that asks, the move/swap pass
(:class:`~repro.core.moves.MoveOptimizer`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple, Union

import numpy as np

from repro.analysis import FloatArray, IntArray, contract, hot_path
from repro.geometry.chip import ChipGeometry

if TYPE_CHECKING:
    from repro.netlist.placement import Placement

BinIndex = Tuple[int, int, int]


@hot_path
def axis_bins(coords: FloatArray, size: float, count: int) -> IntArray:
    """Bin indices of coordinates along one axis, clamped to the axis.

    The mesh's one binning rule: ``floor``, not int() truncation (the
    two differ for coordinates that stray below zero before clamping).
    """
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

    @hot_path
    def bins_at(self, x: FloatArray, y: FloatArray,
                z: Union[FloatArray, IntArray]
                ) -> Tuple[IntArray, IntArray, IntArray]:
        """Bin indices ``(i, j, k)`` of points, each axis clamped to the
        mesh; a layer coordinate is truncated to an integer first."""
        return (axis_bins(x, self.bin_width, self.nx),
                axis_bins(y, self.bin_height, self.ny),
                np.clip(z.astype(np.int64), 0, self.nz - 1))

    def bins_of(self, placement: "Placement"
                ) -> Tuple[IntArray, IntArray, IntArray]:
        """Bin indices ``(i, j, k)`` of a placement's movable cells, in
        ``movable_ids`` order: the bins :meth:`build_from_placement`
        records them in."""
        ids = placement.netlist.movable_ids
        return self.bins_at(placement.x[ids], placement.y[ids],
                            placement.z[ids])

    @hot_path
    def bins_within(self, centres: IntArray, radius: int
                    ) -> Tuple[IntArray, IntArray]:
        """All bins within a Chebyshev ``radius`` of each centre bin.

        The target-region rule of the move/swap procedures.

        Args:
            centres: ``(n, 3)`` bin indices ``(i, j, k)`` on the mesh.
            radius: the region's half-width in bins, on every axis.

        Returns:
            ``(owner, bins)``: centre ``q``'s region is the rows of the
            ``(m, 3)`` array ``bins`` whose ``owner`` is ``q``, in
            ``(i, j, k)`` order; owners ascend.

        Raises:
            IndexError: a centre lies outside the mesh.
        """
        shape = np.asarray((self.nx, self.ny, self.nz), dtype=np.int64)
        outside = ((centres < 0) | (centres >= shape)).any(axis=1)
        if outside.any():
            index = tuple(centres[np.argmax(outside)].tolist())
            raise IndexError(f"bin index {index} outside mesh "
                             f"({self.nx} x {self.ny} x {self.nz})")
        span = np.arange(-radius, radius + 1, dtype=np.int64)
        offsets = np.stack(np.meshgrid(span, span, span, indexing="ij"),
                           axis=-1).reshape(-1, 3)
        bins = centres[:, None, :] + offsets[None, :, :]
        inside = ((bins >= 0) & (bins < shape)).all(axis=2)
        owner, _ = np.nonzero(inside)
        return owner, bins[inside]

    def _check_index(self, index: BinIndex) -> None:
        i, j, k = index
        if not (0 <= i < self.nx and 0 <= j < self.ny and 0 <= k < self.nz):
            raise IndexError(f"bin index {index} outside mesh "
                             f"({self.nx} x {self.ny} x {self.nz})")

    # ------------------------------------------------------------------
    # area bookkeeping
    # ------------------------------------------------------------------
    @hot_path
    @contract(dtypes={"areas": np.floating})
    def build_from_placement(self, placement: "Placement",
                             areas: FloatArray) -> None:
        """Record the area of every movable cell of a placement in the
        bin its centre lies in (:meth:`bins_of`), replacing what the
        mesh held.  One ``np.add.at`` accumulates each bin's area in
        ``movable_ids`` order."""
        self._area.fill(0.0)
        ids = placement.netlist.movable_ids
        np.add.at(self._area, self.bins_of(placement), areas[ids])

    def add_area(self, index: BinIndex, area: float) -> None:
        """Add a cell's area to a bin."""
        self._area[index] += area

    def remove_area(self, index: BinIndex, area: float) -> None:
        """Take a cell's area out of a bin; a rounding residue just
        below zero is cleared to ``0.0``."""
        self._area[index] -= area
        if self._area[index] < 0 and self._area[index] > -1e-24:
            self._area[index] = 0.0

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
