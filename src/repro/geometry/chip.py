"""The 3D chip placement volume: die outline, layers, rows and the stack.

A 3D IC in this library is a stack of ``num_layers`` identical active
layers.  Each layer carries horizontal standard-cell rows; cells have a
uniform height equal to the row height and sit side by side within a row.
Between active layers there is a thin bonding/interlayer dielectric, and
below the bottom active layer sits the bulk substrate attached to the heat
sink (the paper's MIT-LL 3D FD-SOI stack, Table 2).

``ChipGeometry`` owns all coordinate conversions:

- a cell's y centre <-> the index of the row it sits on,
- continuous/discrete z (layer index) <-> physical height above the heat
  sink, used by the thermal models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Union, overload

import numpy as np

from repro.analysis import FloatArray, IntArray


@dataclass
class ChipGeometry:
    """Placement volume of a 3D IC.

    Attributes:
        width: die width (x extent), metres.
        height: die height (y extent), metres.
        num_layers: number of stacked active layers.
        row_height: standard-cell row height, metres.
        row_pitch: vertical distance between row origins, metres
            (``row_height`` plus inter-row space).
        layer_thickness: thickness of one active layer, metres.
        interlayer_thickness: dielectric between adjacent active layers, metres.
        substrate_thickness: bulk substrate below layer 0, metres.
    """

    width: float
    height: float
    num_layers: int
    row_height: float
    row_pitch: float
    layer_thickness: float = 5.7e-6
    interlayer_thickness: float = 0.7e-6
    substrate_thickness: float = 500e-6

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("die dimensions must be positive")
        if self.num_layers < 1:
            raise ValueError("need at least one active layer")
        if self.row_pitch < self.row_height:
            raise ValueError("row pitch cannot be smaller than row height")

    # ------------------------------------------------------------------
    # derived dimensions
    # ------------------------------------------------------------------
    @property
    def rows_per_layer(self) -> int:
        """Number of complete rows that fit in the die height."""
        return max(1, int(math.floor(self.height / self.row_pitch + 1e-9)))

    @property
    def footprint_area(self) -> float:
        """Die footprint area (one layer), square metres."""
        return self.width * self.height

    @property
    def layer_pitch(self) -> float:
        """Vertical distance between corresponding points of adjacent layers."""
        return self.layer_thickness + self.interlayer_thickness

    @property
    def stack_height(self) -> float:
        """Total silicon height from the top of the substrate to the top layer."""
        return (self.num_layers * self.layer_thickness
                + (self.num_layers - 1) * self.interlayer_thickness)

    # ------------------------------------------------------------------
    # coordinate conversions
    # ------------------------------------------------------------------
    @overload
    def layer_base_height(self, layer: int) -> float: ...

    @overload
    def layer_base_height(self, layer: IntArray) -> FloatArray: ...

    def layer_base_height(self, layer: Any) -> Any:
        """Physical height of the *bottom* of active layer ``layer`` above
        the substrate top, metres (an int array of layers gives an array
        of heights)."""
        self._check_layer(layer)
        return layer * self.layer_pitch

    @overload
    def layer_center_height(self, layer: int) -> float: ...

    @overload
    def layer_center_height(self, layer: IntArray) -> FloatArray: ...

    def layer_center_height(self, layer: Any) -> Any:
        """Physical height of the mid-plane of active layer ``layer`` above
        the substrate top, metres (an int array of layers gives an array
        of heights).

        This is the ``d_j^z`` of the paper's thermal-resistance profile
        ``R_j^cell ~ R0^z + Rslope^z * d_j^z``.
        """
        return self.layer_base_height(layer) + 0.5 * self.layer_thickness

    def row_of(self, y: float) -> int:
        """Index of the row whose centre line is nearest a y centre
        (not clamped to the rows of the die)."""
        return int(round((y - 0.5 * self.row_height) / self.row_pitch))

    def row_y(self, row: int) -> float:
        """y centre of a cell sitting on row ``row``, metres."""
        return row * self.row_pitch + 0.5 * self.row_height

    def clamp_layer(self, z: float) -> int:
        """Round a continuous layer coordinate to the nearest valid layer."""
        return min(max(int(round(z)), 0), self.num_layers - 1)

    def _check_layer(self, layer: Union[int, IntArray]) -> None:
        if isinstance(layer, np.ndarray):
            bad = layer[(layer < 0) | (layer >= self.num_layers)]
            if not bad.size:
                return
            layer = int(bad[0])
        if not 0 <= layer < self.num_layers:
            raise IndexError(
                f"layer {layer} out of range [0, {self.num_layers})")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def for_cell_area(total_cell_area: float, num_layers: int,
                      row_height: float, whitespace: float = 0.05,
                      inter_row_space: float = 0.25,
                      aspect_ratio: float = 1.0,
                      min_row_width: float = 0.0,
                      layer_thickness: float = 5.7e-6,
                      interlayer_thickness: float = 0.7e-6,
                      substrate_thickness: float = 500e-6) -> "ChipGeometry":
        """Size a die for a given total standard-cell area.

        The die is sized so that the *row* area (excluding inter-row space)
        per layer equals ``total_cell_area / num_layers / (1 - whitespace)``,
        mirroring the paper's 5% whitespace and 25% inter-row spacing
        (Table 2).

        Args:
            total_cell_area: sum of all cell footprints, square metres.
            num_layers: number of active layers.
            row_height: standard-cell height, metres.
            whitespace: fraction of row area left unfilled (0 <= w < 1).
            inter_row_space: inter-row gap as a fraction of row height.
            aspect_ratio: die width / height.
            min_row_width: widen the die (raising the aspect ratio) so
                rows are at least this long, metres.  Downscaled
                benchmark instances would otherwise end up with rows a
                handful of cells long, where the whitespace per row is
                less than one cell width and legalization has no room to
                manoeuvre — an artefact full-size circuits do not have.

        Returns:
            A :class:`ChipGeometry` whose rows can legally hold the cells.
        """
        if not 0 <= whitespace < 1:
            raise ValueError("whitespace must be in [0, 1)")
        if total_cell_area <= 0:
            raise ValueError("total cell area must be positive")
        row_area_per_layer = total_cell_area / num_layers / (1.0 - whitespace)
        # Rows occupy 1/(1+inter_row_space) of the die height.
        die_area_per_layer = row_area_per_layer * (1.0 + inter_row_space)
        if min_row_width > 0:
            needed = min_row_width ** 2 / die_area_per_layer
            aspect_ratio = max(aspect_ratio, needed)
        height = math.sqrt(die_area_per_layer / aspect_ratio)
        width = die_area_per_layer / height
        row_pitch = row_height * (1.0 + inter_row_space)
        # Round height up to a whole number of row pitches so no capacity
        # is lost to a partial top row (die area is conserved, so total
        # row capacity is unchanged either way).
        n_rows = max(1, int(math.ceil(height / row_pitch - 1e-9)))
        if min_row_width > 0:
            # rounding up may have narrowed the die below the requested
            # row length; drop rows until it fits again
            while n_rows > 1 and (die_area_per_layer
                                  / (n_rows * row_pitch)) < min_row_width:
                n_rows -= 1
        height = n_rows * row_pitch
        width = die_area_per_layer / height
        return ChipGeometry(
            width=width, height=height, num_layers=num_layers,
            row_height=row_height, row_pitch=row_pitch,
            layer_thickness=layer_thickness,
            interlayer_thickness=interlayer_thickness,
            substrate_thickness=substrate_thickness)
