"""Simple per-cell thermal resistances (Section 2 / 3.2 of the paper).

The placer cannot afford a full thermal solve per candidate move, so the
paper models the thermal resistance from a cell to ambient with simple
heat conduction/convection formulas, "assuming that heat flows in a
straight path from the cell to the chip surface in all three directions
and that the cross sectional area of each path is the same size as the
cell".  Each of the six straight paths is a series conduction resistance
to the corresponding chip surface plus a convective film resistance at
that surface; the six paths act in parallel.  The heat-sink face (bottom)
has a forced-convection coefficient six orders of magnitude larger than
the other faces, which is why ``R`` grows almost linearly with distance
from the heat sink — the ``R ~ R0^z + Rslope^z * d^z`` profile that the
thermal-resistance-reduction nets (Section 3.2) rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union, overload

import numpy as np

from repro.analysis import FloatArray, IntArray
from repro.geometry.chip import ChipGeometry
from repro.technology import TechnologyConfig


@dataclass(frozen=True)
class VerticalProfile:
    """Linear fit of the vertical thermal-resistance profile.

    ``R(z) ~ r0 + slope * height(z)`` where ``height`` is the physical
    distance of a layer's mid-plane from the bottom of the active stack.

    Attributes:
        r0: intercept, K/W.
        slope: K/W per metre of height.
    """

    r0: float
    slope: float


class ResistanceModel:
    """Straight-path conduction/convection resistances for one chip.

    Args:
        chip: the placement volume (provides all distances).
        tech: technology parameters (conductivity, film coefficients).
    """

    def __init__(self, chip: ChipGeometry,
                 tech: Optional[TechnologyConfig] = None) -> None:
        self.chip = chip
        self.tech = tech or TechnologyConfig()

    # ------------------------------------------------------------------
    @overload
    def cell_resistance(self, x: float, y: float, layer: int,
                        area: float) -> float: ...

    @overload
    def cell_resistance(self, x: Union[float, FloatArray],
                        y: Union[float, FloatArray],
                        layer: Union[int, IntArray],
                        area: FloatArray) -> FloatArray: ...

    def cell_resistance(self, x: Any, y: Any, layer: Any,
                        area: Any) -> Any:
        """Thermal resistance from a cell to ambient, K/W.

        Six straight paths in parallel, each with cross-section equal to
        the cell area: down through the substrate to the heat sink, up to
        the top surface, and laterally to the four die edges.

        Any argument may be a numpy array (``layer`` of ints); they
        broadcast, and each element of the result has the bits of the
        scalar call, whose operations it repeats in the same order.  An
        out-of-range layer or a non-positive area anywhere raises, as in
        the scalar call.
        """
        if np.any(np.asarray(area) <= 0):
            raise ValueError("cell area must be positive")
        k = self.tech.thermal_conductivity
        chip = self.chip
        height = chip.layer_center_height(layer)
        conduct = 0.0  # accumulate path conductances (parallel paths)

        # downward path: stack below the layer (effective k), the bulk
        # substrate (silicon k) when it is in the thermal path, and the
        # heat-sink film
        r_down = (height / (k * area)
                  + 1.0 / (self.tech.heat_sink_convection * area))
        if self.tech.substrate_in_thermal_path:
            r_down += (chip.substrate_thickness
                       / (self.tech.substrate_conductivity * area))
        conduct += 1.0 / r_down

        h2 = self.tech.secondary_convection
        if h2 > 0:
            # upward path to the top of the stack
            up_len = chip.stack_height - height
            conduct += 1.0 / (up_len / (k * area) + 1.0 / (h2 * area))
            # four lateral paths to the die edges
            for dist in (x, chip.width - x, y, chip.height - y):
                dist = np.maximum(dist, 0.0)
                conduct += 1.0 / (dist / (k * area) + 1.0 / (h2 * area))
        return 1.0 / conduct

    # ------------------------------------------------------------------
    def layer_resistance(self, layer: int,
                         area: Optional[float] = None) -> float:
        """Resistance of a representative (chip-centre) cell on a layer.

        Args:
            layer: active layer index.
            area: cross-section; defaults to the footprint of a typical
                5 um^2 cell when not provided.
        """
        if area is None:
            area = 5e-12
        return self.cell_resistance(0.5 * self.chip.width,
                                    0.5 * self.chip.height, layer, area)

    def vertical_profile(self, area: Optional[float] = None
                         ) -> VerticalProfile:
        """Least-squares linear fit ``R(z) ~ r0 + slope * height(z)``.

        The slope is the ``Rslope^z`` of Eq. 12 — the strength with which
        TRR nets pull high-power cells toward the heat sink.  For a
        single-layer chip the slope is the *marginal* resistance per
        metre of height (conduction through the stack), computed
        analytically since a one-point fit is degenerate.
        """
        if area is None:
            area = 5e-12
        k = self.tech.thermal_conductivity
        if self.chip.num_layers == 1:
            r0 = self.layer_resistance(0, area)
            # marginal conduction resistance per metre of extra height,
            # discounted by the fraction of heat taking the downward path
            frac = self._down_fraction(0, area)
            return VerticalProfile(r0=r0, slope=frac / (k * area))
        heights = np.array([self.chip.layer_center_height(z)
                            for z in range(self.chip.num_layers)])
        rs = np.array([self.layer_resistance(z, area)
                       for z in range(self.chip.num_layers)])
        slope, r0 = np.polyfit(heights, rs, 1)
        return VerticalProfile(r0=float(r0), slope=float(slope))

    def _down_fraction(self, layer: int, area: float) -> float:
        """Fraction of a cell's heat taking the downward (heat-sink) path."""
        k = self.tech.thermal_conductivity
        chip = self.chip
        r_down = (chip.layer_center_height(layer) / (k * area)
                  + 1.0 / (self.tech.heat_sink_convection * area))
        if self.tech.substrate_in_thermal_path:
            r_down += (chip.substrate_thickness
                       / (self.tech.substrate_conductivity * area))
        g_down = 1.0 / r_down
        total = g_down
        h2 = self.tech.secondary_convection
        if h2 > 0:
            up_len = chip.stack_height - chip.layer_center_height(layer)
            total += 1.0 / (up_len / (k * area) + 1.0 / (h2 * area))
            half_w = 0.5 * chip.width
            half_h = 0.5 * chip.height
            for dist in (half_w, half_w, half_h, half_h):
                total += 1.0 / (dist / (k * area) + 1.0 / (h2 * area))
        return g_down / total
