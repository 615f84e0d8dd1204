"""Routing-congestion estimation from a placement.

Placement tools report congestion estimates alongside wirelength; this
module provides the classic probabilistic bounding-box model: each net
spreads one unit of horizontal demand and one of vertical demand
uniformly over its bounding box, and per-bin demand is compared with the
routing capacity implied by the die size.  Interlayer-via demand is
accumulated per lateral bin the same way, giving the local via-density
map that the paper's fabrication limit (Section 1) constrains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.metrics.wirelength import NetMetrics
from repro.netlist.placement import Placement


@dataclass
class CongestionMap:
    """Estimated routing demand over a lateral grid.

    Attributes:
        horizontal: net-crossing demand per bin (x-direction wires),
            shape ``(nx, ny)``.
        vertical: same for y-direction wires.
        via: interlayer-via demand per lateral bin, shape ``(nx, ny)``.
        nx, ny: grid resolution.
    """

    horizontal: np.ndarray
    vertical: np.ndarray
    via: np.ndarray
    nx: int
    ny: int

    @property
    def total(self) -> np.ndarray:
        """Combined wire demand per bin."""
        return self.horizontal + self.vertical

    @property
    def peak_to_average(self) -> float:
        """Peak wire demand over mean demand — 1.0 is perfectly even."""
        total = self.total
        mean = float(total.mean())
        if mean == 0:
            return 1.0
        return float(total.max()) / mean

    @property
    def peak_via_density(self) -> float:
        """Largest per-bin via demand (vias per bin)."""
        return float(self.via.max())


def estimate_congestion(placement: Placement, nx: int = 16,
                        ny: Optional[int] = None,
                        metrics: Optional[NetMetrics] = None
                        ) -> CongestionMap:
    """Probabilistic bounding-box congestion estimate.

    Each signal net contributes one horizontal and one vertical track
    spread uniformly over its bounding box (plus its via count spread
    over the box laterally).  Degenerate (point) boxes deposit into the
    single bin under them.

    Args:
        placement: the placement to analyze.
        nx: horizontal grid resolution; ``ny`` defaults to the value
            preserving square-ish bins.
    """
    chip = placement.chip
    if ny is None:
        ny = max(1, int(round(nx * chip.height / chip.width)))
    horizontal = np.zeros((nx, ny))
    vertical = np.zeros((nx, ny))
    via = np.zeros((nx, ny))
    bin_w = chip.width / nx
    bin_h = chip.height / ny

    xs = placement.x
    ys = placement.y
    zs = placement.z
    for net in placement.netlist.nets:
        ids = net.unique_cell_ids
        if len(ids) < 2:
            continue
        x_lo = float(xs[ids].min())
        x_hi = float(xs[ids].max())
        y_lo = float(ys[ids].min())
        y_hi = float(ys[ids].max())
        n_via = int(zs[ids].max() - zs[ids].min())
        i_lo = min(max(int(x_lo / bin_w), 0), nx - 1)
        i_hi = min(max(int(x_hi / bin_w), 0), nx - 1)
        j_lo = min(max(int(y_lo / bin_h), 0), ny - 1)
        j_hi = min(max(int(y_hi / bin_h), 0), ny - 1)
        n_bins = (i_hi - i_lo + 1) * (j_hi - j_lo + 1)
        share = 1.0 / n_bins
        horizontal[i_lo:i_hi + 1, j_lo:j_hi + 1] += share
        vertical[i_lo:i_hi + 1, j_lo:j_hi + 1] += share
        if n_via:
            via[i_lo:i_hi + 1, j_lo:j_hi + 1] += n_via * share
    return CongestionMap(horizontal=horizontal, vertical=vertical,
                         via=via, nx=nx, ny=ny)
