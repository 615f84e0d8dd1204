"""Thermal-resistance-reduction nets (Section 3.2, Eqs. 9-15).

A TRR net is a virtual two-pin net from a cell to a point on the bottom
of the chip directly below it.  During z-direction partitioning it pulls
the cell toward the heat sink with a force proportional to the cell's
power and the chip's vertical resistance slope:

    nw_j^cell = a_TEMP * P_j^cell * Rslope^z                  (Eq. 12)

``P_j^cell`` (Eq. 10) depends on the wirelength/via counts of the nets
the cell drives — which are all zero while every cell still sits at the
chip centre.  The paper floors them at PEKO-style *optimal* values
(Eqs. 13-15), computed here by
:meth:`repro.thermal.power.PowerModel.peko_optimal`.

TRR nets never enter the netlist.  This module computes their weights
from the evolving placement (:func:`compute_trr_weights`), and
:meth:`repro.core.globalplace.GlobalPlacer._build_tasks` adds one
two-pin net per weighted cell to each z-cut bisection task, tying the
cell to the bottom part's terminal.  The bottom anchor tracks the cell
laterally, so only z cuts ever feel it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import PlacementConfig
from repro.metrics.wirelength import NetMetrics, compute_net_metrics
from repro.netlist.placement import Placement
from repro.thermal.power import PowerModel
from repro.thermal.resistance import ResistanceModel, VerticalProfile


def compute_trr_weights(placement: Placement, config: PlacementConfig,
                        power_model: PowerModel,
                        profile: Optional[VerticalProfile] = None,
                        metrics: Optional[NetMetrics] = None
                        ) -> np.ndarray:
    """Per-cell TRR net weights (Eq. 12) at the current placement.

    Cell powers use the PEKO-3D floors, so the weights are meaningful
    even at the very first bisection when all geometry is still zero.

    Returns:
        Array indexed by cell id; zero when TRR nets are disabled.
    """
    n = placement.netlist.num_cells
    if config.alpha_temp <= 0 or not config.use_trr_nets:
        return np.zeros(n)
    if profile is None:
        rm = ResistanceModel(placement.chip, config.tech)
        profile = rm.vertical_profile(
            area=placement.netlist.total_cell_area
            / max(placement.netlist.num_movable, 1))
    if metrics is None:
        metrics = compute_net_metrics(placement)
    floors = power_model.peko_optimal(config.alpha_ilv)
    powers = power_model.cell_powers(metrics, floors=floors)
    return config.alpha_temp * powers * profile.slope
