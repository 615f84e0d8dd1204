"""Thermal-aware net weighting (Section 3.1, Eqs. 6-8).

Rewriting the objective with the power model substituted in (Eq. 7)
yields per-net multipliers on the wirelength and via terms:

    nw_lateral_i  = 1 + a_TEMP * R_net_i * s_wl_i
    nw_vertical_i = 1 + a_TEMP * R_net_i * s_ilv_i / a_ILV

where ``R_net_i`` is the summed thermal resistance of the net's *driver*
cells at their current positions — nets driven from hot, hard-to-cool
spots get shortened preferentially, which reduces their capacitance and
hence the very power that heats those spots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import PlacementConfig
from repro.netlist.csr import signal_csr
from repro.netlist.placement import Placement
from repro.thermal.power import PowerModel
from repro.thermal.resistance import ResistanceModel


@dataclass
class NetWeights:
    """Per-net partitioning weights, indexed by net id.

    Attributes:
        lateral: weights applied when a net is cut by an x or y cut.
        vertical: weights applied when a net is cut by a z (layer) cut.
    """

    lateral: np.ndarray
    vertical: np.ndarray


def compute_net_weights(placement: Placement, config: PlacementConfig,
                        power_model: PowerModel,
                        resistance_model: ResistanceModel = None
                        ) -> NetWeights:
    """Evaluate Eq. 8 at the placement's current positions.

    With thermal weighting disabled (``alpha_temp == 0`` or the ablation
    toggle off) every weight is 1 and partitioning reduces to plain
    min-cut.
    """
    netlist = placement.netlist
    m = netlist.num_nets
    if config.alpha_temp <= 0 or not config.use_thermal_net_weights:
        ones = np.ones(m)
        return NetWeights(lateral=ones, vertical=ones.copy())

    rm = resistance_model or ResistanceModel(placement.chip, config.tech)
    areas = np.maximum(netlist.areas, 1e-18)
    csr = signal_csr(netlist)
    drv = csr.drv_cell
    # each net's driver resistances summed in driver order, as a
    # per-net running sum would add them
    r_net = np.zeros(m)
    np.add.at(r_net, csr.drv_net, rm.cell_resistance(
        placement.x[drv], placement.y[drv], placement.z[drv], areas[drv]))
    lateral = 1.0 + config.alpha_temp * r_net * power_model.s_wl
    vertical = (1.0 + config.alpha_temp * r_net * power_model.s_ilv
                / config.alpha_ilv)
    return NetWeights(lateral=lateral, vertical=vertical)
