"""Wirelength and interlayer-via metrics.

The paper's objective (Eq. 1/3) uses bounding-box (HPWL) wirelength for
the lateral dimensions and counts one interlayer via per layer boundary
the net's bounding box crosses: a net spanning layers ``zmin..zmax``
needs ``zmax - zmin`` vias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.csr import signal_csr
from repro.netlist.placement import Placement


@dataclass
class NetMetrics:
    """Per-net geometry arrays, indexed by net id.

    Attributes:
        wl_x, wl_y: bounding-box extents per net, metres.
        ilv: interlayer-via count per net (layer span).
    """

    wl_x: np.ndarray
    wl_y: np.ndarray
    ilv: np.ndarray

    @property
    def wl(self) -> np.ndarray:
        """Lateral HPWL per net, metres."""
        return self.wl_x + self.wl_y

    @property
    def total_wl(self) -> float:
        """Total lateral HPWL, metres."""
        return float(self.wl.sum())

    @property
    def total_ilv(self) -> int:
        """Total interlayer-via count."""
        return int(self.ilv.sum())


def compute_net_metrics(placement: Placement) -> NetMetrics:
    """Bounding-box extents and via counts for every net.

    One ``np.maximum.reduceat``/``np.minimum.reduceat`` pair per axis
    over the netlist's CSR pin array.
    """
    csr = signal_csr(placement.netlist)
    starts = csr.net_ptr[:-1]

    def span(coords: np.ndarray) -> np.ndarray:
        v = coords[csr.pin_cell]
        return np.maximum.reduceat(v, starts) - np.minimum.reduceat(
            v, starts)

    return NetMetrics(wl_x=span(placement.x), wl_y=span(placement.y),
                      ilv=span(placement.z))


def total_hpwl(placement: Placement) -> float:
    """Total lateral HPWL over all nets, metres."""
    return compute_net_metrics(placement).total_wl


def total_ilv(placement: Placement) -> int:
    """Total interlayer-via count over all nets."""
    return compute_net_metrics(placement).total_ilv


def ilv_density_per_interlayer(placement: Placement,
                               total_vias: int = None) -> float:
    """Interlayer-via density per interlayer, vias per square metre.

    This is the y-axis of the paper's Figures 3-4: total via count spread
    over the ``num_layers - 1`` via interfaces, divided by the die
    footprint.  Returns 0 for single-layer (2D) chips, which have no via
    interfaces.
    """
    interfaces = placement.chip.num_layers - 1
    if interfaces == 0:
        return 0.0
    if total_vias is None:
        total_vias = total_ilv(placement)
    return total_vias / interfaces / placement.chip.footprint_area
