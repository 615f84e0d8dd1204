"""Wirelength and interlayer-via metrics.

The paper's objective (Eq. 1/3) uses bounding-box (HPWL) wirelength for
the lateral dimensions and counts one interlayer via per layer boundary
the net's bounding box crosses: a net spanning layers ``zmin..zmax``
needs ``zmax - zmin`` vias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.bbox import BBox3D
from repro.netlist.net import Net
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


def net_bbox(placement: Placement, net: Net) -> BBox3D:
    """Bounding box of a net's pins."""
    ids = net.unique_cell_ids
    xs = placement.x[ids]
    ys = placement.y[ids]
    zs = placement.z[ids]
    return BBox3D(float(xs.min()), float(xs.max()),
                  float(ys.min()), float(ys.max()),
                  int(zs.min()), int(zs.max()))


def compute_net_metrics(placement: Placement) -> NetMetrics:
    """Bounding-box extents and via counts for every net.

    Uses plain-Python min/max over each net's pins — the nets are tiny
    (2-4 pins typically) and this is several times faster than per-net
    NumPy reductions.
    """
    netlist = placement.netlist
    m = netlist.num_nets
    wl_x = np.zeros(m)
    wl_y = np.zeros(m)
    ilv = np.zeros(m, dtype=np.int64)
    xs = placement.x.tolist()
    ys = placement.y.tolist()
    zs = placement.z.tolist()
    for net in netlist.nets:
        ids = net.unique_cell_ids
        nx = [xs[c] for c in ids]
        ny = [ys[c] for c in ids]
        nz = [zs[c] for c in ids]
        wl_x[net.id] = max(nx) - min(nx)
        wl_y[net.id] = max(ny) - min(ny)
        ilv[net.id] = max(nz) - min(nz)
    return NetMetrics(wl_x=wl_x, wl_y=wl_y, ilv=ilv)


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
