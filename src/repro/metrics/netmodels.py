"""Alternative net-length models: star, clique, spanning tree.

The placer's objective uses the bounding-box (HPWL) model — the paper's
Eq. 1 — but routed wirelength correlates differently per net degree, so
placement studies routinely report several estimators side by side:

- **HPWL** — half-perimeter of the pin bounding box; exact for 2-3 pin
  nets, optimistic for large fan-out.
- **Star** — sum of Manhattan distances from each pin to the net's
  centroid; the quadratic-placement-friendly model.
- **Clique** — average pairwise Manhattan distance (each of the
  ``k(k-1)/2`` pin pairs weighted ``1/(k-1)``), the classic quadratic
  net model's linear analogue.
- **RSMT estimate** — HPWL scaled by the Chung–Hwang expected
  rectilinear-Steiner-tree factor for the net's pin count.

All models add the via span times the given via pitch so 3D lengths are
comparable across models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.netlist.placement import Placement

#: Chung & Hwang style expected RSMT / HPWL ratios by pin count
#: (2-15 pins; larger nets extrapolate with sqrt growth).
_RSMT_FACTORS = {
    2: 1.00, 3: 1.08, 4: 1.15, 5: 1.22, 6: 1.28, 7: 1.34, 8: 1.40,
    9: 1.45, 10: 1.50, 11: 1.55, 12: 1.59, 13: 1.63, 14: 1.67,
    15: 1.71,
}


@dataclass
class NetLengthReport:
    """Total net length under each model, metres.

    Attributes:
        hpwl: bounding-box half-perimeter total.
        star: pin-to-centroid total.
        clique: weighted pairwise total.
        rsmt: Steiner-estimate total.
    """

    hpwl: float
    star: float
    clique: float
    rsmt: float


def rsmt_factor(degree: int) -> float:
    """Expected RSMT/HPWL ratio for a net with ``degree`` pins."""
    if degree <= 2:
        return 1.0
    if degree in _RSMT_FACTORS:
        return _RSMT_FACTORS[degree]
    # sqrt extrapolation anchored at 15 pins
    return _RSMT_FACTORS[15] * (degree / 15.0) ** 0.5


def compare_net_models(placement: Placement,
                       via_pitch: Optional[float] = None
                       ) -> NetLengthReport:
    """Total net length under all four models.

    Args:
        placement: the placement to measure.
        via_pitch: physical length charged per crossed layer boundary;
            defaults to the chip's layer pitch.
    """
    chip = placement.chip
    if via_pitch is None:
        via_pitch = chip.layer_pitch
    xs = placement.x
    ys = placement.y
    zs = placement.z
    hpwl = star = clique = rsmt = 0.0
    for net in placement.netlist.nets:
        ids = net.unique_cell_ids
        if len(ids) < 2:
            continue
        nx = xs[ids]
        ny = ys[ids]
        nz = zs[ids]
        via_len = float(nz.max() - nz.min()) * via_pitch
        box = float((nx.max() - nx.min()) + (ny.max() - ny.min()))
        hpwl += box + via_len
        rsmt += box * rsmt_factor(len(ids)) + via_len
        cx = float(nx.mean())
        cy = float(ny.mean())
        star += float(np.abs(nx - cx).sum() + np.abs(ny - cy).sum()) \
            + via_len
        k = len(ids)
        pair = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                pair += abs(float(nx[i] - nx[j])) \
                    + abs(float(ny[i] - ny[j]))
        clique += pair / (k - 1) + via_len
    return NetLengthReport(hpwl=hpwl, star=star, clique=clique,
                           rsmt=rsmt)
