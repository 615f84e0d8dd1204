"""IO pad generation.

The paper notes (Section 1) that partitioning placement "can obtain
good placement results even when IO pad connectivity information is
missing", unlike force-directed methods that need an encompassing pad
ring.  The suite circuits are therefore generated padless by default;
this module adds a peripheral pad ring to any netlist when experiments
want pad connectivity — pads are fixed terminal cells on the die
boundary of a given chip, each wired to a sample of internal cells.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.geometry.chip import ChipGeometry
from repro.netlist.net import PinRole
from repro.netlist.netlist import Netlist


def add_peripheral_pads(netlist: Netlist, chip: ChipGeometry,
                        count: int, layer: int = 0,
                        fanout: int = 3, pad_size: float = 1e-6,
                        input_fraction: float = 0.5,
                        seed: int = 0) -> List[int]:
    """Add a ring of fixed IO pads around the die and wire them in.

    Args:
        netlist: circuit to extend (movable cells must already exist).
        chip: provides the die outline the pads sit on.
        count: number of pads, distributed evenly around the perimeter.
        layer: layer index the pads live on (3D stacks usually bond out
            the bottom layer).
        fanout: internal cells connected to each pad net.
        pad_size: square pad edge length, metres.
        input_fraction: fraction of pads that *drive* (input pads); the
            rest are outputs driven by an internal cell.
        seed: RNG seed for the connectivity.

    Returns:
        List of the new pad cell ids.

    Raises:
        ValueError: if the netlist has no movable cells to connect to.
    """
    movable = [c.id for c in netlist.cells if c.movable]
    if not movable:
        raise ValueError("cannot add pads to a netlist with no cells")
    if count < 1:
        return []
    rng = np.random.default_rng(seed)
    perimeter = 2.0 * (chip.width + chip.height)
    pad_ids: List[int] = []
    for i in range(count):
        distance = (i + 0.5) / count * perimeter
        x, y = _point_on_perimeter(chip, distance)
        pad = netlist.add_cell(f"__pad__{i}", pad_size, pad_size,
                               fixed=True, fixed_position=(x, y, layer))
        pad_ids.append(pad.id)
        sinks = rng.choice(movable, size=min(fanout, len(movable)),
                           replace=False)
        if rng.random() < input_fraction:
            pins = [(pad.id, PinRole.DRIVER)]
            pins.extend((int(s), PinRole.SINK) for s in sinks)
        else:
            driver = int(sinks[0])
            pins = [(driver, PinRole.DRIVER), (pad.id, PinRole.SINK)]
            pins.extend((int(s), PinRole.SINK) for s in sinks[1:])
        netlist.add_net(f"__padnet__{i}", pins,
                        activity=float(rng.uniform(0.05, 0.45)))
    netlist.validate()
    return pad_ids


def _point_on_perimeter(chip: ChipGeometry, distance: float
                        ) -> Tuple[float, float]:
    """Point at a clockwise perimeter distance from the origin corner."""
    w, h = chip.width, chip.height
    d = distance % (2 * (w + h))
    if d < w:
        return d, 0.0
    d -= w
    if d < h:
        return w, d
    d -= h
    if d < w:
        return w - d, h
    d -= w
    return 0.0, h - d
