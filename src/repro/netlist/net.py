"""Hypergraph nets with pin roles and switching activity."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Tuple


class PinRole(enum.Enum):
    """Electrical role of a pin on a net.

    The power model (Eqs. 4-5, 10-11 of the paper) needs to know which
    cells *drive* a net — the driver dissipates the net's dynamic power —
    and how many input pins the net fans out to.
    """

    DRIVER = "driver"
    SINK = "sink"


@dataclass
class Net:
    """A (hyper)net connecting two or more cells.

    Attributes:
        id: dense integer index assigned by the owning netlist.
        name: net name, unique within the netlist.
        pins: list of ``(cell_id, role)`` pairs.  A cell may legitimately
            appear more than once (e.g. multiple input pins of one cell on
            the same net).
        activity: switching activity ``a_i`` in Eq. 4, the expected number
            of transitions per clock cycle (0..1].
    """

    id: int
    name: str
    pins: List[Tuple[int, PinRole]] = field(default_factory=list)
    activity: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.activity <= 1.0:
            raise ValueError(
                f"net {self.name}: activity {self.activity} outside [0, 1]")

    @property
    def degree(self) -> int:
        """Number of pins on the net."""
        return len(self.pins)

    @property
    def cell_ids(self) -> List[int]:
        """Ids of all cells the net touches (with multiplicity)."""
        return [cid for cid, _ in self.pins]

    @property
    def unique_cell_ids(self) -> List[int]:
        """Ids of all distinct cells the net touches, in pin order."""
        seen = set()
        out = []
        for cid, _ in self.pins:
            if cid not in seen:
                seen.add(cid)
                out.append(cid)
        return out

    @property
    def driver_ids(self) -> List[int]:
        """Ids of cells with a DRIVER pin on this net."""
        return [cid for cid, role in self.pins if role is PinRole.DRIVER]

    @property
    def num_output_pins(self) -> int:
        """``n_i^output pins`` of Eqs. 6-8: driver pins on the net."""
        return sum(1 for _, role in self.pins if role is PinRole.DRIVER)

    @property
    def num_input_pins(self) -> int:
        """``n_i^input pins`` of Eq. 5: sink pins on the net."""
        return sum(1 for _, role in self.pins if role is PinRole.SINK)
