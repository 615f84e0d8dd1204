"""Circuit netlists for 3D placement.

This subpackage provides:

- :class:`~repro.netlist.cell.Cell` and :class:`~repro.netlist.net.Net` —
  the standard cells and (hyper)nets of a circuit;
- :class:`~repro.netlist.netlist.Netlist` — the container tying them
  together with fast incidence lookups;
- :class:`~repro.netlist.placement.Placement` — cell coordinates over a
  :class:`~repro.geometry.chip.ChipGeometry`;
- :mod:`~repro.netlist.bookshelf` — reader/writer for the UCLA Bookshelf
  format used by the IBM-PLACE suite;
- :mod:`~repro.netlist.generator` — a Rent's-rule synthetic netlist
  generator (our offline stand-in for the IBM-PLACE circuits);
- :mod:`~repro.netlist.suite` — ibm01..ibm18 profiles from Table 1 of the
  paper, instantiated through the generator at any scale.
"""

from repro.netlist.cell import Cell
from repro.netlist.net import Net, PinRole
from repro.netlist.netlist import Netlist
from repro.netlist.placement import Placement
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.suite import (
    BenchmarkProfile,
    SUITE_PROFILES,
    benchmark_names,
    load_benchmark,
)

__all__ = [
    "Cell",
    "Net",
    "PinRole",
    "Netlist",
    "Placement",
    "GeneratorSpec",
    "generate_netlist",
    "BenchmarkProfile",
    "SUITE_PROFILES",
    "benchmark_names",
    "load_benchmark",
]
