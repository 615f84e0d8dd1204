"""Netlist statistics, including Rent-exponent estimation.

The synthetic generator's claim to represent the IBM-PLACE circuits
rests on matching their *statistics* — net degree distribution and
wiring locality.  This module measures both:

- :func:`summarize` — cell/net/pin counts, degree histogram, size stats;
- :func:`rent_exponent` — the Rent's-rule exponent ``p`` in
  ``T = t * g^p`` (external terminals vs block size), estimated the
  standard way: recursively bisect the netlist with the library's own
  partitioner, record (cells, cut terminals) at every region, and fit
  the log-log slope.

Typical standard-cell circuits have ``p ~ 0.5-0.75``; values near 1.0
mean no locality (random wiring), values near 0 a chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.netlist.netlist import Netlist
from repro.partition import BisectionConfig, Hypergraph, bisect


@dataclass
class NetlistSummary:
    """Headline statistics of a netlist.

    Attributes:
        name: netlist name.
        cells, nets, pins: counts.
        avg_degree: mean pins per net.
        degree_histogram: pin-count -> net count.
        total_area: movable cell area, m^2.
        avg_cell_width / avg_cell_height: metres.
    """

    name: str
    cells: int
    nets: int
    pins: int
    avg_degree: float
    degree_histogram: Dict[int, int]
    total_area: float
    avg_cell_width: float
    avg_cell_height: float

    def text(self) -> str:
        """Human-readable multi-line summary."""
        hist = ", ".join(f"{d}:{c}" for d, c in
                         sorted(self.degree_histogram.items())[:8])
        return "\n".join([
            f"netlist {self.name}",
            f"  cells {self.cells}, nets {self.nets}, pins {self.pins} "
            f"(avg degree {self.avg_degree:.2f})",
            f"  degree histogram: {hist}",
            f"  total cell area {self.total_area*1e6:.4f} mm^2, "
            f"avg cell {self.avg_cell_width*1e6:.2f} x "
            f"{self.avg_cell_height*1e6:.2f} um",
        ])


def summarize(netlist: Netlist) -> NetlistSummary:
    """Compute the headline statistics of a netlist."""
    nets = netlist.nets
    pins = sum(n.degree for n in nets)
    return NetlistSummary(
        name=netlist.name,
        cells=netlist.num_cells,
        nets=len(nets),
        pins=pins,
        avg_degree=pins / len(nets) if nets else 0.0,
        degree_histogram=netlist.degree_histogram(),
        total_area=netlist.total_cell_area,
        avg_cell_width=netlist.average_cell_width,
        avg_cell_height=netlist.average_cell_height,
    )


def rent_exponent(netlist: Netlist, min_cells: int = 12,
                  seed: int = 0,
                  max_levels: int = 10) -> Tuple[float, float]:
    """Estimate the Rent exponent by recursive bisection.

    Args:
        netlist: the circuit to analyse.
        min_cells: stop recursing below this block size.
        seed: partitioner seed.
        max_levels: recursion depth cap.

    Returns:
        ``(p, t)`` — the fitted exponent and the Rent coefficient
        (terminals of a single cell).

    Raises:
        ValueError: if the netlist is too small to produce at least two
            distinct block sizes.
    """
    # hypergraph of the multi-pin nets
    nets = [n.unique_cell_ids for n in netlist.nets
            if len(n.unique_cell_ids) >= 2]
    samples: List[Tuple[int, int]] = []

    def external_terminals(block: List[int], net_list) -> int:
        block_set = set(block)
        count = 0
        for pins in net_list:
            inside = any(p in block_set for p in pins)
            outside = any(p not in block_set for p in pins)
            if inside and outside:
                count += 1
        return count

    def recurse(block: List[int], level: int, rng) -> None:
        if len(block) < min_cells or level >= max_levels:
            return
        samples.append((len(block),
                        external_terminals(block, nets)))
        local = {cid: i for i, cid in enumerate(block)}
        sub_nets = []
        for pins in nets:
            inside = [local[p] for p in pins if p in local]
            if len(inside) >= 2:
                sub_nets.append(inside)
        graph = Hypergraph(len(block), sub_nets)
        parts, _ = bisect(graph, BisectionConfig(
            seed=int(rng.integers(0, 2 ** 31))))
        left = [cid for cid in block if parts[local[cid]] == 0]
        right = [cid for cid in block if parts[local[cid]] == 1]
        if left and right:
            recurse(left, level + 1, rng)
            recurse(right, level + 1, rng)

    rng = np.random.default_rng(seed)
    all_cells = [c.id for c in netlist.cells]
    recurse(all_cells, 0, rng)
    # the root sample has ~zero external terminals; drop zero-terminal
    # samples (log undefined) and need two distinct sizes to fit
    points = [(g, t) for g, t in samples if t > 0]
    sizes = {g for g, _ in points}
    if len(sizes) < 2:
        raise ValueError("netlist too small for a Rent fit")
    logs_g = np.log([g for g, _ in points])
    logs_t = np.log([t for _, t in points])
    p, log_t0 = np.polyfit(logs_g, logs_t, 1)
    return float(p), float(math.exp(log_t0))
