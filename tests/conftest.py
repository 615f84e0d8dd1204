"""Shared fixtures for the test suite.

Everything here is deliberately tiny (tens to a few hundred cells) so
the whole suite stays fast; the benchmark harnesses in ``benchmarks/``
exercise realistic sizes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import pytest

from repro.core.config import PlacementConfig
from repro.geometry.chip import ChipGeometry
from repro.geometry.density import DensityMesh
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.net import PinRole
from repro.netlist.netlist import Netlist
from repro.netlist.placement import Placement
from repro.technology import TechnologyConfig


@pytest.fixture
def tech() -> TechnologyConfig:
    """Default (Table 2) technology."""
    return TechnologyConfig()


@pytest.fixture
def tiny_netlist() -> Netlist:
    """A hand-built 6-cell, 5-net circuit with known structure.

    Nets:
        n0: c0 -> c1, c2     (driver c0)
        n1: c1 -> c2         (driver c1)
        n2: c3 -> c4         (driver c3)
        n3: c4 -> c5         (driver c4)
        n4: c2 -> c3         (driver c2, the only cross-cluster net)
    """
    nl = Netlist("tiny")
    for i in range(6):
        nl.add_cell(f"c{i}", width=2e-6, height=1e-6)
    d, s = PinRole.DRIVER, PinRole.SINK
    nl.add_net("n0", [(0, d), (1, s), (2, s)], activity=0.2)
    nl.add_net("n1", [(1, d), (2, s)], activity=0.3)
    nl.add_net("n2", [(3, d), (4, s)], activity=0.1)
    nl.add_net("n3", [(4, d), (5, s)], activity=0.4)
    nl.add_net("n4", [(2, d), (3, s)], activity=0.25)
    nl.validate()
    return nl


@pytest.fixture
def small_netlist() -> Netlist:
    """A generated ~120-cell netlist (deterministic)."""
    spec = GeneratorSpec(name="small", num_cells=120,
                         total_area=120 * 5e-12, seed=7)
    return generate_netlist(spec)


@pytest.fixture
def medium_netlist() -> Netlist:
    """A generated ~400-cell netlist (deterministic)."""
    spec = GeneratorSpec(name="medium", num_cells=400,
                         total_area=400 * 5e-12, seed=11)
    return generate_netlist(spec)


@pytest.fixture
def chip4(tiny_netlist) -> ChipGeometry:
    """A 4-layer chip sized for the tiny netlist."""
    return ChipGeometry.for_cell_area(
        tiny_netlist.total_cell_area, num_layers=4,
        row_height=tiny_netlist.average_cell_height)


def add_pads(netlist: Netlist, chip: ChipGeometry, count: int) -> None:
    """Wire ``count`` fixed IO pads, alternately on the bottom and top
    die edge of layer 0, each driving three of the netlist's (all
    movable) cells."""
    cells = netlist.num_cells
    per_edge = (count + 1) // 2
    for i in range(count):
        x = (i // 2 + 0.5) / per_edge * chip.width
        y = 0.0 if i % 2 == 0 else chip.height
        pad = netlist.add_cell(f"pad{i}", 1e-6, 1e-6, fixed=True,
                               fixed_position=(x, y, 0))
        sinks = [(7 * i + k) % cells for k in range(3)]
        netlist.add_net(f"padnet{i}", [(pad.id, PinRole.DRIVER)]
                        + [(c, PinRole.SINK) for c in sinks])


def group_by_bin(placement: Placement, mesh: DensityMesh
                 ) -> Dict[Tuple[int, int, int], List[int]]:
    """Each bin's movable cell ids, ascending, from the scalar
    floor-and-clamp rule applied to every cell on its own: the
    reference for the mesh's array rule and the optimizer's bin
    membership."""
    groups: Dict[Tuple[int, int, int], List[int]] = {}
    for cid, x, y, z in placement.iter_movable():
        index = (min(max(int(math.floor(x / mesh.bin_width)), 0),
                     mesh.nx - 1),
                 min(max(int(math.floor(y / mesh.bin_height)), 0),
                     mesh.ny - 1),
                 min(max(z, 0), mesh.nz - 1))
        groups.setdefault(index, []).append(cid)
    return groups


def make_chip(netlist: Netlist, num_layers: int = 4,
              tech: TechnologyConfig = None) -> ChipGeometry:
    """Size a chip for a netlist the way the placer does."""
    tech = tech or TechnologyConfig()
    return ChipGeometry.for_cell_area(
        netlist.total_cell_area, num_layers,
        netlist.average_cell_height,
        whitespace=tech.whitespace,
        inter_row_space=tech.inter_row_space,
        min_row_width=24.0 * netlist.average_cell_width)


@pytest.fixture
def small_placement(small_netlist) -> Placement:
    """Random placement of the small netlist on a 4-layer chip."""
    chip = make_chip(small_netlist)
    return Placement.random(small_netlist, chip, seed=3)


@pytest.fixture
def config() -> PlacementConfig:
    """Default placement configuration with thermal off."""
    return PlacementConfig(alpha_ilv=1e-5, alpha_temp=0.0, num_layers=4,
                           seed=0)


@pytest.fixture
def thermal_config() -> PlacementConfig:
    """Placement configuration with thermal placement enabled."""
    return PlacementConfig(alpha_ilv=1e-5, alpha_temp=4e-5, num_layers=4,
                           seed=0)
