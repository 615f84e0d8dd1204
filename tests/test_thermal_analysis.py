"""Unit tests for placement-level thermal analysis."""

import numpy as np
import pytest

from repro.netlist.placement import Placement
from repro.thermal.analysis import analyze_placement
from repro.thermal.power import PowerModel
from repro.thermal.solver import ThermalSolver
from tests.conftest import make_chip


class TestAnalyzePlacement:
    def test_summary_fields(self, small_placement, tech):
        summary = analyze_placement(small_placement, tech)
        assert summary.total_power > 0
        assert summary.average_temperature > 0
        assert summary.max_temperature >= summary.average_temperature
        assert summary.cell_temperatures.shape == (
            small_placement.netlist.num_cells,)

    def test_reuses_provided_models(self, small_placement, tech):
        pm = PowerModel(small_placement.netlist, tech)
        solver = ThermalSolver(small_placement.chip, tech)
        a = analyze_placement(small_placement, tech, power_model=pm,
                              solver=solver)
        b = analyze_placement(small_placement, tech)
        assert a.average_temperature == pytest.approx(
            b.average_temperature, rel=1e-6)

    def test_compact_placement_is_cooler_than_spread_vias(
            self, small_netlist, tech):
        """Same x/y, all cells on layer 0 vs random layers: the random-z
        placement has more vias (more power) and worse positions."""
        chip = make_chip(small_netlist)
        spread = Placement.random(small_netlist, chip, seed=0)
        stacked = spread.copy()
        stacked.z[:] = 0
        t_spread = analyze_placement(spread, tech).average_temperature
        t_stacked = analyze_placement(stacked, tech).average_temperature
        assert t_stacked < t_spread

    def test_average_excludes_fixed_cells(self, small_netlist, tech):
        small_netlist.add_cell("pad", 1e-6, 1e-6, fixed=True,
                               fixed_position=(0.0, 0.0, 0))
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=2)
        summary = analyze_placement(pl, tech)
        movable = [c.movable for c in small_netlist.cells]
        expected = summary.cell_temperatures[np.array(movable)].mean()
        assert summary.average_temperature == pytest.approx(expected)
