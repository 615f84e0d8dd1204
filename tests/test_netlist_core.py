"""Unit tests for repro.netlist.cell / net / netlist."""

import numpy as np
import pytest

from repro.netlist.cell import Cell
from repro.netlist.net import Net, PinRole
from repro.netlist.netlist import Netlist


class TestCell:
    def test_area(self):
        cell = Cell(0, "a", 2e-6, 3e-6)
        assert cell.area == pytest.approx(6e-12)
        assert cell.movable

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Cell(0, "a", -1e-6, 1e-6)

    def test_fixed_needs_position(self):
        with pytest.raises(ValueError):
            Cell(0, "pad", 1e-6, 1e-6, fixed=True)
        cell = Cell(0, "pad", 1e-6, 1e-6, fixed=True,
                    fixed_position=(0.0, 0.0, 0))
        assert not cell.movable


class TestNet:
    def test_pin_roles(self):
        net = Net(0, "n", [(0, PinRole.DRIVER), (1, PinRole.SINK),
                           (2, PinRole.SINK)])
        assert net.degree == 3
        assert net.driver_ids == [0]
        assert net.num_output_pins == 1
        assert net.num_input_pins == 2

    def test_unique_cell_ids_preserves_order(self):
        net = Net(0, "n", [(3, PinRole.DRIVER), (1, PinRole.SINK),
                           (3, PinRole.SINK), (2, PinRole.SINK)])
        assert net.unique_cell_ids == [3, 1, 2]
        assert net.cell_ids == [3, 1, 3, 2]

    def test_activity_bounds(self):
        with pytest.raises(ValueError):
            Net(0, "n", [(0, PinRole.DRIVER)], activity=1.5)

    def test_multi_driver(self):
        net = Net(0, "n", [(0, PinRole.DRIVER), (1, PinRole.DRIVER),
                           (2, PinRole.SINK)])
        assert net.num_output_pins == 2


class TestNetlistConstruction:
    def test_dense_ids(self, tiny_netlist):
        for i, cell in enumerate(tiny_netlist.cells):
            assert cell.id == i
        for i, net in enumerate(tiny_netlist.nets):
            assert net.id == i

    def test_duplicate_cell_name(self, tiny_netlist):
        with pytest.raises(ValueError):
            tiny_netlist.add_cell("c0", 1e-6, 1e-6)

    def test_duplicate_net_name(self, tiny_netlist):
        with pytest.raises(ValueError):
            tiny_netlist.add_net("n0", [(0, PinRole.DRIVER)])

    def test_net_with_unknown_cell(self, tiny_netlist):
        with pytest.raises(ValueError):
            tiny_netlist.add_net("bad", [(99, PinRole.DRIVER)])

    def test_empty_net_rejected(self, tiny_netlist):
        with pytest.raises(ValueError):
            tiny_netlist.add_net("empty", [])

    def test_lookup_by_name(self, tiny_netlist):
        assert tiny_netlist.cell("c3").id == 3
        assert tiny_netlist.net("n2").id == 2


class TestNetlistQueries:
    def test_counts(self, tiny_netlist):
        assert tiny_netlist.num_cells == 6
        assert tiny_netlist.num_nets == 5
        assert tiny_netlist.num_movable == 6

    def test_incidence(self, tiny_netlist):
        assert sorted(tiny_netlist.nets_of_cell(2)) == [0, 1, 4]
        assert sorted(tiny_netlist.nets_of_cell(5)) == [3]

    def test_degree_histogram(self, tiny_netlist):
        hist = tiny_netlist.degree_histogram()
        assert hist == {3: 1, 2: 4}

    def test_num_pins(self, tiny_netlist):
        assert tiny_netlist.num_pins() == 3 + 2 * 4


class TestNetlistArrays:
    def test_widths_heights_areas(self, tiny_netlist):
        assert tiny_netlist.widths.shape == (6,)
        assert np.allclose(tiny_netlist.widths, 2e-6)
        assert np.allclose(tiny_netlist.areas, 2e-12)

    def test_total_cell_area_excludes_fixed(self, tiny_netlist):
        before = tiny_netlist.total_cell_area
        tiny_netlist.add_cell("pad", 10e-6, 10e-6, fixed=True,
                              fixed_position=(0.0, 0.0, 0))
        assert tiny_netlist.total_cell_area == pytest.approx(before)

    def test_average_dimensions(self, tiny_netlist):
        assert tiny_netlist.average_cell_width == pytest.approx(2e-6)
        assert tiny_netlist.average_cell_height == pytest.approx(1e-6)

    def test_arrays_refresh_after_adding_cells(self, tiny_netlist):
        _ = tiny_netlist.widths
        tiny_netlist.add_cell("extra", 4e-6, 1e-6)
        assert tiny_netlist.widths.shape == (7,)
        assert tiny_netlist.widths[-1] == pytest.approx(4e-6)

    def test_areas_cached_and_refreshed_after_adding_cells(
            self, tiny_netlist):
        areas = tiny_netlist.areas
        np.testing.assert_array_equal(
            areas, tiny_netlist.widths * tiny_netlist.heights)
        assert tiny_netlist.areas is areas  # cached, not recomputed
        tiny_netlist.add_cell("extra", 4e-6, 3e-6)
        refreshed = tiny_netlist.areas
        assert refreshed is not areas
        assert refreshed.shape == (7,)
        np.testing.assert_array_equal(
            refreshed, tiny_netlist.widths * tiny_netlist.heights)
        assert refreshed[-1] == 4e-6 * 3e-6

    def test_arrays_are_read_only(self, tiny_netlist):
        # every run of a circuit shares one loaded netlist
        for array in (tiny_netlist.widths, tiny_netlist.heights,
                      tiny_netlist.areas, tiny_netlist.movable_ids):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_average_of_empty_netlist_raises(self):
        nl = Netlist("empty")
        with pytest.raises(ValueError):
            _ = nl.average_cell_width


class TestValidation:
    def test_valid_netlist_passes(self, tiny_netlist):
        tiny_netlist.validate()
