"""Tests for netlist statistics, Rent estimation and pads."""

import pytest

from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.pads import add_peripheral_pads, _point_on_perimeter
from repro.netlist.stats import rent_exponent, summarize
from tests.conftest import make_chip


class TestSummarize:
    def test_counts(self, tiny_netlist):
        s = summarize(tiny_netlist)
        assert s.cells == 6
        assert s.nets == 5
        assert s.pins == 11
        assert s.avg_degree == pytest.approx(11 / 5)

    def test_text_renders(self, small_netlist):
        text = summarize(small_netlist).text()
        assert "cells 120" in text
        assert "degree histogram" in text


class TestRentExponent:
    def test_local_netlist_sublinear(self):
        nl = generate_netlist(GeneratorSpec(
            "local", 400, 400 * 5e-12, locality=0.03,
            global_fraction=0.0, seed=5))
        p, t = rent_exponent(nl, seed=0)
        assert 0.0 < p < 1.0
        assert t > 0

    def test_random_wiring_higher_exponent(self):
        local = generate_netlist(GeneratorSpec(
            "l", 300, 300 * 5e-12, locality=0.03,
            global_fraction=0.0, seed=5))
        random_nl = generate_netlist(GeneratorSpec(
            "r", 300, 300 * 5e-12, locality=0.9,
            global_fraction=0.5, seed=5))
        p_local, _ = rent_exponent(local, seed=0)
        p_random, _ = rent_exponent(random_nl, seed=0)
        assert p_random > p_local

    def test_too_small_raises(self, tiny_netlist):
        with pytest.raises(ValueError):
            rent_exponent(tiny_netlist, min_cells=64)


class TestPads:
    def test_pads_on_boundary(self, small_netlist):
        chip = make_chip(small_netlist)
        ids = add_peripheral_pads(small_netlist, chip, count=8, seed=1)
        assert len(ids) == 8
        for pid in ids:
            cell = small_netlist.cells[pid]
            assert cell.fixed
            x, y, z = cell.fixed_position
            on_x_edge = abs(x) < 1e-12 or abs(x - chip.width) < 1e-12
            on_y_edge = abs(y) < 1e-12 or abs(y - chip.height) < 1e-12
            assert on_x_edge or on_y_edge

    def test_pads_are_wired(self, small_netlist):
        chip = make_chip(small_netlist)
        ids = add_peripheral_pads(small_netlist, chip, count=4, seed=1)
        for pid in ids:
            assert small_netlist.nets_of_cell(pid)

    def test_zero_pads(self, small_netlist):
        chip = make_chip(small_netlist)
        assert add_peripheral_pads(small_netlist, chip, count=0) == []

    def test_empty_netlist_rejected(self):
        from repro.netlist.netlist import Netlist
        from repro.geometry.chip import ChipGeometry
        chip = ChipGeometry(width=1e-5, height=1e-5, num_layers=1,
                            row_height=1e-6, row_pitch=1.25e-6)
        with pytest.raises(ValueError):
            add_peripheral_pads(Netlist("x"), chip, count=2)

    def test_perimeter_walk_closes(self, small_netlist):
        chip = make_chip(small_netlist)
        total = 2 * (chip.width + chip.height)
        x0, y0 = _point_on_perimeter(chip, 0.0)
        x1, y1 = _point_on_perimeter(chip, total)
        assert (x0, y0) == pytest.approx((x1, y1))

    def test_padded_design_places_legally(self, small_netlist, config):
        from repro.core.placer import Placer3D
        from repro.core.detailed import check_legal
        chip = make_chip(small_netlist, num_layers=config.num_layers)
        add_peripheral_pads(small_netlist, chip, count=8, seed=2)
        result = Placer3D(small_netlist, config, chip=chip).run()
        check_legal(result.placement)
        # pads did not move
        for cell in small_netlist.fixed_cells():
            assert result.placement.position(cell.id) == \
                cell.fixed_position
