"""Unit tests for wirelength/via metrics and the placement report."""

import pytest

from repro.geometry.chip import ChipGeometry
from repro.metrics.report import PlacementReport, evaluate_placement
from repro.metrics.wirelength import (
    compute_net_metrics,
    ilv_density_per_interlayer,
    net_bbox,
    total_hpwl,
    total_ilv,
)
from repro.netlist.net import PinRole
from repro.netlist.placement import Placement


@pytest.fixture
def placed_tiny(tiny_netlist, chip4):
    pl = Placement.at_center(tiny_netlist, chip4)
    # deterministic hand layout
    pl.x[:] = [1e-6, 3e-6, 5e-6, 7e-6, 9e-6, 11e-6]
    pl.y[:] = [1e-6, 1e-6, 2e-6, 2e-6, 3e-6, 3e-6]
    pl.z[:] = [0, 0, 1, 1, 2, 3]
    return pl


class TestNetBBox:
    def test_bbox_of_net(self, placed_tiny, tiny_netlist):
        box = net_bbox(placed_tiny, tiny_netlist.nets[0])  # c0,c1,c2
        assert box.xlo == pytest.approx(1e-6)
        assert box.xhi == pytest.approx(5e-6)
        assert box.zlo == 0
        assert box.zhi == 1


class TestComputeNetMetrics:
    def test_values(self, placed_tiny):
        m = compute_net_metrics(placed_tiny)
        # n0 spans x [1,5]um, y [1,2]um, z [0,1]
        assert m.wl_x[0] == pytest.approx(4e-6)
        assert m.wl_y[0] == pytest.approx(1e-6)
        assert m.ilv[0] == 1
        # n3: c4-c5 spans z [2,3]
        assert m.ilv[3] == 1

    def test_totals(self, placed_tiny):
        m = compute_net_metrics(placed_tiny)
        assert m.total_wl == pytest.approx(float(m.wl.sum()))
        assert total_hpwl(placed_tiny) == pytest.approx(m.total_wl)
        assert total_ilv(placed_tiny) == m.total_ilv

    def test_single_cell_net_zero(self, tiny_netlist, chip4):
        tiny_netlist.add_net("loop", [(0, PinRole.DRIVER)])
        pl = Placement.random(tiny_netlist, chip4, seed=0)
        m = compute_net_metrics(pl)
        assert m.wl[-1] == 0.0
        assert m.ilv[-1] == 0


class TestIlvDensity:
    def test_density_formula(self, placed_tiny):
        d = ilv_density_per_interlayer(placed_tiny)
        chip = placed_tiny.chip
        expected = (total_ilv(placed_tiny) / (chip.num_layers - 1)
                    / chip.footprint_area)
        assert d == pytest.approx(expected)

    def test_single_layer_zero(self, tiny_netlist):
        chip = ChipGeometry(width=40e-6, height=20e-6, num_layers=1,
                            row_height=1e-6, row_pitch=1.25e-6)
        pl = Placement.at_center(tiny_netlist, chip)
        assert ilv_density_per_interlayer(pl) == 0.0

    def test_explicit_total(self, placed_tiny):
        d = ilv_density_per_interlayer(placed_tiny, total_vias=30)
        chip = placed_tiny.chip
        assert d == pytest.approx(30 / 3 / chip.footprint_area)


class TestReport:
    def test_fast_report_skips_thermal(self, small_placement, tech):
        rep = evaluate_placement(small_placement, tech, thermal=False)
        assert rep.total_power == 0.0
        assert rep.average_temperature == 0.0
        assert rep.wirelength > 0

    def test_full_report(self, small_placement, tech):
        rep = evaluate_placement(small_placement, tech, thermal=True,
                                 runtime_seconds=1.5)
        assert rep.total_power > 0
        assert rep.max_temperature >= rep.average_temperature
        assert rep.runtime_seconds == 1.5
        assert rep.num_cells == small_placement.netlist.num_movable

    def test_row_and_header_align(self, small_placement, tech):
        rep = evaluate_placement(small_placement, tech, thermal=False)
        header = PlacementReport.header()
        row = rep.row()
        assert len(header.split()) == len(row.split())
