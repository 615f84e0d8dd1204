"""Internal-mechanism tests for global placement: subgraph building,
balance targets, tolerance derivation and weight refresh."""

import numpy as np
import pytest

from repro.core.globalplace import GlobalPlacer, Region
from repro.netlist.placement import Placement
from tests.conftest import make_chip


@pytest.fixture
def placer(small_netlist, thermal_config):
    chip = make_chip(small_netlist,
                     num_layers=thermal_config.num_layers)
    pl = Placement.at_center(small_netlist, chip)
    return GlobalPlacer(pl, thermal_config)


class TestWeightRefresh:
    def test_weights_populated_when_thermal(self, placer):
        placer._refresh_weights()
        assert placer._lateral_w.max() > 1.0
        assert placer._trr_w.max() > 0.0

    def test_weights_stay_ones_when_cold(self, small_netlist, config):
        chip = make_chip(small_netlist)
        pl = Placement.at_center(small_netlist, chip)
        cold = GlobalPlacer(pl, config)
        cold._refresh_weights()
        assert np.all(cold._lateral_w == 1.0)
        assert np.all(cold._trr_w == 0.0)


class TestSplitMechanics:
    def test_split_partitions_all_cells(self, placer):
        movable = [c.id for c in placer.netlist.cells if c.movable]
        chip = placer.chip
        region = Region(movable, 0.0, chip.width, 0.0, chip.height,
                        0, chip.num_layers - 1)
        children = placer._split(region)
        assert len(children) == 2
        union = sorted(children[0].cell_ids + children[1].cell_ids)
        assert union == sorted(movable)

    def test_lateral_children_tile_region(self, placer):
        movable = [c.id for c in placer.netlist.cells if c.movable]
        chip = placer.chip
        # force a lateral cut: single layer
        region = Region(movable, 0.0, chip.width, 0.0, chip.height,
                        0, 0)
        a, b = placer._split(region)
        assert a.xhi == pytest.approx(b.xlo) or \
            a.yhi == pytest.approx(b.ylo)
        assert a.zlo == a.zhi == 0

    def test_z_children_split_layers(self, placer):
        movable = [c.id for c in placer.netlist.cells if c.movable]
        chip = placer.chip
        # force a z cut with a deep, narrow region
        region = Region(movable, 0.0, 1e-9, 0.0, 1e-9,
                        0, chip.num_layers - 1)
        assert placer._choose_axis(region) == "z"
        a, b = placer._split(region)
        assert a.zhi + 1 == b.zlo
        assert a.zlo == 0 and b.zhi == chip.num_layers - 1

    def test_area_balanced_cutline(self, placer):
        """The cut line must land near the area split, not the middle,
        when the partition is uneven."""
        movable = [c.id for c in placer.netlist.cells if c.movable]
        chip = placer.chip
        region = Region(movable, 0.0, chip.width, 0.0, chip.height,
                        0, 0)
        a, b = placer._split(region)
        areas = placer.netlist.areas
        area_a = float(sum(areas[c] for c in a.cell_ids))
        area_b = float(sum(areas[c] for c in b.cell_ids))
        if a.xhi == pytest.approx(b.xlo):
            frac_geo = a.width / region.width
        else:
            frac_geo = a.height / region.height
        frac_area = area_a / (area_a + area_b)
        assert frac_geo == pytest.approx(frac_area, abs=1e-6)


class TestFinalize:
    def test_single_layer_terminal(self, placer):
        region = Region([0, 1], 0.0, 1e-5, 0.0, 1e-5, 2, 2)
        placer._finalize(region)
        pl = placer.placement
        assert pl.z[0] == 2 and pl.z[1] == 2
        assert pl.x[0] == pytest.approx(0.5e-5)

    def test_multi_layer_terminal_balances_area(self, placer):
        ids = list(range(8))
        region = Region(ids, 0.0, 1e-5, 0.0, 1e-5, 0, 3)
        placer._finalize(region)
        pl = placer.placement
        areas = placer.netlist.areas
        per_layer = np.zeros(4)
        for c in ids:
            per_layer[int(pl.z[c])] += areas[c]
        # greedy largest-first balancing: spread within one max cell
        assert per_layer.max() - per_layer.min() <= \
            float(areas[ids].max()) + 1e-18
        assert (per_layer > 0).sum() >= 3  # actually uses the layers
