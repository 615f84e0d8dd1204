"""Unit tests for recursive-bisection global placement."""

import numpy as np
import pytest

from repro.core.config import PlacementConfig
from repro.core.globalplace import GlobalPlacer, Region
from repro.metrics.wirelength import compute_net_metrics
from repro.netlist.placement import Placement
from tests.conftest import make_chip


def place(netlist, config):
    chip = make_chip(netlist, num_layers=config.num_layers)
    pl = Placement.at_center(netlist, chip)
    GlobalPlacer(pl, config).run()
    return pl


class TestRegion:
    def test_properties(self):
        r = Region([1, 2], 0.0, 4e-6, 0.0, 2e-6, 1, 3)
        assert r.width == pytest.approx(4e-6)
        assert r.height == pytest.approx(2e-6)
        assert r.layers == 3
        assert r.center == (2e-6, 1e-6, 2)


class TestCutDirection:
    def make_placer(self, small_netlist, config):
        chip = make_chip(small_netlist)
        pl = Placement.at_center(small_netlist, chip)
        return GlobalPlacer(pl, config)

    def test_widest_dimension_cut(self, small_netlist, config):
        placer = self.make_placer(small_netlist, config)
        wide = Region([], 0.0, 10e-6, 0.0, 2e-6, 0, 0)
        assert placer._choose_axis(wide) == "x"
        tall = Region([], 0.0, 2e-6, 0.0, 10e-6, 0, 0)
        assert placer._choose_axis(tall) == "y"

    def test_weighted_depth_wins_for_costly_vias(self, small_netlist):
        config = PlacementConfig(alpha_ilv=5e-3, num_layers=4)
        placer = self.make_placer(small_netlist, config)
        region = Region([], 0.0, 10e-6, 0.0, 10e-6, 0, 3)
        # weighted depth = 4 * 5e-3 >> 10um
        assert placer._choose_axis(region) == "z"

    def test_cheap_vias_defer_z_cut(self, small_netlist):
        config = PlacementConfig(alpha_ilv=5e-9, num_layers=4)
        placer = self.make_placer(small_netlist, config)
        region = Region([], 0.0, 10e-6, 0.0, 10e-6, 0, 3)
        assert placer._choose_axis(region) in ("x", "y")

    def test_single_layer_never_z(self, small_netlist, config):
        placer = self.make_placer(small_netlist, config)
        region = Region([], 0.0, 1e-9, 0.0, 1e-9, 2, 2)
        assert placer._choose_axis(region) != "z"


class TestPlacementOutcome:
    def test_cells_inside_chip(self, small_netlist, config):
        pl = place(small_netlist, config)
        chip = pl.chip
        assert np.all((pl.x >= 0) & (pl.x <= chip.width))
        assert np.all((pl.y >= 0) & (pl.y <= chip.height))
        assert np.all((pl.z >= 0) & (pl.z < chip.num_layers))

    def test_cells_spread_after_placement(self, small_netlist, config):
        pl = place(small_netlist, config)
        assert len(set(zip(pl.x.tolist(), pl.y.tolist()))) > 20

    def test_layer_areas_balanced(self, medium_netlist, config):
        pl = place(medium_netlist, config)
        areas = pl.layer_areas()
        frac = areas / areas.sum()
        assert frac.max() < 0.45
        assert frac.min() > 0.10

    def test_beats_random_wirelength(self, medium_netlist, config):
        pl = place(medium_netlist, config)
        placed_wl = compute_net_metrics(pl).total_wl
        rand = Placement.random(medium_netlist, pl.chip, seed=0)
        random_wl = compute_net_metrics(rand).total_wl
        assert placed_wl < 0.8 * random_wl

    def test_ilv_tradeoff_direction(self, medium_netlist):
        cheap = place(medium_netlist,
                      PlacementConfig(alpha_ilv=5e-9, seed=0))
        costly = place(medium_netlist,
                       PlacementConfig(alpha_ilv=5e-3, seed=0))
        m_cheap = compute_net_metrics(cheap)
        m_costly = compute_net_metrics(costly)
        assert m_costly.total_ilv < m_cheap.total_ilv
        assert m_costly.total_wl > 0.9 * m_cheap.total_wl

    def test_deterministic(self, small_netlist, config):
        a = place(small_netlist, config)
        b = place(small_netlist, config)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)

    def test_single_layer_chip(self, small_netlist):
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=1, seed=0)
        pl = place(small_netlist, config)
        assert np.all(pl.z == 0)
        assert compute_net_metrics(pl).total_ilv == 0

    def test_fixed_cells_untouched(self, small_netlist, config):
        small_netlist.add_cell("pad", 1e-6, 1e-6, fixed=True,
                               fixed_position=(1e-6, 1e-6, 0))
        pl = place(small_netlist, config)
        pad = small_netlist.cell("pad")
        assert pl.position(pad.id) == (1e-6, 1e-6, 0)

    def test_thermal_placement_shifts_power_down(self, medium_netlist,
                                                 thermal_config):
        from repro.thermal.power import PowerModel
        cold_cfg = PlacementConfig(alpha_ilv=1e-5, alpha_temp=0.0,
                                   num_layers=4, seed=0)
        hot_cfg = PlacementConfig(alpha_ilv=1e-5, alpha_temp=6e-4,
                                  num_layers=4, seed=0)
        base = place(medium_netlist, cold_cfg)
        thermal = place(medium_netlist, hot_cfg)
        pm = PowerModel(medium_netlist, hot_cfg.tech)

        def bottom_power_fraction(pl):
            cp = pm.cell_powers(compute_net_metrics(pl))
            per_layer = np.zeros(4)
            for cid in range(medium_netlist.num_cells):
                per_layer[int(pl.z[cid])] += cp[cid]
            return per_layer[0] / per_layer.sum()

        assert bottom_power_fraction(thermal) > \
            bottom_power_fraction(base)
