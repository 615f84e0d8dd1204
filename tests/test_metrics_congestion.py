"""Tests for the congestion estimator."""

import numpy as np
import pytest

from repro.metrics.congestion import CongestionMap, estimate_congestion
from repro.netlist.placement import Placement
from tests.conftest import make_chip


class TestEstimate:
    def test_demand_conserved_per_net(self, small_netlist):
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=2)
        cmap = estimate_congestion(pl, nx=8)
        multi_pin = sum(1 for n in small_netlist.nets
                        if len(n.unique_cell_ids) >= 2)
        assert cmap.horizontal.sum() == pytest.approx(multi_pin)
        assert cmap.vertical.sum() == pytest.approx(multi_pin)

    def test_via_demand_matches_total_ilv(self, small_netlist):
        from repro.metrics.wirelength import total_ilv
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=2)
        cmap = estimate_congestion(pl, nx=8)
        assert cmap.via.sum() == pytest.approx(total_ilv(pl))

    def test_point_net_deposits_one_bin(self, tiny_netlist, chip4):
        pl = Placement.at_center(tiny_netlist, chip4)
        cmap = estimate_congestion(pl, nx=4)
        assert (cmap.total > 0).sum() == 1

    def test_clustered_worse_than_spread(self, small_netlist):
        chip = make_chip(small_netlist)
        spread = Placement.random(small_netlist, chip, seed=2)
        clustered = spread.copy()
        clustered.x[:] = 0.1 * clustered.x
        clustered.y[:] = 0.1 * clustered.y
        a = estimate_congestion(spread, nx=8)
        b = estimate_congestion(clustered, nx=8)
        assert b.peak_to_average > a.peak_to_average

    def test_empty_peak_to_average(self):
        cmap = CongestionMap(horizontal=np.zeros((2, 2)),
                             vertical=np.zeros((2, 2)),
                             via=np.zeros((2, 2)), nx=2, ny=2)
        assert cmap.peak_to_average == 1.0
