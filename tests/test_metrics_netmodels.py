"""Tests for the alternative net-length models."""

import pytest

from repro.metrics.netmodels import (
    compare_net_models,
    rsmt_factor,
)
from repro.metrics.wirelength import total_hpwl, total_ilv
from repro.netlist.net import PinRole
from repro.netlist.netlist import Netlist
from repro.netlist.placement import Placement
from repro.geometry.chip import ChipGeometry


def two_pin_case():
    nl = Netlist("m")
    nl.add_cell("a", 1e-6, 1e-6)
    nl.add_cell("b", 1e-6, 1e-6)
    nl.add_net("n", [(0, PinRole.DRIVER), (1, PinRole.SINK)])
    chip = ChipGeometry(width=100e-6, height=100e-6, num_layers=4,
                        row_height=1e-6, row_pitch=1.25e-6)
    pl = Placement.at_center(nl, chip)
    pl.x[:] = [10e-6, 40e-6]
    pl.y[:] = [10e-6, 20e-6]
    pl.z[:] = [0, 2]
    return pl


class TestRsmtFactor:
    def test_two_pin_is_exact(self):
        assert rsmt_factor(2) == 1.0

    def test_monotone_in_degree(self):
        values = [rsmt_factor(d) for d in range(2, 40)]
        assert values == sorted(values)

    def test_extrapolation_continuous(self):
        assert rsmt_factor(16) == pytest.approx(rsmt_factor(15),
                                                rel=0.05)


class TestCompareModels:
    def test_two_pin_models_agree(self):
        pl = two_pin_case()
        report = compare_net_models(pl)
        manhattan = 40e-6 + 2 * pl.chip.layer_pitch
        assert report.hpwl == pytest.approx(manhattan)
        assert report.star == pytest.approx(manhattan)
        assert report.clique == pytest.approx(manhattan)
        assert report.rsmt == pytest.approx(manhattan)

    def test_hpwl_matches_metric_plus_vias(self, small_placement):
        report = compare_net_models(small_placement)
        expected = (total_hpwl(small_placement)
                    + total_ilv(small_placement)
                    * small_placement.chip.layer_pitch)
        assert report.hpwl == pytest.approx(expected)

    def test_ordering_for_fanout_nets(self, small_placement):
        """Star/clique/rsmt are >= hpwl on realistic netlists (hpwl is
        the optimistic lower-bound model)."""
        report = compare_net_models(small_placement)
        assert report.rsmt >= report.hpwl
        assert report.star >= 0.99 * report.hpwl

    def test_custom_via_pitch(self):
        pl = two_pin_case()
        a = compare_net_models(pl, via_pitch=0.0)
        b = compare_net_models(pl)
        assert a.hpwl == pytest.approx(40e-6)
        assert b.hpwl > a.hpwl
