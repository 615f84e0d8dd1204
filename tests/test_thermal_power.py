"""Unit tests for the dynamic power model (Eqs. 4-5, 10-15)."""

import numpy as np
import pytest

from repro.metrics.wirelength import NetMetrics, compute_net_metrics
from repro.netlist.placement import Placement
from repro.thermal.power import PowerModel


@pytest.fixture
def model(tiny_netlist, tech):
    return PowerModel(tiny_netlist, tech)


def manual_metrics(netlist, wl=10e-6, ilv=2) -> NetMetrics:
    m = netlist.num_nets
    return NetMetrics(wl_x=np.full(m, 0.5 * wl), wl_y=np.full(m, 0.5 * wl),
                      ilv=np.full(m, ilv, dtype=np.int64))


class TestNetPower:
    def test_capacitance_formula(self, tiny_netlist, tech, model):
        metrics = manual_metrics(tiny_netlist)
        caps = model.net_capacitances(metrics)
        net = tiny_netlist.nets[0]  # 1 driver, 2 sinks
        expected = (tech.cap_per_wirelength * 10e-6
                    + tech.cap_per_via * 2
                    + tech.input_pin_cap * 2)
        assert caps[0] == pytest.approx(expected)

    def test_power_scales_with_activity(self, tiny_netlist, model):
        metrics = manual_metrics(tiny_netlist)
        powers = model.net_powers(metrics)
        # n3 has activity 0.4, n2 has 0.1, same structure (2-pin nets)
        assert powers[3] == pytest.approx(4 * powers[2])

    def test_power_eq4_prefactor(self, tiny_netlist, tech, model):
        metrics = manual_metrics(tiny_netlist)
        caps = model.net_capacitances(metrics)
        powers = model.net_powers(metrics)
        i = 1
        expected = (0.5 * tech.clock_frequency * tech.vdd ** 2
                    * tiny_netlist.nets[i].activity * caps[i])
        assert powers[i] == pytest.approx(expected)

    def test_zero_geometry_leaves_pin_power(self, tiny_netlist, model):
        metrics = manual_metrics(tiny_netlist, wl=0.0, ilv=0)
        powers = model.net_powers(metrics)
        assert np.all(powers > 0)  # input pin caps remain

    def test_total_power_from_placement(self, tiny_netlist, tech, chip4):
        model = PowerModel(tiny_netlist, tech)
        pl = Placement.random(tiny_netlist, chip4, seed=0)
        total = model.total_power(pl)
        metrics = compute_net_metrics(pl)
        assert total == pytest.approx(model.net_powers(metrics).sum())


class TestCellPower:
    def test_attribution_to_drivers(self, tiny_netlist, model):
        metrics = manual_metrics(tiny_netlist)
        powers = model.cell_powers(metrics)
        # c5 drives nothing
        assert powers[5] == 0.0
        # c0 drives only n0
        share = (model.s_wl[0] * metrics.wl[0]
                 + model.s_ilv[0] * metrics.ilv[0]
                 + model.s_input_pins[0])
        assert powers[0] == pytest.approx(share)

    def test_sum_of_cell_powers_equals_total(self, tiny_netlist, model):
        metrics = manual_metrics(tiny_netlist)
        cell_total = model.cell_powers(metrics).sum()
        net_total = model.net_powers(metrics).sum()
        assert cell_total == pytest.approx(net_total)

    def test_floors_raise_small_geometry(self, tiny_netlist, model):
        metrics = manual_metrics(tiny_netlist, wl=0.0, ilv=0)
        floors = model.peko_optimal(alpha_ilv=1e-5)
        floored = model.cell_powers(metrics, floors=floors)
        plain = model.cell_powers(metrics)
        assert np.all(floored >= plain - 1e-30)
        assert floored.sum() > plain.sum()

    def test_floors_do_not_lower_large_geometry(self, tiny_netlist,
                                                model):
        metrics = manual_metrics(tiny_netlist, wl=1.0, ilv=100)
        floors = model.peko_optimal(alpha_ilv=1e-5)
        assert np.allclose(model.cell_powers(metrics, floors=floors),
                           model.cell_powers(metrics))


class TestPekoOptimal:
    def test_formulas(self, tiny_netlist, model):
        alpha = 1e-5
        opt = model.peko_optimal(alpha)
        w = tiny_netlist.average_cell_width
        h = tiny_netlist.average_cell_height
        net = tiny_netlist.nets[0]
        side = (alpha * w * h * net.degree) ** (1.0 / 3.0)
        assert opt.wl_x[0] == pytest.approx(max(side - w, 0.0))
        assert opt.wl_y[0] == pytest.approx(max(side - h, 0.0))
        assert opt.ilv[0] == pytest.approx(max(side / alpha - 1.0, 0.0))

    def test_monotone_in_alpha(self, model):
        lo = model.peko_optimal(1e-6)
        hi = model.peko_optimal(1e-4)
        # costlier vias: optimal uses fewer vias, more wirelength
        assert np.all(hi.ilv <= lo.ilv + 1e-9)
        assert np.all(hi.wl_x >= lo.wl_x - 1e-12)

    def test_non_negative(self, model):
        opt = model.peko_optimal(5e-3)
        for arr in (opt.wl_x, opt.wl_y, opt.ilv):
            assert np.all(arr >= 0)

    def test_invalid_alpha(self, model):
        with pytest.raises(ValueError):
            model.peko_optimal(0.0)
