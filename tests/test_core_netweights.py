"""Unit tests for thermal net weighting (Eq. 8) and TRR nets (Eq. 12)."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import PlacementConfig
from repro.core.globalplace import GlobalPlacer, Region
from repro.core.netweights import compute_net_weights
from repro.core.trrnets import compute_trr_weights
from repro.netlist.net import PinRole
from repro.netlist.placement import Placement
from repro.thermal.power import PowerModel
from tests.conftest import make_chip


@pytest.fixture
def setup(small_netlist, thermal_config):
    chip = make_chip(small_netlist)
    pl = Placement.random(small_netlist, chip, seed=2)
    pm = PowerModel(small_netlist, thermal_config.tech)
    return pl, pm


class TestNetWeights:
    def test_all_ones_when_thermal_off(self, setup, config):
        pl, pm = setup
        w = compute_net_weights(pl, config, pm)
        assert np.all(w.lateral == 1.0)
        assert np.all(w.vertical == 1.0)

    def test_all_ones_when_mechanism_disabled(self, setup):
        pl, pm = setup
        cfg = PlacementConfig(alpha_ilv=1e-5, alpha_temp=1e-4,
                              use_thermal_net_weights=False)
        w = compute_net_weights(pl, cfg, pm)
        assert np.all(w.lateral == 1.0)

    def test_weights_at_least_one(self, setup, thermal_config):
        pl, pm = setup
        w = compute_net_weights(pl, thermal_config, pm)
        assert np.all(w.lateral >= 1.0)
        assert np.all(w.vertical >= 1.0)
        assert w.lateral.max() > 1.0

    def test_eq8_formula(self, setup, thermal_config):
        pl, pm = setup
        from repro.thermal.resistance import ResistanceModel
        rm = ResistanceModel(pl.chip, thermal_config.tech)
        w = compute_net_weights(pl, thermal_config, pm, rm)
        nl = pl.netlist
        net = nl.nets[0]
        r_net = sum(
            rm.cell_resistance(float(pl.x[d]), float(pl.y[d]),
                               int(pl.z[d]), float(nl.areas[d]))
            for d in net.driver_ids)
        at = thermal_config.alpha_temp
        assert w.lateral[0] == pytest.approx(
            1.0 + at * r_net * pm.s_wl[0])
        assert w.vertical[0] == pytest.approx(
            1.0 + at * r_net * pm.s_ilv[0] / thermal_config.alpha_ilv)

    def test_higher_driver_layer_higher_weight(self, setup,
                                               thermal_config):
        pl, pm = setup
        nl = pl.netlist
        net = nl.nets[0]
        driver = net.driver_ids[0]
        pl.z[driver] = 0
        low = compute_net_weights(pl, thermal_config, pm)
        pl.z[driver] = 3
        high = compute_net_weights(pl, thermal_config, pm)
        assert high.lateral[0] > low.lateral[0]

    def test_scales_with_alpha_temp(self, setup):
        pl, pm = setup
        w1 = compute_net_weights(
            pl, PlacementConfig(alpha_ilv=1e-5, alpha_temp=1e-5), pm)
        w2 = compute_net_weights(
            pl, PlacementConfig(alpha_ilv=1e-5, alpha_temp=2e-5), pm)
        excess1 = w1.lateral - 1.0
        excess2 = w2.lateral - 1.0
        assert np.allclose(excess2, 2 * excess1, rtol=1e-9)


def _z_task(netlist, config):
    """The bisection task of a region holding every movable cell that
    can only be cut in z, plus the TRR weights it was built from."""
    chip = make_chip(netlist, num_layers=config.num_layers)
    placer = GlobalPlacer(Placement.at_center(netlist, chip), config)
    placer._refresh_weights()
    region = Region(netlist.movable_ids.tolist(), 0.0, 1e-12, 0.0, 1e-12,
                    0, config.num_layers - 1)
    return placer._build_task(region), placer._trr_w


def _task_trr_nets(netlist, config):
    """Pin lists the TRR nets add to the z-cut task, and its weights."""
    task, trr_w = _z_task(netlist, config)
    plain, _ = _z_task(netlist, dataclasses.replace(config,
                                                    use_trr_nets=False))
    # TRR nets are appended after the unchanged signal nets
    signal_pins = int(plain.net_ptr[-1])
    np.testing.assert_array_equal(task.pin_vertices[:signal_pins],
                                  plain.pin_vertices)
    np.testing.assert_array_equal(task.net_weights[:plain.num_nets],
                                  plain.net_weights)
    ptr = task.net_ptr[plain.num_nets:].tolist()
    nets = [task.pin_vertices[a:b].tolist()
            for a, b in zip(ptr[:-1], ptr[1:])]
    return nets, task, trr_w


class TestTrrNets:
    """TRR nets live only in z-cut bisection tasks, never the netlist."""

    def test_one_per_movable_cell(self, small_netlist, thermal_config):
        nets, task, trr_w = _task_trr_nets(small_netlist, thermal_config)
        movable = small_netlist.movable_ids.tolist()
        weighted = [i for i, cid in enumerate(movable) if trr_w[cid] > 0]
        assert weighted
        # each ties its cell to the terminal of the bottom part
        bottom = int(np.flatnonzero(task.fixed == 0)[0])
        assert nets == [[i, bottom] for i in weighted]

    def test_idempotent(self, small_netlist, thermal_config):
        nets_before = small_netlist.num_nets
        first, _ = _z_task(small_netlist, thermal_config)
        second, _ = _z_task(small_netlist, thermal_config)
        assert small_netlist.num_nets == nets_before
        np.testing.assert_array_equal(first.net_ptr, second.net_ptr)
        np.testing.assert_array_equal(first.pin_vertices,
                                      second.pin_vertices)
        np.testing.assert_array_equal(first.net_weights,
                                      second.net_weights)

    def test_fixed_cells_skipped(self, small_netlist, thermal_config):
        pad = small_netlist.add_cell("pad", 1e-6, 1e-6, fixed=True,
                                     fixed_position=(0.0, 0.0, 0))
        small_netlist.add_net("pad_out", [(pad.id, PinRole.DRIVER),
                                          (0, PinRole.SINK)])
        nets, _, trr_w = _task_trr_nets(small_netlist, thermal_config)
        # the pad drives a net, so it has a TRR weight, but no TRR net
        assert trr_w[pad.id] > 0
        movable = small_netlist.movable_ids.tolist()
        assert len(nets) == sum(1 for cid in movable if trr_w[cid] > 0)


class TestTrrWeights:
    def test_zero_when_disabled(self, setup, config):
        pl, pm = setup
        assert np.all(compute_trr_weights(pl, config, pm) == 0.0)
        cfg = PlacementConfig(alpha_ilv=1e-5, alpha_temp=1e-4,
                              use_trr_nets=False)
        assert np.all(compute_trr_weights(pl, cfg, pm) == 0.0)

    def test_positive_for_driving_cells(self, setup, thermal_config):
        pl, pm = setup
        w = compute_trr_weights(pl, thermal_config, pm)
        assert w.shape == (pl.netlist.num_cells,)
        assert w.max() > 0
        # cells that drive nothing have zero attributed power -> zero
        nondrivers = [c.id for c in pl.netlist.cells
                      if not pl.netlist.driven_nets_of_cell(c.id)]
        if nondrivers:
            assert np.all(w[nondrivers] == 0.0)

    def test_eq12_scaling(self, setup):
        pl, pm = setup
        w1 = compute_trr_weights(
            pl, PlacementConfig(alpha_ilv=1e-5, alpha_temp=1e-5), pm)
        w2 = compute_trr_weights(
            pl, PlacementConfig(alpha_ilv=1e-5, alpha_temp=3e-5), pm)
        assert np.allclose(w2, 3 * w1, rtol=1e-9)

    def test_floors_make_weights_nonzero_at_center(self, small_netlist,
                                                   thermal_config):
        """At the start of placement everything is at the chip centre
        (zero WL/ILV); the PEKO floors must still produce pull."""
        chip = make_chip(small_netlist)
        pl = Placement.at_center(small_netlist, chip)
        pm = PowerModel(small_netlist, thermal_config.tech)
        w = compute_trr_weights(pl, thermal_config, pm)
        assert w.max() > 0
