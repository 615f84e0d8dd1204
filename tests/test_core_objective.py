"""Unit tests for the incremental objective (Eq. 3)."""

import numpy as np
import pytest

from repro.core.config import PlacementConfig
from repro.core.objective import ObjectiveState, _median_interval_point
from repro.metrics.wirelength import compute_net_metrics
from repro.netlist.placement import Placement
from tests.conftest import make_chip


@pytest.fixture
def state(small_netlist, config):
    chip = make_chip(small_netlist)
    pl = Placement.random(small_netlist, chip, seed=1)
    return ObjectiveState(pl, config)


@pytest.fixture
def thermal_state(small_netlist, thermal_config):
    chip = make_chip(small_netlist)
    pl = Placement.random(small_netlist, chip, seed=1)
    return ObjectiveState(pl, thermal_config)


class TestTotal:
    def test_matches_metrics(self, state):
        m = compute_net_metrics(state.placement)
        expected = m.total_wl + state.alpha_ilv * m.total_ilv
        assert state.total == pytest.approx(expected)

    def test_thermal_term_added(self, small_netlist, thermal_config):
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=1)
        cold = ObjectiveState(
            pl.copy(), PlacementConfig(alpha_ilv=1e-5, alpha_temp=0.0,
                                       num_layers=4))
        hot = ObjectiveState(pl.copy(), thermal_config)
        assert hot.total > cold.total

    def test_wirelength_and_ilv_accessors(self, state):
        m = compute_net_metrics(state.placement)
        assert state.wirelength() == pytest.approx(m.total_wl)
        assert state.total_ilv() == m.total_ilv


class TestEvalMoves:
    def test_delta_matches_rebuild(self, state):
        pl = state.placement
        cid = 5
        move = (cid, float(pl.x[cid]) + 2e-6, float(pl.y[cid]), 0)
        delta = state.eval_moves([move])
        before = state.total
        state.apply_moves([move])
        assert state.total == pytest.approx(before + delta)
        state.check_consistency()

    def test_thermal_delta_matches_rebuild(self, thermal_state):
        pl = thermal_state.placement
        cid = 7
        move = (cid, float(pl.x[cid]), float(pl.y[cid]),
                (int(pl.z[cid]) + 2) % 4)
        before = thermal_state.total
        delta = thermal_state.eval_moves([move])
        thermal_state.apply_moves([move])
        assert thermal_state.total == pytest.approx(before + delta)
        thermal_state.check_consistency()

    def test_eval_does_not_mutate(self, state):
        pl = state.placement
        before_x = pl.x.copy()
        before_total = state.total
        state.eval_moves([(3, 1e-6, 1e-6, 2)])
        assert np.array_equal(pl.x, before_x)
        assert state.total == before_total

    def test_null_move_zero_delta(self, state):
        pl = state.placement
        cid = 2
        move = (cid, float(pl.x[cid]), float(pl.y[cid]), int(pl.z[cid]))
        assert state.eval_moves([move]) == pytest.approx(0.0)

    def test_joint_swap_delta(self, thermal_state):
        pl = thermal_state.placement
        a, b = 4, 9
        moves = [
            (a, float(pl.x[b]), float(pl.y[b]), int(pl.z[b])),
            (b, float(pl.x[a]), float(pl.y[a]), int(pl.z[a])),
        ]
        before = thermal_state.total
        delta = thermal_state.eval_moves(moves)
        thermal_state.apply_moves(moves)
        assert thermal_state.total == pytest.approx(before + delta)
        thermal_state.check_consistency()

    def test_duplicate_cell_rejected(self, state):
        with pytest.raises(ValueError):
            state.eval_moves([(1, 0, 0, 0), (1, 1e-6, 0, 0)])

    def test_move_then_reverse_is_neutral(self, thermal_state):
        pl = thermal_state.placement
        cid = 11
        orig = (cid, float(pl.x[cid]), float(pl.y[cid]), int(pl.z[cid]))
        before = thermal_state.total
        thermal_state.apply_moves([(cid, 2e-6, 3e-6, 1)])
        thermal_state.apply_moves([orig])
        assert thermal_state.total == pytest.approx(before, rel=1e-9)

    def test_many_random_moves_stay_consistent(self, thermal_state):
        rng = np.random.default_rng(0)
        pl = thermal_state.placement
        chip = pl.chip
        n = pl.netlist.num_cells
        for _ in range(100):
            cid = int(rng.integers(0, n))
            move = (cid, rng.uniform(0, chip.width),
                    rng.uniform(0, chip.height),
                    int(rng.integers(0, chip.num_layers)))
            delta = thermal_state.eval_moves([move])
            before = thermal_state.total
            applied = thermal_state.apply_moves([move])
            assert applied == pytest.approx(delta)
            assert thermal_state.total == pytest.approx(before + delta)
        thermal_state.check_consistency()


class TestPowerBookkeeping:
    def test_cell_power_matches_model(self, thermal_state):
        pl = thermal_state.placement
        pm = thermal_state.power_model
        metrics = compute_net_metrics(pl)
        expected = pm.cell_powers(metrics)
        for cid in range(pl.netlist.num_cells):
            assert thermal_state.cell_power(cid) == pytest.approx(
                expected[cid], abs=1e-20)

    def test_power_updates_with_wirelength(self, thermal_state):
        pl = thermal_state.placement
        nl = pl.netlist
        # find a driver cell and stretch one of its nets
        driver = None
        for net in nl.nets:
            if net.driver_ids and len(net.unique_cell_ids) > 1:
                driver = net.driver_ids[0]
                sink = [c for c in net.unique_cell_ids
                        if c != driver][0]
                break
        p_before = thermal_state.cell_power(driver)
        thermal_state.apply_moves([(sink, 0.0, 0.0, 0)])
        thermal_state.apply_moves([
            (sink, pl.chip.width, pl.chip.height, pl.chip.num_layers - 1)])
        assert thermal_state.cell_power(driver) > p_before


class TestOptimalRegion:
    def test_two_pin_net_center(self, tiny_netlist, config, chip4):
        pl = Placement.at_center(tiny_netlist, chip4)
        pl.x[:] = [0, 10e-6, 20e-6, 30e-6, 40e-6, 50e-6]
        pl.y[:] = 0.0
        pl.z[:] = 0
        state = ObjectiveState(pl, config)
        # c5 connects only to c4 via n3: optimal spot is exactly at c4
        ox, oy, oz = state.optimal_region_center(5)
        assert ox == pytest.approx(40e-6)
        assert oz == 0

    def test_isolated_cell_stays(self, tiny_netlist, config, chip4):
        tiny_netlist.add_cell("lonely", 1e-6, 1e-6)
        pl = Placement.at_center(tiny_netlist, chip4)
        state = ObjectiveState(pl, config)
        cid = tiny_netlist.cell("lonely").id
        ox, oy, oz = state.optimal_region_center(cid)
        assert ox == pytest.approx(pl.x[cid])

    def test_median_interval_point(self):
        assert _median_interval_point([0.0], [2.0]) == pytest.approx(1.0)
        assert _median_interval_point([0, 4], [2, 6]) == pytest.approx(3.0)
        # three intervals: the middle one wins
        assert _median_interval_point([0, 10, 20], [1, 11, 21]) == \
            pytest.approx(10.5)
