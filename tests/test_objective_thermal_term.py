"""Quantitative checks of the objective's thermal term (Eq. 3 vs Eq. 2).

These tests pin the *semantics* of the thermal term: it must equal
``alpha_temp * sum_j R_j(layer_j) * P_j`` with the documented R and P
definitions, and its move deltas must price layer changes by the
resistance profile.
"""

import pytest

from repro.core.config import PlacementConfig
from repro.core.objective import ObjectiveState
from repro.metrics.wirelength import compute_net_metrics
from repro.netlist.placement import Placement
from repro.thermal.power import PowerModel
from tests.conftest import make_chip


@pytest.fixture
def state(small_netlist):
    config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=1e-4,
                             num_layers=4, seed=0)
    chip = make_chip(small_netlist)
    pl = Placement.random(small_netlist, chip, seed=6)
    return ObjectiveState(pl, config), config


class TestThermalTermSemantics:
    def test_total_decomposition(self, state):
        obj, config = state
        pl = obj.placement
        metrics = compute_net_metrics(pl)
        net_term = metrics.total_wl + config.alpha_ilv * metrics.total_ilv
        thermal = obj.total - net_term
        # recompute sum R_j P_j from the documented pieces
        pm = PowerModel(pl.netlist, config.tech)
        powers = pm.cell_powers(metrics)
        expected = 0.0
        for cid in range(pl.netlist.num_cells):
            expected += obj.cell_resistance(cid) * powers[cid]
        assert thermal == pytest.approx(config.alpha_temp * expected,
                                        rel=1e-9)

    def test_layer_move_priced_by_resistance_profile(self, state):
        obj, config = state
        pl = obj.placement
        # pick a driving cell on layer 0 with nonzero power
        cid = max(range(pl.netlist.num_cells),
                  key=lambda c: obj.cell_power(c))
        obj.apply_moves([(cid, float(pl.x[cid]), float(pl.y[cid]), 0)])
        p = obj.cell_power(cid)
        r0 = obj.cell_resistance(cid, 0)
        r3 = obj.cell_resistance(cid, 3)
        delta = obj.eval_moves([(cid, float(pl.x[cid]),
                                 float(pl.y[cid]), 3)])
        # the thermal part of the delta is a_temp * P * (R3 - R0); the
        # rest is the via/WL change of the cell's nets
        metrics_part = delta - config.alpha_temp * p * (r3 - r0)
        # via term must explain the remainder: recompute explicitly
        before = obj.total
        obj.apply_moves([(cid, float(pl.x[cid]), float(pl.y[cid]), 3)])
        assert obj.total == pytest.approx(before + delta, rel=1e-12)
        # moving a hot cell up must cost thermal-wise
        assert config.alpha_temp * p * (r3 - r0) > 0

    def test_higher_alpha_temp_scales_term(self, small_netlist):
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=6)
        metrics = compute_net_metrics(pl)
        totals = {}
        for at in (1e-5, 2e-5):
            config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=at,
                                     num_layers=4, seed=0)
            totals[at] = ObjectiveState(pl.copy(), config).total
        net_term = metrics.total_wl + 1e-5 * metrics.total_ilv
        t1 = totals[1e-5] - net_term
        t2 = totals[2e-5] - net_term
        assert t2 == pytest.approx(2 * t1, rel=1e-9)

    def test_resistance_profile_monotone(self, state):
        obj, _ = state
        cid = 0
        rs = [obj.cell_resistance(cid, z) for z in range(4)]
        assert rs == sorted(rs)
