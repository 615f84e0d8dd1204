"""Unit tests for legality-preserving post-optimization."""

import numpy as np
import pytest

from repro.core.config import PlacementConfig
from repro.core.detailed import DetailedLegalizer, check_legal
from repro.core.objective import ObjectiveState
from repro.core.refine import LegalRefiner
from repro.netlist.placement import Placement
from tests.conftest import make_chip


@pytest.fixture
def legal_state(small_netlist, config):
    chip = make_chip(small_netlist)
    pl = Placement.random(small_netlist, chip, seed=8)
    obj = ObjectiveState(pl, config)
    DetailedLegalizer(obj, config).run()
    check_legal(pl)
    return obj


class TestLegalRefiner:
    def test_never_worsens_objective(self, legal_state, config):
        before = legal_state.total
        LegalRefiner(legal_state, config).run()
        assert legal_state.total <= before + 1e-15

    def test_placement_stays_legal(self, legal_state, config):
        LegalRefiner(legal_state, config).run(passes=3)
        check_legal(legal_state.placement)

    def test_objective_caches_consistent(self, legal_state, config):
        LegalRefiner(legal_state, config).run()
        legal_state.check_consistency()

    def test_usually_improves_random_legalization(self, legal_state,
                                                  config):
        before = legal_state.total
        ops = LegalRefiner(legal_state, config).run()
        # a straight-from-random legalization has plenty of slack
        assert ops > 0
        assert legal_state.total < before

    def test_converges_to_fixpoint(self, legal_state, config):
        refiner = LegalRefiner(legal_state, config)
        refiner.run(passes=4)
        # another full pass over the converged placement finds little
        ops = refiner.run(passes=1)
        after = legal_state.total
        refiner.run(passes=1)
        assert legal_state.total <= after

    def test_thermal_objective_refinement(self, small_netlist,
                                          thermal_config):
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=9)
        obj = ObjectiveState(pl, thermal_config)
        DetailedLegalizer(obj, thermal_config).run()
        before = obj.total
        LegalRefiner(obj, thermal_config).run()
        assert obj.total <= before + 1e-15
        check_legal(pl)
        obj.check_consistency()

    def test_deterministic(self, small_netlist, config):
        results = []
        for _ in range(2):
            chip = make_chip(small_netlist)
            pl = Placement.random(small_netlist, chip, seed=8)
            obj = ObjectiveState(pl, config)
            DetailedLegalizer(obj, config).run()
            LegalRefiner(obj, config).run()
            results.append((pl.x.copy(), pl.z.copy()))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])


class TestPlacerIntegration:
    def test_refine_stage_recorded(self, small_netlist, config):
        from repro.core.placer import Placer3D
        result = Placer3D(small_netlist, config).run()
        assert "refine" in result.stage_seconds

    def test_refine_disabled(self, small_netlist):
        from repro.core.placer import Placer3D
        config = PlacementConfig(alpha_ilv=1e-5, seed=0, refine_passes=0)
        result = Placer3D(small_netlist, config).run()
        assert "refine" not in result.stage_seconds

    def test_refine_does_not_hurt(self, small_netlist):
        from repro.core.placer import Placer3D
        off = Placer3D(small_netlist, PlacementConfig(
            alpha_ilv=1e-5, seed=0, refine_passes=0)).run()
        on = Placer3D(small_netlist, PlacementConfig(
            alpha_ilv=1e-5, seed=0, refine_passes=2)).run()
        assert on.objective <= off.objective + 1e-15
