"""Unit tests for row-aware cell shifting (Section 4.1)."""

import numpy as np
import pytest

import repro.core.cellshift as cellshift_module
from repro.core.cellshift import (BETA_CANDIDATES, MAX_DENSITY, CellShifter,
                                  shifted_widths)
from repro.core.objective import ObjectiveState
from repro.netlist.placement import Placement
from tests.conftest import make_chip

PARAMS = dict(a_lower=0.5, a_upper=1.0, b=1.0)


class TestShiftedWidths:
    def test_row_without_congestion_untouched(self):
        w = shifted_widths([0.2, 0.9, 1.0, 0.5], 2.0, **PARAMS)
        assert np.allclose(w, 2.0)

    def test_total_width_conserved(self):
        d = [0.1, 2.5, 1.4, 0.0, 0.8]
        w = shifted_widths(d, 3.0, **PARAMS)
        assert w.sum() == pytest.approx(15.0)

    def test_congested_bins_expand(self):
        d = [0.5, 2.0, 0.5]
        w = shifted_widths(d, 1.0, **PARAMS)
        assert w[1] > 1.0
        assert w[0] < 1.0 and w[2] < 1.0

    def test_widths_strictly_positive(self):
        d = [0.0, 0.0, 10.0, 0.0, 0.0]
        w = shifted_widths(d, 1.0, **PARAMS)
        assert np.all(w > 0)

    def test_no_crossover_boundaries_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.uniform(0, 3, 10)
            w = shifted_widths(d, 1.0, **PARAMS)
            bounds = np.concatenate(([0.0], np.cumsum(w)))
            assert np.all(np.diff(bounds) > 0)

    def test_sparse_contract_only_as_needed(self):
        # one slightly congested bin among many empties: empties must
        # NOT contract to their minimum, only enough to feed the need
        d = [1.05] + [0.0] * 9
        w = shifted_widths(d, 1.0, **PARAMS)
        assert w[1] > 0.9  # barely touched

    def test_expansion_capped_by_availability(self):
        # massive congestion, one small donor
        d = [5.0, 0.9]
        w = shifted_widths(d, 1.0, **PARAMS)
        assert w.sum() == pytest.approx(2.0)
        assert w[1] >= 0.1

    def test_higher_density_wider_bin(self):
        d = [1.2, 3.0, 0.0, 0.0]
        w = shifted_widths(d, 1.0, **PARAMS)
        assert w[1] > w[0] > 1.0


class TestCellShifter:
    def make(self, netlist, config, concentrate=True, seed=0):
        chip = make_chip(netlist, num_layers=config.num_layers)
        pl = Placement.random(netlist, chip, seed=seed)
        if concentrate:
            pl.x[:] = 0.25 * chip.width + 0.1 * pl.x
            pl.y[:] = 0.25 * chip.height + 0.1 * pl.y
        obj = ObjectiveState(pl, config)
        return CellShifter(obj)

    def test_reduces_max_density(self, small_netlist, config):
        shifter = self.make(small_netlist, config)
        shifter._rebuild_mesh()
        before = shifter.mesh.max_density
        shifter.run()
        shifter._rebuild_mesh()
        assert shifter.mesh.max_density < before

    def test_removes_most_overflow(self, small_netlist, config):
        shifter = self.make(small_netlist, config)
        shifter._rebuild_mesh()
        before = shifter.mesh.overflow(MAX_DENSITY)
        shifter.run()
        shifter._rebuild_mesh()
        after = shifter.mesh.overflow(MAX_DENSITY)
        # most overflow gone; a residue is irreducible by shifting when
        # single cells are wider than a bin (centre-point binning)
        assert after < 0.35 * before

    def test_converged_placement_stops_quickly(self, small_netlist,
                                               config):
        shifter = self.make(small_netlist, config)
        shifter.run()
        iterations = shifter.run()
        # at the target (0 iterations) or stalls out within a few
        assert iterations <= 6

    def test_cells_stay_inside_chip(self, small_netlist, config):
        shifter = self.make(small_netlist, config)
        shifter.run()
        pl = shifter.objective.placement
        chip = pl.chip
        assert np.all((pl.x >= 0) & (pl.x <= chip.width))
        assert np.all((pl.y >= 0) & (pl.y <= chip.height))
        assert np.all((pl.z >= 0) & (pl.z < chip.num_layers))

    def test_objective_state_stays_consistent(self, small_netlist,
                                              config, monkeypatch):
        monkeypatch.setattr(cellshift_module, "MAX_ITERATIONS", 3)
        shifter = self.make(small_netlist, config)
        shifter.run()
        shifter.objective.check_consistency()

    def test_z_rebalances_layers(self, small_netlist, config):
        chip = make_chip(small_netlist, num_layers=config.num_layers)
        pl = Placement.random(small_netlist, chip, seed=1)
        pl.z[:] = 0  # everything on the bottom layer
        obj = ObjectiveState(pl, config)
        shifter = CellShifter(obj)
        shifter.run()
        populated = len(set(pl.z.tolist()))
        assert populated >= 2

    def test_beta_candidates_shape(self):
        assert all(0 < b <= 1 for b in BETA_CANDIDATES)
        assert 1.0 in BETA_CANDIDATES
