"""Unit tests for detailed legalization (Section 5)."""

import numpy as np
import pytest

from repro.core.detailed import (
    DetailedLegalizer,
    RowSegments,
    check_legal,
)
from repro.core.objective import ObjectiveState
from repro.netlist.placement import Placement
from tests.conftest import make_chip


@pytest.fixture
def segments(small_netlist):
    chip = make_chip(small_netlist)
    pl = Placement.at_center(small_netlist, chip)
    return RowSegments(pl), chip


class TestRowSegments:
    def test_insert_and_occupants(self, segments):
        segs, chip = segments
        segs.insert(0, 0, 7, 5e-6, 2e-6)
        segs.insert(0, 0, 9, 1e-6, 1e-6)
        assert segs.occupants(0, 0) == [9, 7]

    def test_overlap_rejected(self, segments):
        segs, chip = segments
        segs.insert(0, 0, 1, 5e-6, 2e-6)
        with pytest.raises(ValueError):
            segs.insert(0, 0, 2, 5.5e-6, 2e-6)

    def test_touching_allowed(self, segments):
        segs, chip = segments
        segs.insert(0, 0, 1, 5e-6, 2e-6)
        segs.insert(0, 0, 2, 7e-6, 2e-6)  # starts exactly where 1 ends

    def test_nearest_slot_empty_row(self, segments):
        segs, chip = segments
        slot = segs.nearest_slot(0, 0, 5e-6, 2e-6)
        assert slot == pytest.approx(5e-6)

    def test_nearest_slot_clamps_to_row(self, segments):
        segs, chip = segments
        slot = segs.nearest_slot(0, 0, 0.0, 2e-6)
        assert slot == pytest.approx(1e-6)  # half the width from edge

    def test_nearest_slot_avoids_occupied(self, segments):
        segs, chip = segments
        segs.insert(0, 0, 1, 5e-6, 4e-6)  # occupies [3,7]um
        slot = segs.nearest_slot(0, 0, 5e-6, 2e-6)
        assert slot is not None
        lo, hi = slot - 1e-6, slot + 1e-6
        assert hi <= 3e-6 + 1e-12 or lo >= 7e-6 - 1e-12

    def test_no_slot_when_too_wide(self, segments):
        segs, chip = segments
        assert segs.nearest_slot(0, 0, 0.0, 2 * chip.width) is None

    def test_free_width(self, segments):
        segs, chip = segments
        assert segs.free_width(0, 0) == pytest.approx(chip.width)
        segs.insert(0, 0, 1, 5e-6, 2e-6)
        assert segs.free_width(0, 0) == pytest.approx(chip.width - 2e-6)


class TestPushPlan:
    def test_push_when_no_gap(self, segments):
        segs, chip = segments
        w = chip.width
        # fill the middle of the row with back-to-back cells
        segs.insert(0, 0, 1, 0.3 * w, 0.2 * w)
        segs.insert(0, 0, 2, 0.5 * w, 0.2 * w)
        plan = segs.push_plan(0, 0, 0.4 * w, 0.2 * w)
        assert plan is not None
        center, displaced = plan
        assert displaced  # someone must move

    def test_push_apply_keeps_legal(self, segments):
        segs, chip = segments
        w = chip.width
        segs.insert(0, 0, 1, 0.3 * w, 0.2 * w)
        segs.insert(0, 0, 2, 0.5 * w, 0.2 * w)
        plan = segs.push_plan(0, 0, 0.4 * w, 0.2 * w)
        center, displaced = plan
        segs.apply_push(0, 0, 3, center, 0.2 * w, displaced, None)
        starts = segs._starts[(0, 0)]
        ends = segs._ends[(0, 0)]
        for (s1, e1), (s2, e2) in zip(zip(starts, ends),
                                      zip(starts[1:], ends[1:])):
            assert e1 <= s2 + 1e-12
        assert starts[0] >= -1e-12
        assert ends[-1] <= w + 1e-12

    def test_push_refused_when_row_full(self, segments):
        segs, chip = segments
        w = chip.width
        segs.insert(0, 0, 1, 0.5 * w, 0.95 * w)
        assert segs.push_plan(0, 0, 0.5 * w, 0.1 * w) is None


class TestLegalizer:
    def run_legalizer(self, netlist, config, seed=5):
        chip = make_chip(netlist, num_layers=config.num_layers)
        pl = Placement.random(netlist, chip, seed=seed)
        obj = ObjectiveState(pl, config)
        DetailedLegalizer(obj, config).run()
        return pl, obj

    def test_result_is_legal(self, small_netlist, config):
        pl, _ = self.run_legalizer(small_netlist, config)
        check_legal(pl)

    def test_objective_consistent(self, small_netlist, config):
        _, obj = self.run_legalizer(small_netlist, config)
        obj.check_consistency()

    def test_legal_under_thermal_objective(self, small_netlist,
                                           thermal_config):
        pl, _ = self.run_legalizer(small_netlist, thermal_config)
        check_legal(pl)

    def test_medium_netlist_legalizes(self, medium_netlist, config):
        pl, _ = self.run_legalizer(medium_netlist, config)
        check_legal(pl)

    def test_displacement_is_bounded(self, small_netlist, config):
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=6)
        before = pl.copy()
        obj = ObjectiveState(pl, config)
        DetailedLegalizer(obj, config).run()
        disp = np.hypot(pl.x - before.x, pl.y - before.y)
        assert np.median(disp) < 0.3 * chip.width

    def test_processing_order_covers_all_movable(self, small_netlist,
                                                 config):
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=5)
        obj = ObjectiveState(pl, config)
        legalizer = DetailedLegalizer(obj, config)
        order = legalizer._processing_order()
        assert sorted(order) == [c.id for c in small_netlist.cells
                                 if c.movable]

    def test_wide_cells_processed_first(self, small_netlist, config):
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=5)
        obj = ObjectiveState(pl, config)
        legalizer = DetailedLegalizer(obj, config)
        order = legalizer._processing_order()
        widths = small_netlist.widths
        cutoff = 3.0 * small_netlist.average_cell_width
        wide = [c for c in order if widths[c] > cutoff]
        if wide:
            k = len(wide)
            assert order[:k] == wide


class TestCheckLegal:
    def test_detects_overlap(self, small_netlist, config):
        chip = make_chip(small_netlist)
        pl = Placement.at_center(small_netlist, chip)
        pl.y[:] = 0.5 * chip.row_height
        pl.z[:] = 0
        with pytest.raises(AssertionError):
            check_legal(pl)

    def test_detects_off_row(self, small_netlist, config):
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=1)
        obj = ObjectiveState(pl, config)
        DetailedLegalizer(obj, config).run()
        pl.y[0] += 0.3 * chip.row_height
        with pytest.raises(AssertionError):
            check_legal(pl)

    def test_detects_outside_die(self, small_netlist, config):
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=1)
        obj = ObjectiveState(pl, config)
        DetailedLegalizer(obj, config).run()
        pl.x[0] = -1e-6
        with pytest.raises(AssertionError):
            check_legal(pl)
