"""Unit tests for detailed legalization (Section 5)."""

import re

import numpy as np
import pytest

from repro.core.detailed import (
    DetailedLegalizer,
    RowSegments,
    check_legal,
)
from repro.core.objective import ObjectiveState
from repro.geometry.chip import ChipGeometry
from repro.geometry.density import DensityMesh
from repro.netlist.net import PinRole
from repro.netlist.netlist import Netlist
from repro.netlist.placement import Placement
from tests.conftest import group_by_bin, make_chip


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

    def test_overlap_rejected(self, segments, small_netlist):
        segs, chip = segments
        name = [re.escape(c.name) for c in small_netlist.cells]
        segs.insert(0, 0, 1, 5e-6, 2e-6)  # occupies [4,6]um
        # the new interval overlaps its predecessor ...
        with pytest.raises(ValueError, match=(
                rf"^overlap in layer 0 row 0: cell {name[2]} overlaps "
                rf"cell {name[1]}$")):
            segs.insert(0, 0, 2, 5.5e-6, 2e-6)
        # ... or its successor
        with pytest.raises(ValueError, match=(
                rf"^overlap in layer 0 row 0: cell {name[3]} overlaps "
                rf"cell {name[1]}$")):
            segs.insert(0, 0, 3, 4.5e-6, 2e-6)

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


def _reference_order(legalizer):
    """The former processing order, kept as the reference: a loop over
    the occupied bins of the fine mesh (grouped test-locally) and one
    sort key per cell."""
    placement = legalizer.placement
    netlist = legalizer.netlist
    mesh = DensityMesh.fine_for(legalizer.chip, netlist.average_cell_width,
                                netlist.average_cell_height)
    mesh.build_from_placement(placement, netlist.areas)
    groups = group_by_bin(placement, mesh)
    capacity = mesh.bin_capacity
    overfull, underfull = [], []
    for index in groups:
        excess = mesh.area_in(index) - capacity
        if excess > 0:
            overfull.append((-excess, index))
        else:
            underfull.append((excess, index))
    overfull.sort()
    underfull.sort()
    bin_rank = {index: rank for rank, (_, index)
                in enumerate(overfull + underfull)}
    cell_bin = {cid: index for index, ids in groups.items()
                for cid in ids}
    sensitivity = legalizer._sensitivities()
    cells = [c.id for c in netlist.cells if c.movable]
    widths = netlist.widths
    cutoff = 3.0 * netlist.average_cell_width
    wide = sorted((c for c in cells if widths[c] > cutoff),
                  key=lambda c: -float(widths[c]))
    rest = [c for c in cells if widths[c] <= cutoff]
    return wide + sorted(rest, key=lambda c: (bin_rank[cell_bin[c]],
                                              -sensitivity[c]))


@pytest.fixture(scope="module")
def coarse_legalized():
    """``state(layers, alpha_temp)``: ibm01 at scale 0.03 after global
    placement, a global and a local move/swap pass and cell shifting."""
    from repro import PlacementConfig, load_benchmark
    from repro.core.cellshift import CellShifter
    from repro.core.globalplace import GlobalPlacer
    from repro.core.moves import MoveOptimizer
    netlist = load_benchmark("ibm01", scale=0.03)

    def state(layers, alpha_temp):
        config = PlacementConfig(num_layers=layers, alpha_temp=alpha_temp)
        pl = Placement.at_center(netlist,
                                 make_chip(netlist, num_layers=layers))
        GlobalPlacer(pl, config).run()
        obj = ObjectiveState(pl, config)
        moves = MoveOptimizer(obj, config)
        moves.global_pass()
        moves.local_pass()
        CellShifter(obj).run()
        return obj, config

    return state


class TestProcessingOrder:
    """The one-lexsort ranking orders cells as the former per-bin loop
    and per-cell sort key did."""

    @pytest.mark.parametrize("layers", [1, 2, 4])
    @pytest.mark.parametrize("alpha_temp", [0.0, 5.2e-3])
    def test_matches_reference(self, coarse_legalized, layers,
                               alpha_temp):
        legalizer = DetailedLegalizer(*coarse_legalized(layers,
                                                        alpha_temp))
        order = legalizer._processing_order()
        assert order == _reference_order(legalizer)
        assert all(type(c) is int for c in order)

    def test_hand_built_ties(self, config):
        # Fine bins are one average cell (23/7 um) wide and 1 um tall.
        # The wide cell w fills its own bin; c+d and a+b fill two bins
        # with exactly equal excess, so the lower bin index (2, 3, 0)
        # goes first; b has more nets than a; c and d have equal
        # sensitivity, so id order decides; e's bin is emptier than
        # f's, so e goes first although f's bin index is lower.
        um = 1e-6
        cells = {"w": (12, 7), "a": (2, 5), "b": (2, 5), "c": (2, 2),
                 "d": (2, 2), "f": (2, 1), "e": (1, 9)}
        rows = {"w": 0, "a": 1, "b": 1, "c": 3, "d": 3, "f": 0, "e": 0}
        netlist = Netlist("ties")
        for name, (width, _) in cells.items():
            netlist.add_cell(name, width * um, um)
        ids = {c.name: c.id for c in netlist.cells}
        for k, (u, v) in enumerate([("a", "b"), ("b", "c"), ("b", "d")]):
            netlist.add_net(f"n{k}", [(ids[u], PinRole.DRIVER),
                                      (ids[v], PinRole.SINK)])
        chip = ChipGeometry(width=10 * (23 / 7) * um, height=4 * um,
                            num_layers=1, row_height=um, row_pitch=um)
        mesh = DensityMesh.fine_for(chip, netlist.average_cell_width,
                                    netlist.average_cell_height)
        assert (mesh.nx, mesh.ny) == (10, 4)
        bin_w = mesh.bin_width
        pl = Placement(
            netlist, chip,
            x=[(cells[c.name][1] + 0.5) * bin_w for c in netlist.cells],
            y=[(rows[c.name] + 0.5) * um for c in netlist.cells],
            z=[0] * netlist.num_cells)
        legalizer = DetailedLegalizer(ObjectiveState(pl, config), config)
        want = [ids[name] for name in "wcdbaef"]
        assert legalizer._processing_order() == want
        assert _reference_order(legalizer) == want


def _search_per_shell(legalizer, cid, width, x0, z0, row0, segments):
    """The former shell-by-shell search, kept as the reference: each
    shell's free-gap candidates scored in one batched call as the shell
    is reached, a strict "<" scan in (layer, row) order, and a stop one
    radius after the first shell holding a candidate."""
    chip = legalizer.chip
    n_rows = chip.rows_per_layer
    layers = sorted(range(chip.num_layers), key=lambda z: abs(z - z0))
    best = None
    found_radius = None
    radius = 0
    while radius < n_rows:
        rows = [r for r in (row0 - radius, row0 + radius)
                if 0 <= r < n_rows]
        if radius == 0:
            rows = rows[:1]
        shell = []
        gap_idx = []
        for layer in layers:
            for row in rows:
                slot = segments.nearest_slot(layer, row, x0, width)
                if slot is not None:
                    gap_idx.append(len(shell))
                    shell.append([None, slot, chip.row_y(row), layer, row,
                                  None])
                else:
                    cand = legalizer._evaluate_push(cid, width, x0, layer,
                                                    row, segments)
                    if cand is not None:
                        shell.append(list(cand))
        if gap_idx:
            deltas = legalizer.objective.eval_moves_batch(
                [cid] * len(gap_idx), [shell[k][1] for k in gap_idx],
                [shell[k][2] for k in gap_idx],
                [shell[k][3] for k in gap_idx])
            for k, delta in zip(gap_idx, deltas):
                shell[k][0] = float(delta)
        for cand in shell:
            if best is None or cand[0] < best[0]:
                best = tuple(cand)
        if best is not None and found_radius is None:
            found_radius = radius
        if found_radius is not None and radius >= found_radius + 1:
            break
        radius += 1
    return best


def _search_bits(found):
    """A search result with its floats as IEEE-754 bit patterns."""
    if found is None:
        return None
    delta, x, y, z, row, plan = found
    return (float(delta).hex(), float(x).hex(), float(y).hex(), int(z),
            int(row), None if plan is None
            else [(int(c), float(px).hex()) for c, px in plan])


class TestSearchReference:
    """Collecting the searched shells first and scoring their gap
    candidates in one call picks what the shell-by-shell search did,
    for every cell of a detailed legalization."""

    @pytest.mark.parametrize("layers,alpha_temp",
                             [(1, 0.0), (4, 0.0), (4, 5.2e-3)])
    def test_search_matches_reference(self, coarse_legalized, layers,
                                      alpha_temp):
        legalizer = DetailedLegalizer(*coarse_legalized(layers,
                                                        alpha_temp))
        search = legalizer._search
        pushes = []

        def checked(cid, width, x0, z0, row0, segments):
            got = search(cid, width, x0, z0, row0, segments)
            want = _search_per_shell(legalizer, cid, width, x0, z0, row0,
                                     segments)
            assert _search_bits(got) == _search_bits(want)
            pushes.append(got[5] is not None)
            return got

        legalizer._search = checked
        legalizer.run()
        check_legal(legalizer.placement)
        assert len(pushes) == legalizer.netlist.num_movable
        assert any(pushes) and not all(pushes)


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
