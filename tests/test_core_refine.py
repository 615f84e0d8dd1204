"""Unit tests for legality-preserving post-optimization."""

from collections import defaultdict

import numpy as np
import pytest

import repro.core.refine as refine_module
from repro.core.config import PlacementConfig
from repro.core.detailed import DetailedLegalizer, RowSegments, check_legal
from repro.core.objective import ObjectiveState
from repro.core.refine import (GAP_ROW_RADIUS, SWAP_CANDIDATES,
                               WIDTH_TOLERANCE, LegalRefiner,
                               nearest_peers)
from repro.geometry.chip import ChipGeometry
from repro.netlist.net import PinRole
from repro.netlist.netlist import Netlist
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


# ----------------------------------------------------------------------
def _reference_equal_width(refiner, order):
    """The former per-cell peer loop, kept as the reference: every
    same-width peer's L1 distance to the cell's optimal-region centre,
    a stable argsort, the first ``SWAP_CANDIDATES``, then the width
    filter."""
    widths = refiner.netlist.widths
    placement = refiner.placement
    quantum = max(float(widths.max()) * WIDTH_TOLERANCE, 1e-12)
    buckets = defaultdict(list)
    for cell in refiner.netlist.cells:
        if cell.movable:
            buckets[int(round(float(widths[cell.id])
                              / max(quantum, 1e-30)))].append(cell.id)
    peer_arrays = {b: np.asarray(m, dtype=np.int64)
                   for b, m in buckets.items()}
    order = [int(c) for c in order]
    centers = refiner.objective.optimal_region_centers(order)
    cand_a, cand_b, starts = [], [], []
    for idx, cid in enumerate(order):
        peers = peer_arrays[int(round(float(widths[cid])
                                      / max(quantum, 1e-30)))]
        if len(peers) < 2:
            continue
        ox, oy = centers[0, idx], centers[1, idx]
        dist = (np.abs(placement.x[peers] - ox)
                + np.abs(placement.y[peers] - oy))
        dist = np.where(peers == cid, np.inf, dist)
        k = min(SWAP_CANDIDATES, len(peers) - 1)
        near = peers[np.argsort(dist, kind="stable")[:k]]
        others = [int(p) for p in near
                  if abs(widths[p] - widths[cid]) <= quantum]
        if others:
            starts.append(len(cand_a))
            cand_a.extend([cid] * len(others))
            cand_b.extend(others)
    return cand_a, cand_b, starts


def _reference_gap(refiner, order, segments, locations):
    """The former per-cell slot loop, kept as the reference: one scalar
    :meth:`RowSegments.nearest_slot` per (layer, row) near the cell."""
    chip = refiner.chip
    widths = refiner.netlist.widths
    cells, slots, layers, rows, starts = [], [], [], [], []
    for cid in order.tolist():
        layer0, row0 = locations[cid]
        x0 = float(refiner.placement.x[cid])
        start = len(cells)
        for layer in range(chip.num_layers):
            for row in range(max(0, row0 - GAP_ROW_RADIUS),
                             min(chip.rows_per_layer,
                                 row0 + GAP_ROW_RADIUS + 1)):
                if (layer, row) == (layer0, row0):
                    continue
                slot = segments.nearest_slot(layer, row, x0,
                                             float(widths[cid]))
                if slot is None:
                    continue
                cells.append(cid)
                slots.append(slot)
                layers.append(layer)
                rows.append(row)
        if len(cells) > start:
            starts.append(start)
    return cells, slots, layers, rows, starts


def _hex(values):
    return [float(v).hex() for v in values]


class TestPhaseOneReference:
    """Every pass's equal-width peers and gap slots equal the former
    per-cell loops' on the same snapshot, bit for bit; small blocks put
    block boundaries inside every width class and every pass."""

    @pytest.mark.parametrize("layers,alpha_temp",
                             [(4, 0.0), (4, 5.2e-3), (1, 0.0)])
    def test_passes_match_reference(self, monkeypatch, layers,
                                    alpha_temp):
        from repro import load_benchmark

        monkeypatch.setattr(refine_module, "PEER_BLOCK", 7)
        monkeypatch.setattr(refine_module, "GAP_BLOCK", 50)
        netlist = load_benchmark("ibm01", scale=0.03)
        config = PlacementConfig(num_layers=layers, alpha_temp=alpha_temp,
                                 seed=3)
        pl = Placement.random(netlist, make_chip(netlist, layers), seed=8)
        obj = ObjectiveState(pl, config)
        DetailedLegalizer(obj, config).run()
        refiner = LegalRefiner(obj, config)
        peers = refiner._equal_width_candidates
        gaps = refiner._gap_candidates
        calls = []

        def checked_peers(order):
            want = _reference_equal_width(refiner, order)
            got = peers(order)
            assert [g.tolist() for g in got] == list(want)
            calls.append(len(want[0]))
            return got

        def checked_gaps(order, segments, locations):
            want = _reference_gap(refiner, order, segments, locations)
            got = gaps(order, segments, locations)
            assert got[0].tolist() == want[0]
            assert _hex(got[1]) == _hex(want[1])
            assert [g.tolist() for g in got[2:]] == list(want[2:])
            calls.append(len(want[0]))
            return got

        refiner._equal_width_candidates = checked_peers
        refiner._gap_candidates = checked_gaps
        assert refiner.run(passes=3) > 0
        assert len(calls) >= 4 and min(calls) > 0
        check_legal(pl)


class TestNearestPeers:
    def test_peers_at_equal_distance(self):
        # peer 2 is the origin; peers 0, 1, 3 and 5 sit at L1 distance
        # 1 from it and peer 4 at 2: ties go by position in the array
        px = np.array([1.0, 0.0, 0.0, -1.0, 2.0, 0.0])
        py = np.array([0.0, 1.0, 0.0, 0.0, 0.0, -1.0])
        origin = np.array([0.0])
        for k, want in ((1, [0]), (3, [0, 1, 3]), (5, [0, 1, 3, 5, 4])):
            got = nearest_peers(px, py, origin, origin, np.array([2]), k)
            assert got.tolist() == [want]
            dist = np.abs(px - 0.0) + np.abs(py - 0.0)
            dist[2] = np.inf
            assert want == np.argsort(dist, kind="stable")[:k].tolist()

    def test_rows_are_independent(self):
        rng = np.random.default_rng(0)
        # coordinates on a coarse grid, so many distances tie
        px = rng.integers(0, 4, 40).astype(np.float64)
        py = rng.integers(0, 4, 40).astype(np.float64)
        selves = np.arange(40, dtype=np.int64)
        got = nearest_peers(px, py, px, py, selves, 6)
        for q in range(40):
            dist = np.abs(px - px[q]) + np.abs(py - py[q])
            dist[q] = np.inf
            assert got[q].tolist() == \
                np.argsort(dist, kind="stable")[:6].tolist()

    def test_width_class_of_one_cell(self, config):
        # cells a-c share a width, d is alone in its class: d gets no
        # candidates, and each of a-c its two peers
        um = 1e-6
        netlist = Netlist("classes")
        for name, width in (("a", 2), ("b", 2), ("c", 2), ("d", 3)):
            netlist.add_cell(name, width * um, um)
        for k, (u, v) in enumerate(((0, 1), (1, 2), (2, 3))):
            netlist.add_net(f"n{k}", [(u, PinRole.DRIVER),
                                      (v, PinRole.SINK)])
        chip = ChipGeometry(width=12 * um, height=2 * um, num_layers=1,
                            row_height=um, row_pitch=um)
        pl = Placement(netlist, chip, x=[1 * um, 4 * um, 7 * um, 10 * um],
                       y=[0.5 * um] * 4, z=[0] * 4)
        refiner = LegalRefiner(ObjectiveState(pl, config), config)
        order = np.array([3, 1, 0, 2], dtype=np.int64)
        cand_a, cand_b, starts = refiner._equal_width_candidates(order)
        assert [cand_a.tolist(), cand_b.tolist(), starts.tolist()] == \
            list(_reference_equal_width(refiner, order))
        assert 3 not in cand_a.tolist() and 3 not in cand_b.tolist()
        assert cand_a.tolist() == [1, 1, 0, 0, 2, 2]


class TestRowSlots:
    """The array slot query against the scalar one on hand-built rows."""

    @staticmethod
    def _row(occupied):
        um = 1e-6
        netlist = Netlist("row")
        for k, (lo, hi) in enumerate(occupied):
            netlist.add_cell(f"c{k}", (hi - lo) * um, um)
        chip = ChipGeometry(width=10 * um, height=2 * um, num_layers=1,
                            row_height=um, row_pitch=um)
        pl = Placement(netlist, chip,
                       x=[0.5 * (lo + hi) * um for lo, hi in occupied],
                       y=[0.5 * um] * len(occupied),
                       z=[0] * len(occupied))
        segments = RowSegments(pl)
        for k, (lo, hi) in enumerate(occupied):
            segments.insert(0, 0, k, 0.5 * (lo + hi) * um, (hi - lo) * um)
        return segments

    @staticmethod
    def _check(segments, xs, widths):
        xs = np.asarray(xs, dtype=np.float64)
        widths = np.asarray(widths, dtype=np.float64)
        got = segments.nearest_slots(0, 0, xs, widths)
        want = [segments.nearest_slot(0, 0, float(x), float(w))
                for x, w in zip(xs, widths)]
        assert [None if np.isnan(g) else g.hex() for g in got] == \
            [None if w is None else w.hex() for w in want]
        return got

    def test_exact_fit_and_no_fit(self):
        um = 1e-6
        # free gaps: [0, 1), [3, 5) and [9, 10) um
        segments = self._row([(1, 3), (5, 9)])
        xs = np.linspace(-1, 11, 25) * um
        got = self._check(segments, xs, [2 * um] * len(xs))
        assert np.allclose(got, 4 * um)  # only [3, 5) fits, exactly
        # a gap narrower by less than the 1e-15 m slack still fits
        assert not np.isnan(self._check(
            segments, [4 * um], [2 * um + 5e-16])[0])
        # wider than every gap: no slot
        assert np.isnan(self._check(segments, xs, [2.5 * um] * len(xs))).all()
        # one-um cells: the nearest of three gaps, first gap on ties
        self._check(segments, xs, [1 * um] * len(xs))

    def test_full_row_and_wider_than_die(self):
        um = 1e-6
        full = self._row([(0, 4), (4, 10)])
        assert np.isnan(self._check(full, [1 * um, 5 * um],
                                    [1 * um, 0.5 * um])).all()
        empty = self._row([])
        got = self._check(empty, [0.0, 5 * um, 10 * um],
                          [10 * um, 11 * um, 4 * um])
        assert got[0] == 5 * um and np.isnan(got[1]) and got[2] == 8 * um
