"""Legality-preserving post-optimization (Section 4's closing remark).

The paper notes that "the coarse legalization methods can also be used
in conjunction with detailed legalization to iteratively improve an
existing placement during a post-optimization phase of detailed
placement if desired".  This module is that phase: it refines an
already-*legal* placement with moves that cannot create overlaps, so
the placement stays legal after every single operation:

- **Adjacent swaps** — two cells sitting next to each other in a row
  exchange order, preserving the pair's span (and hence everyone
  else's slots).
- **Equal-width swaps** — two cells of identical width anywhere on the
  chip exchange their (x, y, layer) slots outright; the paper's
  move/swap machinery restricted to the pairs for which a swap is
  trivially legal.
- **Gap moves** — a cell hops into a free interval of a nearby row
  that fits it.

All three are scored with the full objective (Eq. 3) and only strictly
improving operations are committed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.config import PlacementConfig
from repro.core.detailed import RowSegments
from repro.core.objective import ObjectiveState, first_minima
from repro.obs import get_recorder

RowKey = Tuple[int, int]

#: Relative width difference under which two cells count as "equal
#: width" for slot swaps.
WIDTH_TOLERANCE = 1e-9

#: Offset of the refiner's random stream (its cell visiting orders)
#: from the config seed.
SEED_OFFSET = 7919

#: Nearest same-width peers each cell tries in an equal-width swap pass.
SWAP_CANDIDATES = 6

#: Rows above and below its own in which a gap move looks for a slot.
GAP_ROW_RADIUS = 2


class LegalRefiner:
    """Iterative improvement of a legal placement.

    Args:
        objective: shared incremental objective; its placement must be
            legal (row-aligned, non-overlapping) when :meth:`run` is
            called.
        config: placement configuration.
    """

    def __init__(self, objective: ObjectiveState,
                 config: PlacementConfig) -> None:
        self.objective = objective
        self.config = config
        self.placement = objective.placement
        self.netlist = self.placement.netlist
        self.chip = self.placement.chip
        self._rng = np.random.default_rng(config.seed + SEED_OFFSET)

    # ------------------------------------------------------------------
    def run(self, passes: int = 2) -> int:
        """Run refinement passes; returns total improving operations."""
        rec = get_recorder()
        total = 0
        for _ in range(max(1, passes)):
            adjacent = self._adjacent_swap_pass()
            equal_width = self._equal_width_swap_pass()
            gap = self._gap_move_pass()
            improved = adjacent + equal_width + gap
            if rec.enabled:
                rec.count("refine/passes")
                rec.count("refine/adjacent_swaps", float(adjacent))
                rec.count("refine/equal_width_swaps",
                          float(equal_width))
                rec.count("refine/gap_moves", float(gap))
            total += improved
            if improved == 0:
                break
        return total

    # ------------------------------------------------------------------
    def _rows(self) -> Dict[RowKey, List[Tuple[float, int]]]:
        """Current row occupancy: (layer, row) -> [(x_center, cid)]."""
        rows: Dict[RowKey, List[Tuple[float, int]]] = defaultdict(list)
        chip = self.chip
        for cid, x, y, z in self.placement.iter_movable():
            rows[(z, chip.row_of(y))].append((x, cid))
        for members in rows.values():
            members.sort()
        return rows

    # ------------------------------------------------------------------
    def _adjacent_swap_pass(self) -> int:
        """Swap neighbouring cells within rows when it helps.

        Two-phase batching: every adjacent pair of the snapshot rows is
        scored as two single-cell move candidates in one
        :meth:`ObjectiveState.eval_moves_batch` call.  The summed pair
        delta is the exact joint delta while the two cells share no net
        and neither's neighbourhood has been dirtied by earlier commits;
        otherwise the pair is re-evaluated scalar at its turn (with
        coordinates recomputed from the current row order).
        """
        improved = 0
        widths = self.netlist.widths
        rows = self._rows()
        cell_nets = self.objective.cell_nets

        # ---- phase 1: pair generation + one batched score ------------
        mv_cells: List[int] = []
        mv_xs: List[float] = []
        mv_ys: List[float] = []
        mv_zs: List[int] = []
        exact: List[bool] = []  # pair's cells share no net
        for (layer, row), members in rows.items():
            y = self.chip.row_y(row)
            for i in range(len(members) - 1):
                (xa, a), (xb, b) = members[i], members[i + 1]
                wa = float(widths[a])
                wb = float(widths[b])
                lo = xa - 0.5 * wa
                gap = (xb - 0.5 * wb) - (xa + 0.5 * wa)
                mv_cells.append(a)
                mv_xs.append(lo + wb + gap + 0.5 * wa)
                mv_ys.append(y)
                mv_zs.append(layer)
                mv_cells.append(b)
                mv_xs.append(lo + 0.5 * wb)
                mv_ys.append(y)
                mv_zs.append(layer)
                exact.append(set(cell_nets(a)).isdisjoint(cell_nets(b)))
        if not mv_cells:
            return 0
        deltas = self.objective.eval_moves_batch(mv_cells, mv_xs, mv_ys,
                                                 mv_zs)

        # ---- phase 2: sequential apply with staleness tracking -------
        dirty: Set[int] = set()
        moved: Set[int] = set()
        p = 0
        for (layer, row), members in rows.items():
            y = self.chip.row_y(row)
            i = 0
            while i + 1 < len(members):
                k = 2 * p
                p += 1
                (xa, a), (xb, b) = members[i], members[i + 1]
                i += 1
                clean = (exact[p - 1] and a not in moved
                         and b not in moved
                         and dirty.isdisjoint(cell_nets(a))
                         and dirty.isdisjoint(cell_nets(b)))
                if clean:
                    if deltas[k] + deltas[k + 1] >= -1e-18:
                        continue
                    moves = [(a, mv_xs[k], y, layer),
                             (b, mv_xs[k + 1], y, layer)]
                else:
                    wa = float(widths[a])
                    wb = float(widths[b])
                    lo = xa - 0.5 * wa
                    gap = (xb - 0.5 * wb) - (xa + 0.5 * wa)
                    moves = [(a, lo + wb + gap + 0.5 * wa, y, layer),
                             (b, lo + 0.5 * wb, y, layer)]
                    if self.objective.eval_moves(moves) >= -1e-18:
                        continue
                self.objective.apply_moves(moves)
                members[i - 1] = (moves[1][1], b)
                members[i] = (moves[0][1], a)
                moved.add(a)
                moved.add(b)
                dirty.update(cell_nets(a))
                dirty.update(cell_nets(b))
                improved += 1
        return improved

    # ------------------------------------------------------------------
    def _equal_width_swap_pass(self) -> int:
        """Swap same-width cells across the whole chip.

        Two-phase batching: every cell's nearest same-width peers are
        collected against a snapshot of the placement and scored in one
        :meth:`ObjectiveState.eval_swaps_batch` call; promising swaps
        are then re-evaluated scalar (the state has moved on by the
        time their turn comes) and committed only if still improving.
        """
        improved = 0
        widths = self.netlist.widths
        placement = self.placement
        # width-bucketed index of movable cells
        buckets: Dict[int, List[int]] = defaultdict(list)
        quantum = max(float(widths.max()) * WIDTH_TOLERANCE, 1e-12)

        def bucket_of(w: float) -> int:
            return int(round(w / max(quantum, 1e-30)))

        movable = [c.id for c in self.netlist.cells if c.movable]
        for cid in movable:
            buckets[bucket_of(float(widths[cid]))].append(cid)
        peer_arrays = {b: np.asarray(m, dtype=np.int64)
                       for b, m in buckets.items()}

        order = [int(c) for c in self._rng.permutation(movable)]
        centers = self.objective.optimal_region_centers(order)
        cand_a: List[int] = []
        cand_b: List[int] = []
        # each cell with candidates, and where its run of them starts
        owners: List[int] = []
        starts: List[int] = []
        for idx, cid in enumerate(order):
            b = bucket_of(float(widths[cid]))
            peers = peer_arrays[b]
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
            if not others:
                continue
            owners.append(cid)
            starts.append(len(cand_a))
            cand_a.extend([cid] * len(others))
            cand_b.extend(others)
        if not cand_a:
            return 0
        deltas = self.objective.eval_swaps_batch(cand_a, cand_b)
        dirty: Set[int] = set()
        moved: Set[int] = set()
        cell_nets = self.objective.cell_nets
        best = first_minima(deltas, np.asarray(starts, dtype=np.int64))
        for cid, k in zip(owners, best.tolist()):
            if deltas[k] >= -1e-18:
                continue
            other = cand_b[k]
            moves = [
                (cid, float(placement.x[other]),
                 float(placement.y[other]), int(placement.z[other])),
                (other, float(placement.x[cid]),
                 float(placement.y[cid]), int(placement.z[cid])),
            ]
            # the batched delta is exact while both cells' spots and
            # incident nets are untouched; otherwise re-check scalar
            # against the current state
            clean = (cid not in moved and other not in moved
                     and dirty.isdisjoint(cell_nets(cid))
                     and dirty.isdisjoint(cell_nets(other)))
            if not clean and self.objective.eval_moves(moves) >= -1e-18:
                continue
            self.objective.apply_moves(moves)
            moved.add(cid)
            moved.add(other)
            dirty.update(cell_nets(cid))
            dirty.update(cell_nets(other))
            improved += 1
        return improved

    # ------------------------------------------------------------------
    def _gap_move_pass(self) -> int:
        """Move cells into nearby free row intervals when it helps.

        Two-phase batching like :meth:`_equal_width_swap_pass`: slot
        candidates for every cell are collected against the starting
        row occupancy and scored in one batched call; a winning
        candidate's row is re-queried and the move re-evaluated scalar
        at its turn, since earlier commits may have claimed the gap.
        """
        improved = 0
        widths = self.netlist.widths
        placement = self.placement
        chip = self.chip
        segments = RowSegments(placement)
        locations: Dict[int, Tuple[int, int]] = {}
        for (layer, row), members in self._rows().items():
            for x, cid in members:
                segments.insert(layer, row, cid, x, float(widths[cid]))
                locations[cid] = (layer, row)

        movable = [c.id for c in self.netlist.cells if c.movable]
        order = [int(c) for c in self._rng.permutation(movable)]
        cand_cells: List[int] = []
        cand_slots: List[Tuple[float, float, int, int]] = []
        owners: List[int] = []
        starts: List[int] = []
        for cid in order:
            w = float(widths[cid])
            layer0, row0 = locations[cid]
            x0 = float(placement.x[cid])
            start = len(cand_slots)
            for layer in range(chip.num_layers):
                for row in range(max(0, row0 - GAP_ROW_RADIUS),
                                 min(chip.rows_per_layer,
                                     row0 + GAP_ROW_RADIUS + 1)):
                    if (layer, row) == (layer0, row0):
                        continue
                    slot = segments.nearest_slot(layer, row, x0, w)
                    if slot is None:
                        continue
                    cand_slots.append((slot, self.chip.row_y(row), layer,
                                       row))
                    cand_cells.append(cid)
            if len(cand_slots) > start:
                owners.append(cid)
                starts.append(start)
        if not cand_slots:
            return 0
        deltas = self.objective.eval_moves_batch(
            cand_cells, [c[0] for c in cand_slots],
            [c[1] for c in cand_slots], [c[2] for c in cand_slots])

        dirty: Set[int] = set()
        rows_touched: Set[Tuple[int, int]] = set()
        cell_nets = self.objective.cell_nets
        best = first_minima(deltas, np.asarray(starts, dtype=np.int64))
        for cid, k in zip(owners, best.tolist()):
            if deltas[k] >= -1e-18:
                continue
            slot, y, layer, row = cand_slots[k]
            w = float(widths[cid])
            if (layer, row) in rows_touched:
                # the gap may have been taken by an earlier commit:
                # re-query the row
                slot = segments.nearest_slot(layer, row,
                                             float(placement.x[cid]), w)
                if slot is None:
                    continue
            move = [(cid, slot, y, layer)]
            # the batched delta stays exact while the cell's nets and
            # the target row are untouched; otherwise re-check scalar
            clean = ((layer, row) not in rows_touched
                     and dirty.isdisjoint(cell_nets(cid)))
            if not clean and self.objective.eval_moves(move) >= -1e-18:
                continue
            layer0, row0 = locations[cid]
            segments.remove(layer0, row0, cid)
            self.objective.apply_moves(move)
            segments.insert(layer, row, cid, slot, w)
            locations[cid] = (layer, row)
            rows_touched.add((layer0, row0))
            rows_touched.add((layer, row))
            dirty.update(cell_nets(cid))
            improved += 1
        return improved
