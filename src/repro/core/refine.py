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

from repro.analysis import FloatArray, IntArray, hot_path
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

#: Cells whose nearest same-width peers one array query finds.
PEER_BLOCK = 64

#: Cells whose gap-slot queries are built and answered together.
GAP_BLOCK = 1024


@hot_path
def nearest_peers(px: FloatArray, py: FloatArray, ox: FloatArray,
                  oy: FloatArray, selves: IntArray, k: int) -> IntArray:
    """Each origin's ``k`` nearest peers, as positions in the peer array.

    Distances are the L1 values ``|px - ox| + |py - oy|``; origin ``q``
    is peer ``selves[q]`` and never its own candidate.  Ties break by
    position in the peer array, as a stable argsort of each row does,
    and ``k`` must be below the peer count.

    Returns:
        ``(len(ox), k)`` positions, each row nearest first.
    """
    n = len(ox)
    dist = np.abs(px[None, :] - ox[:, None])
    dist += np.abs(py[None, :] - oy[:, None])
    dist[np.arange(n, dtype=np.int64), selves] = np.inf
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    # every distance up to each row's k-th smallest, by (row, distance,
    # position): a stable lexsort keeps nonzero's position order
    row, col = np.nonzero(dist <= kth)
    by_dist = np.lexsort((dist[row, col], row))
    row = row[by_dist]
    col = col[by_dist]
    first = np.searchsorted(row, np.arange(n, dtype=np.int64))
    take = np.arange(len(row), dtype=np.int64) - first[row] < k
    return col[take].reshape(n, k)


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
        collected against a snapshot of the placement
        (:meth:`_equal_width_candidates`) and scored in one
        :meth:`ObjectiveState.eval_swaps_batch` call; promising swaps
        are then re-evaluated scalar (the state has moved on by the
        time their turn comes) and committed only if still improving.
        """
        improved = 0
        placement = self.placement
        order = self._rng.permutation(self.netlist.movable_ids)
        cand_a, cand_b, starts = self._equal_width_candidates(order)
        if not len(cand_a):
            return 0
        deltas = self.objective.eval_swaps_batch(cand_a, cand_b)
        dirty: Set[int] = set()
        moved: Set[int] = set()
        cell_nets = self.objective.cell_nets
        best = first_minima(deltas, starts)
        owners = cand_a[starts].tolist()
        partners = cand_b.tolist()
        for cid, k in zip(owners, best.tolist()):
            if deltas[k] >= -1e-18:
                continue
            other = partners[k]
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
        row occupancy (:meth:`_gap_candidates`) and scored in one
        batched call; a winning
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

        order = self._rng.permutation(self.netlist.movable_ids)
        cells, slots, layers, rows, starts = self._gap_candidates(
            order, segments, locations)
        if not len(cells):
            return 0
        ys = rows * chip.row_pitch + 0.5 * chip.row_height
        deltas = self.objective.eval_moves_batch(cells, slots, ys, layers)

        dirty: Set[int] = set()
        rows_touched: Set[Tuple[int, int]] = set()
        cell_nets = self.objective.cell_nets
        best = first_minima(deltas, starts)
        for cid, k in zip(cells[starts].tolist(), best.tolist()):
            if deltas[k] >= -1e-18:
                continue
            slot = float(slots[k])
            y = float(ys[k])
            layer = int(layers[k])
            row = int(rows[k])
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

    # ------------------------------------------------------------------
    def _equal_width_candidates(self, order: IntArray
                                ) -> Tuple[IntArray, IntArray, IntArray]:
        """Phase 1 of the equal-width pass: each cell's nearest peers.

        A cell's peers are the other movable cells of its width class
        (widths equal after rounding to ``WIDTH_TOLERANCE`` of the
        widest cell), by ascending id.  Each cell of ``order`` takes
        the :data:`SWAP_CANDIDATES` peers nearest its optimal-region
        centre (:func:`nearest_peers`, one blocked query per class),
        nearest first, and keeps those within the width quantum.

        Returns:
            ``(cand_a, cand_b, starts)``: swap ``c`` exchanges
            ``cand_a[c]`` with ``cand_b[c]``; each cell with candidates
            owns one run of them, starting at a ``starts`` entry, in
            ``order``.
        """
        widths = self.netlist.widths
        placement = self.placement
        quantum = max(float(widths.max()) * WIDTH_TOLERANCE, 1e-12)
        centers = self.objective.optimal_region_centers(order)
        ids = self.netlist.movable_ids
        _, cls = np.unique(np.rint(widths[ids] / max(quantum, 1e-30)),
                           return_inverse=True)
        cell_cls = np.empty(len(widths), dtype=np.int64)
        cell_cls[ids] = cls
        order_cls = cell_cls[order]
        near = np.full((len(order), SWAP_CANDIDATES), -1, dtype=np.int64)
        for c in range(int(cls.max(initial=-1)) + 1):
            peers = ids[cls == c]
            if len(peers) < 2:
                continue
            k = min(SWAP_CANDIDATES, len(peers) - 1)
            rows = np.flatnonzero(order_cls == c)
            selves = np.searchsorted(peers, order[rows])
            for lo in range(0, len(rows), PEER_BLOCK):
                block = rows[lo:lo + PEER_BLOCK]
                near[block, :k] = peers[nearest_peers(
                    placement.x[peers], placement.y[peers],
                    centers[0, block], centers[1, block],
                    selves[lo:lo + PEER_BLOCK], k)]
        keep = near >= 0
        keep &= np.abs(widths[near] - widths[order][:, None]) <= quantum
        counts = keep.sum(axis=1)
        return (np.repeat(order, counts), near[keep],
                _run_starts(counts))

    def _gap_candidates(self, order: IntArray, segments: RowSegments,
                        locations: Dict[int, RowKey]
                        ) -> Tuple[IntArray, FloatArray, IntArray,
                                   IntArray, IntArray]:
        """Phase 1 of the gap pass: each cell's slots in nearby rows.

        A cell of ``order`` queries every layer's rows within
        :data:`GAP_ROW_RADIUS` of its own row (``locations``), except
        its own ``(layer, row)``, in (layer, row) order.  The queries of
        :data:`GAP_BLOCK` cells at a time are answered row by row
        against ``segments`` (:meth:`RowSegments.nearest_slots`), and a
        row with no gap for the cell offers none.

        Returns:
            ``(cells, slots, layers, rows, starts)``: candidate ``c``
            moves ``cells[c]`` to x ``slots[c]`` on ``(layers[c],
            rows[c])``; each cell with candidates owns one run of them,
            starting at a ``starts`` entry, in ``order``.
        """
        chip = self.chip
        widths = self.netlist.widths
        offsets = np.arange(-GAP_ROW_RADIUS, GAP_ROW_RADIUS + 1,
                            dtype=np.int64)
        layer = np.arange(chip.num_layers, dtype=np.int64)[None, :, None]
        parts = []
        for lo in range(0, len(order), GAP_BLOCK):
            block = order[lo:lo + GAP_BLOCK]
            home = np.asarray([locations[c] for c in block.tolist()],
                              dtype=np.int64).reshape(-1, 2)
            row = home[:, 1, None, None] + offsets[None, None, :]
            valid = ((row >= 0) & (row < chip.rows_per_layer)
                     & ((layer != home[:, 0, None, None])
                        | (row != home[:, 1, None, None])))
            q_cell, q_layer, q_off = np.nonzero(valid)
            q_row = home[q_cell, 1] + offsets[q_off]
            cells = block[q_cell]
            xs = self.placement.x[cells]
            slots = np.empty(len(cells), dtype=np.float64)
            key = q_layer * chip.rows_per_layer + q_row
            by_row = np.argsort(key, kind="stable")
            bounds = np.flatnonzero(
                np.diff(key[by_row], prepend=-1)).tolist()
            bounds.append(len(key))
            for a, b in zip(bounds[:-1], bounds[1:]):
                q = by_row[a:b]
                slots[q] = segments.nearest_slots(
                    int(q_layer[q[0]]), int(q_row[q[0]]), xs[q],
                    widths[cells[q]])
            found = ~np.isnan(slots)
            parts.append((cells[found], slots[found], q_layer[found],
                          q_row[found],
                          np.bincount(q_cell[found],
                                      minlength=len(block))))
        cells, slots, layers, rows, counts = (
            np.concatenate(column) for column in zip(*parts))
        return cells, slots, layers, rows, _run_starts(counts)


@hot_path
def _run_starts(counts: IntArray) -> IntArray:
    """Where each non-empty run of ``counts`` starts in their
    concatenation."""
    counts = counts[counts > 0]
    return np.cumsum(counts) - counts
