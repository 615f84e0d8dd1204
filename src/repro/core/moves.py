"""Coarse-legalization moves and swaps (Section 4.2).

Two procedures, both greedy per cell and both scored with the full
objective (Eq. 3) through :class:`~repro.core.objective.ObjectiveState`:

- **Global move/swap** — each cell's *optimal region* (the 3D extension
  of [14]: the median box of its nets' other-pin bounding boxes, where
  moving the cell cannot increase any incident net) seeds a target
  region of a fixed number of bins around the objective minimum.  The
  cell tries moving to each target bin and swapping with cells living
  there; the best objective-reducing action is executed.
- **Local move/swap** — the same machinery with the target region
  restricted to the bins adjacent to the cell's current bin.

Moves respect bin capacity: a move is only considered if the target bin
can take the cell's area (cells already there are assumed shifted aside
by the subsequent cell-shifting step, whose cost the density limit
bounds); swaps must keep both bins within the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.analysis import FloatArray, IntArray, hot_path
from repro.core.config import PlacementConfig
from repro.core.objective import ObjectiveState, first_minima
from repro.geometry.density import BinIndex, DensityMesh
from repro.obs import get_recorder

#: Moves fill a bin to at most this multiple of its capacity (the
#: cell-shifting step that follows spreads the excess).
DENSITY_LIMIT = 1.5

#: Swap partners sampled per target bin.
MAX_SWAP_CANDIDATES = 4

#: Offset of the optimizer's random stream (pass orders, landing-point
#: jitter and swap-partner samples) from the config seed.
SEED_OFFSET = 101

#: Cells whose candidates phase 1 generates and scores together.
CELL_BLOCK = 64


@dataclass
class _Block:
    """The move/swap candidates of consecutive cells, in generation
    order.

    Candidate ``c`` moves ``cell[c]`` to ``(x[c], y[c])`` on layer
    ``bins[c, 2]`` when ``partner[c]`` is -1, and else swaps it with
    ``partner[c]``; ``bins[c]`` is its target bin ``(i, j, k)``.  The
    block's ``q``-th cell owns candidates ``span[q]:span[q + 1]``.
    """

    cell: IntArray
    partner: IntArray
    x: FloatArray
    y: FloatArray
    bins: IntArray
    span: IntArray


class _Best:
    """Each cell's best candidate: in phase 1 one row per pass-order
    cell, in a rescan one row.

    ``delta`` is the first minimum of the cell's candidate deltas in
    generation order, or 0.0 when it has none (which no strictly
    improving candidate matches).  ``partner`` is a swap's partner, or
    -1 for a move; ``x``/``y`` are a move's landing point and ``bins``
    the target bin ``(i, j, k)`` of either.
    """

    def __init__(self, n: int) -> None:
        self.delta = np.zeros(n, dtype=np.float64)
        self.partner = np.full(n, -1, dtype=np.int64)
        self.x = np.zeros(n, dtype=np.float64)
        self.y = np.zeros(n, dtype=np.float64)
        self.bins = np.zeros((n, 3), dtype=np.int64)


class MoveOptimizer:
    """Greedy move/swap passes over a coarse density mesh.

    The optimizer keeps the mesh's area grid current and, as the only
    reader of it, which cells sit in each bin (:attr:`members`).

    Args:
        objective: shared incremental objective state.
        config: placement configuration.
    """

    def __init__(self, objective: ObjectiveState,
                 config: PlacementConfig) -> None:
        self.objective = objective
        self.config = config
        placement = objective.placement
        netlist = placement.netlist
        self.mesh = DensityMesh.coarse_for(
            placement.chip, netlist.average_cell_width,
            netlist.average_cell_height)
        self._rng = np.random.default_rng(config.seed + SEED_OFFSET)
        self._areas = netlist.areas
        self._movable = [c.id for c in netlist.cells if c.movable]
        #: ids of the cells in each bin: ascending after a rebuild, then
        #: removed and appended as moves and swaps commit
        self.members: Dict[BinIndex, List[int]] = {}
        # the membership of the last rebuild, flat (:meth:`_rebuild_mesh`)
        self._bin_ptr = np.zeros(1, dtype=np.int64)
        self._bin_ids = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    def global_pass(self) -> int:
        """One pass of global moves/swaps; returns the number executed."""
        radius = self._radius_for_bins(self.config.move_target_bins)
        return self._pass(local_only=False, radius=radius)

    def local_pass(self) -> int:
        """One pass of local (adjacent-bin) moves/swaps."""
        return self._pass(local_only=True, radius=1)

    # ------------------------------------------------------------------
    def _radius_for_bins(self, bins: int) -> int:
        """Chebyshev radius whose 3D cube holds about ``bins`` bins."""
        radius = 1
        while (2 * radius + 1) ** 3 < bins and radius < 8:
            radius += 1
        return radius

    def _rebuild_mesh(self) -> None:
        """Rebuild the area grid and the bin membership from the
        placement; each bin lists its cells by ascending id.

        The membership is also kept flat, as phase 1 reads it:
        ``_bin_ids[_bin_ptr[b]:_bin_ptr[b + 1]]`` are the cells of the
        bin of flat index ``b``, ``(i * ny + j) * nz + k``.
        """
        placement = self.objective.placement
        mesh = self.mesh
        mesh.build_from_placement(placement, self._areas)
        i, j, k = mesh.bins_of(placement)
        flat = (i * mesh.ny + j) * mesh.nz + k
        order = np.argsort(flat, kind="stable")
        self._bin_ids = placement.netlist.movable_ids[order]
        sizes = np.bincount(flat, minlength=mesh.nx * mesh.ny * mesh.nz)
        self._bin_ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=self._bin_ptr[1:])
        occupied = np.flatnonzero(sizes)
        ids = self._bin_ids.tolist()
        bounds = self._bin_ptr.tolist()
        keys = zip(*(axis.tolist() for axis in np.unravel_index(
            occupied, (mesh.nx, mesh.ny, mesh.nz))))
        self.members = {index: ids[bounds[b]:bounds[b + 1]]
                        for index, b in zip(keys, occupied.tolist())}

    def _bins(self, cells: IntArray, local_only: bool
              ) -> Tuple[IntArray, IntArray]:
        """Each cell's current bin, and the bin its target region
        centres on: the current bin in a local pass, else the bin of
        the cell's optimal-region centre, on the nearest layer; both
        as ``(n, 3)`` arrays of ``(i, j, k)``."""
        placement = self.objective.placement
        mesh = self.mesh
        current = np.column_stack(mesh.bins_at(placement.x[cells],
                                               placement.y[cells],
                                               placement.z[cells]))
        if local_only:
            return current, current
        centre = self.objective.optimal_region_centers(cells)
        return current, np.column_stack(mesh.bins_at(
            centre[0], centre[1], np.rint(centre[2])))

    @hot_path
    def _targets(self, centres: IntArray, local_only: bool,
                 radius: int) -> Tuple[IntArray, IntArray]:
        """Each cell's target bins: the bins within ``radius`` of its
        region's centre bin (:meth:`_bins`), in ``(i, j, k)`` order.

        Returns:
            ``(owner, bins)``: cell ``q``'s targets are the rows of
            ``bins`` whose ``owner`` is ``q``, owners ascending.
        """
        owner, bins = self.mesh.bins_within(centres, radius)
        # The optimal-region z is the nets' median layer; with
        # thermal placement on, the objective minimum may sit on
        # a cooler layer instead, so the full vertical stack at
        # the optimal lateral position joins the target region,
        # after the cube, by ascending layer.
        if local_only or not self.config.alpha_temp > 0:
            return owner, bins
        layers = np.arange(self.mesh.nz, dtype=np.int64)
        s_owner, s_k = np.nonzero(
            np.abs(layers[None, :] - centres[:, 2:3]) > radius)
        stack = np.column_stack((centres[s_owner, :2], s_k))
        owner = np.concatenate((owner, s_owner))
        by_cell = np.argsort(owner, kind="stable")
        return owner[by_cell], np.concatenate((bins, stack))[by_cell]

    def _pass(self, local_only: bool, radius: int) -> int:
        """One move/swap pass in two phases.

        Phase 1 generates the candidates of :data:`CELL_BLOCK` cells at
        a time against a snapshot of the entering state
        (:meth:`_candidates`), scores each block in one batched move
        call and one batched swap call, and keeps only each cell's best
        candidate, the first minimum of its span in generation order
        (:class:`_Best`); so phase 1 holds one block of candidates plus
        one record per cell, at any size.  A delta depends only on its
        own candidate, so where the blocks end changes nothing.  Phase
        2 walks the cells in permutation order and greedily applies
        each cell's best candidate.  A cached candidate was scored
        against the snapshot, so it is checked against the current
        state first: its target bin must still have room, a swap
        partner must not have moved, and once earlier applies have
        dirtied the cell's (or the partner's) incident nets its delta
        is re-checked with a scalar evaluation.  A cell displaced
        mid-pass by a swap partner is rescanned from its new position
        through the same generator and selector (:meth:`_rescan`); that
        candidate is scored against the current state and needs none of
        these checks.
        """
        self._rebuild_mesh()
        placement = self.objective.placement
        obj = self.objective
        mesh = self.mesh
        order: List[int] = self._rng.permutation(self._movable).tolist()

        # ---- phase 1: candidate generation + blocked batch scores -----
        cells = np.asarray(order, dtype=np.int64)
        cur_bins, centres = self._bins(cells, local_only)
        best = _Best(len(order))
        n_cand = 0
        for lo in range(0, len(order), CELL_BLOCK):
            hi = lo + CELL_BLOCK
            block = self._candidates(cells[lo:hi], cur_bins[lo:hi],
                                     centres[lo:hi], local_only, radius)
            n_cand += len(block.cell)
            self._keep_best(block, lo, best)

        # ---- phase 2: greedy apply with staleness tracking -----------
        executed = 0
        dirty: Set[int] = set()
        moved_since: Set[int] = set()
        areas = self._areas
        limit = DENSITY_LIMIT * mesh.bin_capacity
        cell_nets = obj.cell_nets
        snapshot_bins = cur_bins.tolist()
        for i, cid in enumerate(order):
            cached = cid not in moved_since
            if cached:
                row, r = best, i
                cur_bin: BinIndex = tuple(snapshot_bins[i])
            else:
                # displaced by an earlier swap: rescan from the new spot
                row, cur_bin = self._rescan(cid, local_only, radius)
                r = 0
            if not row.delta[r] < -1e-18:  # strictly improving only
                continue
            bi, bj, bk = row.bins[r].tolist()
            t = (bi, bj, bk)
            other = int(row.partner[r])
            partner = other if other >= 0 else None
            if partner is None:
                mv = [(cid, float(row.x[r]), float(row.y[r]), bk)]
            else:
                mv = [(cid, float(placement.x[other]),
                       float(placement.y[other]),
                       int(placement.z[other])),
                      (other, float(placement.x[cid]),
                       float(placement.y[cid]),
                       int(placement.z[cid]))]
            if cached:
                # scored against the snapshot: re-check what the
                # applies since may have changed
                area = float(areas[cid])
                stale = not dirty.isdisjoint(cell_nets(cid))
                if partner is None:
                    if mesh.area_in(t) + area > limit:
                        continue
                else:
                    if other in moved_since:
                        continue
                    other_area = float(areas[other])
                    if mesh.area_in(t) - other_area + area > limit:
                        continue
                    if mesh.area_in(cur_bin) - area + other_area > limit:
                        continue
                    stale = stale or not dirty.isdisjoint(cell_nets(other))
                if stale and obj.eval_moves(mv) >= -1e-18:
                    continue
            obj.apply_moves(mv)
            self._update_bins(cid, cur_bin, t, partner)
            executed += 1
            moved_since.add(cid)
            dirty.update(cell_nets(cid))
            if partner is not None:
                moved_since.add(partner)
                dirty.update(cell_nets(partner))
        rec = get_recorder()
        if rec.enabled:
            rec.count("moves/candidates", float(n_cand))
            rec.count("moves/executed", float(executed))
            rec.record("moves/pass",
                       local=1.0 if local_only else 0.0,
                       candidates=float(n_cand),
                       executed=float(executed),
                       accept_rate=(float(executed) / n_cand
                                    if n_cand else 0.0))
        return executed

    @hot_path
    def _keep_best(self, block: _Block, first: int, best: _Best) -> None:
        """Score one block and record each of its cells' best candidate.

        The block's cells go to rows ``first``, ``first + 1``, ... of
        ``best``.  Each keeps the first minimum of its span
        (:func:`~repro.core.objective.first_minima`).
        """
        move = block.partner < 0
        swap = ~move
        deltas = np.empty(len(move), dtype=np.float64)
        deltas[move] = self.objective.eval_moves_batch(
            block.cell[move], block.x[move], block.y[move],
            block.bins[move, 2])
        deltas[swap] = self.objective.eval_swaps_batch(
            block.cell[swap], block.partner[swap])
        owners = np.flatnonzero(np.diff(block.span))  # cells with some
        if not len(owners):
            return
        pick = first_minima(deltas, block.span[owners])
        rows = first + owners
        best.delta[rows] = deltas[pick]
        best.partner[rows] = block.partner[pick]
        best.x[rows] = block.x[pick]
        best.y[rows] = block.y[pick]
        best.bins[rows] = block.bins[pick]

    @hot_path
    def _candidates(self, cells: IntArray, cur_bins: IntArray,
                    centres: IntArray, local_only: bool, radius: int,
                    *, rescan: bool = False) -> _Block:
        """The move/swap candidates of some cells, in generation order.

        Per cell and per target bin other than the cell's own (in
        :meth:`_targets` order): a move if the bin can take the cell's
        area, then a swap with each sampled member whose exchanged
        area keeps both bins within the limit.  A bin of at most
        :data:`MAX_SWAP_CANDIDATES` cells offers all of them, in
        membership order, a fuller one a random sample.

        The random stream is drawn cell by cell (:meth:`_draws`).  A
        move to bin ``(i, j, k)`` with jitter ``(u, v)`` lands at ``x =
        (i + u) * bin_width``, or, with ``rescan`` (a cell displaced
        mid-pass), at ``x = (i + 0.5) * bin_width + (u - 0.5) * (0.5 *
        bin_width) * 2.0``; ``y`` alike.  The two can differ in the last
        bit, and writing both the same way changes placements
        (DESIGN.md, "Two WL associations").  A rescan also reads the
        current membership (:attr:`members`), phase 1 the snapshot.
        """
        mesh = self.mesh
        areas = self._areas
        limit = DENSITY_LIMIT * mesh.bin_capacity
        owner, bins = self._targets(centres, local_only, radius)
        ti, tj, tk = bins.T
        flat = (ti * mesh.ny + tj) * mesh.nz + tk
        own = (bins == cur_bins[owner]).all(axis=1)
        if rescan:
            start, count, ids = self._current_members(bins)
        else:
            start = self._bin_ptr[flat]
            count = self._bin_ptr[flat + 1] - start
            ids = self._bin_ids
        crowded = ~own & (count > MAX_SWAP_CANDIDATES)
        jitter, picks = self._draws(
            np.bincount(owner, minlength=len(cells)), owner[crowded],
            count[crowded])

        # moves: one slot per target, in front of its swaps
        area = areas[cells][owner]
        bin_area = mesh._area.ravel()[flat]
        can_move = ~own & (bin_area + area <= limit)
        u = jitter[0::2]
        v = jitter[1::2]
        bw = mesh.bin_width
        bh = mesh.bin_height
        if rescan:
            x = (ti + 0.5) * bw + (u - 0.5) * (0.5 * bw) * 2.0
            y = (tj + 0.5) * bh + (v - 0.5) * (0.5 * bh) * 2.0
        else:
            x = (ti + u) * bw
            y = (tj + v) * bh

        # swaps: the first members of each target, or its sample
        n_swaps = np.where(own, 0, np.minimum(count,
                                              MAX_SWAP_CANDIDATES))
        sw_target = np.repeat(np.arange(len(owner), dtype=np.int64),
                              n_swaps)
        nth = (np.arange(len(sw_target), dtype=np.int64)
               - np.repeat(np.cumsum(n_swaps) - n_swaps, n_swaps))
        member = nth.copy()
        member[crowded[sw_target]] = picks.ravel()
        partner = ids[start[sw_target] + member]
        other_area = areas[partner]
        sw_area = area[sw_target]
        cur_area = mesh._area[tuple(cur_bins.T)][owner[sw_target]]
        can_swap = ((partner != cells[owner[sw_target]])
                    & ~(bin_area[sw_target] - other_area + sw_area > limit)
                    & ~(cur_area - sw_area + other_area > limit))

        # lay each target's move and swaps out in generation order
        slots = 1 + n_swaps
        first = np.cumsum(slots) - slots
        sw_slot = first[sw_target] + 1 + nth
        keep = np.zeros(int(slots.sum()), dtype=bool)
        keep[first] = can_move
        keep[sw_slot] = can_swap
        cand_partner = np.full(len(keep), -1, dtype=np.int64)
        cand_partner[sw_slot] = partner
        cand_x = np.zeros(len(keep), dtype=np.float64)
        cand_x[first] = x
        cand_y = np.zeros(len(keep), dtype=np.float64)
        cand_y[first] = y
        slot_owner = np.repeat(owner, slots)[keep]
        span = np.zeros(len(cells) + 1, dtype=np.int64)
        np.cumsum(np.bincount(slot_owner, minlength=len(cells)),
                  out=span[1:])
        return _Block(cell=cells[slot_owner],
                      partner=cand_partner[keep], x=cand_x[keep],
                      y=cand_y[keep],
                      bins=np.repeat(bins, slots, axis=0)[keep],
                      span=span)

    def _current_members(self, bins: IntArray
                         ) -> Tuple[IntArray, IntArray, IntArray]:
        """``(start, count, ids)`` of the bins' current members:
        bin ``t``'s cells are ``ids[start[t]:start[t] + count[t]]``, in
        the order :attr:`members` lists them."""
        lists = [self.members.get(index, ())
                 for index in map(tuple, bins.tolist())]
        count = np.fromiter(map(len, lists), dtype=np.int64,
                            count=len(lists))
        ids = np.fromiter(chain.from_iterable(lists), dtype=np.int64,
                          count=int(count.sum()))
        return np.cumsum(count) - count, count, ids

    def _draws(self, targets: IntArray, crowded_owner: IntArray,
               crowded_count: IntArray) -> Tuple[FloatArray, IntArray]:
        """The random stream of some cells' candidates, in one order.

        Cell by cell: two jitter values per target (``targets[q]`` of
        them for cell ``q``), then one sample of
        :data:`MAX_SWAP_CANDIDATES` member positions without
        replacement per crowded target, in target order (their owners
        and member counts are ``crowded_owner`` and ``crowded_count``).

        Returns:
            ``(jitter, picks)``: ``(u, v)`` pairs of every target in
            order, and one row of positions per crowded target.
        """
        rng = self._rng
        jitter: List[FloatArray] = []
        picks: List[IntArray] = []
        bounds = np.searchsorted(
            crowded_owner,
            np.arange(len(targets) + 1, dtype=np.int64)).tolist()
        counts = crowded_count.tolist()
        for q, n in enumerate(targets.tolist()):
            jitter.append(rng.random(2 * n))
            for size in counts[bounds[q]:bounds[q + 1]]:
                picks.append(rng.choice(size, MAX_SWAP_CANDIDATES,
                                        replace=False))
        return (np.concatenate(jitter),
                np.asarray(picks, dtype=np.int64).reshape(
                    -1, MAX_SWAP_CANDIDATES))

    def _rescan(self, cid: int, local_only: bool, radius: int
                ) -> Tuple[_Best, BinIndex]:
        """A displaced cell's best candidate, scored against the current
        state, and its current bin: phase 1's generator and selector on
        a one-cell block."""
        cells = np.asarray([cid], dtype=np.int64)
        cur_bins, centres = self._bins(cells, local_only)
        block = self._candidates(cells, cur_bins, centres, local_only,
                                 radius, rescan=True)
        row = _Best(1)
        self._keep_best(block, 0, row)
        bi, bj, bk = cur_bins[0].tolist()
        return row, (bi, bj, bk)

    def _update_bins(self, cid: int, cur_bin: BinIndex,
                     target_bin: BinIndex,
                     swap_partner: Optional[int]) -> None:
        """Move a committed action's cells between bins, in area and in
        membership: a moved cell joins its target bin, a swapped pair
        the bins of their new coordinates."""
        mesh = self.mesh
        members = self.members
        area = float(self._areas[cid])
        members[cur_bin].remove(cid)
        mesh.remove_area(cur_bin, area)
        if swap_partner is None:
            members.setdefault(target_bin, []).append(cid)
            mesh.add_area(target_bin, area)
            return
        partner_area = float(self._areas[swap_partner])
        members[target_bin].remove(swap_partner)
        mesh.remove_area(target_bin, partner_area)
        # the partner takes the cell's old slot; the cell takes the
        # partner's exact old position (inside target_bin)
        pair = [cid, swap_partner]
        placement = self.objective.placement
        new_bins = zip(*(axis.tolist() for axis in mesh.bins_at(
            placement.x[pair], placement.y[pair], placement.z[pair])))
        for c, a, index in zip(pair, (area, partner_area), new_bins):
            members.setdefault(index, []).append(c)
            mesh.add_area(index, a)
