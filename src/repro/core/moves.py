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

from array import array
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.analysis import IntArray
from repro.core.config import PlacementConfig
from repro.core.objective import BATCH_CHUNK, ObjectiveState, first_minima
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


class _Candidates:
    """One scoring buffer of move/swap candidates in flat typed buffers.

    A move is ``(cell, x, y, bin)`` and a swap ``(cell, partner, bin)``;
    bins are stored as ``(i, j, k)`` triples, and a move lands on its
    bin's layer ``k``.  ``entry`` lists every candidate in generation
    order (``k`` for move ``k``, ``~k`` for swap ``k``), and ``span``
    holds where each cell's run of entries starts, plus a final end:
    the buffer's ``i``-th cell owns ``entry[span[i]:span[i + 1]]``.
    The buffers go to the batch scorers as zero-copy ``np.frombuffer``
    views, and an ``array`` a view still holds cannot grow, so every
    buffer is scored once and then replaced by a fresh one.
    """

    def __init__(self) -> None:
        self.mv_cell: array[int] = array("q")
        self.mv_x: array[float] = array("d")
        self.mv_y: array[float] = array("d")
        self.mv_bin: array[int] = array("q")
        self.sw_a: array[int] = array("q")
        self.sw_b: array[int] = array("q")
        self.sw_bin: array[int] = array("q")
        self.entry: array[int] = array("q")
        self.span: array[int] = array("q", [0])


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


def _bin_list(bins: Tuple[IntArray, IntArray, IntArray]
              ) -> List[BinIndex]:
    """Per-point ``(i, j, k)`` tuples of an array triple of bins."""
    return list(zip(*(axis.tolist() for axis in bins)))


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
        placement; each bin lists its cells by ascending id."""
        placement = self.objective.placement
        mesh = self.mesh
        mesh.build_from_placement(placement, self._areas)
        i, j, k = mesh.bins_of(placement)
        flat = (i * mesh.ny + j) * mesh.nz + k
        order = np.argsort(flat, kind="stable")
        ids = placement.netlist.movable_ids[order].tolist()
        starts = np.flatnonzero(np.diff(flat[order], prepend=-1))
        heads = order[starts]
        bounds = starts.tolist() + [len(ids)]
        self.members = {
            index: ids[lo:hi] for index, lo, hi in zip(
                _bin_list((i[heads], j[heads], k[heads])), bounds,
                bounds[1:])}

    def _bins(self, cells: List[int], local_only: bool
              ) -> Tuple[List[BinIndex], List[BinIndex]]:
        """Each cell's current bin, and the bin its target region
        centres on: the current bin in a local pass, else the bin of
        the cell's optimal-region centre, on the nearest layer."""
        placement = self.objective.placement
        mesh = self.mesh
        current = _bin_list(mesh.bins_at(placement.x[cells],
                                         placement.y[cells],
                                         placement.z[cells]))
        if local_only:
            return current, current
        centre = self.objective.optimal_region_centers(cells)
        return current, _bin_list(mesh.bins_at(centre[0], centre[1],
                                               np.rint(centre[2])))

    def _targets(self, centre: BinIndex, local_only: bool,
                 radius: int) -> List[BinIndex]:
        """Target bins of one cell: the bins within ``radius`` of its
        region's centre bin (:meth:`_bins`)."""
        mesh = self.mesh
        targets = mesh.bins_within(centre, radius)
        # The optimal-region z is the nets' median layer; with
        # thermal placement on, the objective minimum may sit on
        # a cooler layer instead, so the full vertical stack at
        # the optimal lateral position joins the target region.
        if not local_only and self.config.alpha_temp > 0:
            ci, cj, _ = centre
            for k in range(mesh.nz):
                index = (ci, cj, k)
                if index not in targets:
                    targets.append(index)
        return targets

    def _pass(self, local_only: bool, radius: int) -> int:
        """One move/swap pass in two phases.

        Phase 1 generates every cell's candidates against a snapshot of
        the entering state into flat buffers (:class:`_Candidates`).
        Whenever a buffer holds :data:`BATCH_CHUNK` candidates, at the
        end of a cell, it is scored in one batched move call and one
        batched swap call, and only each cell's best candidate, the
        first minimum of its span in generation order, is kept
        (:class:`_Best`); so phase 1 holds O(``BATCH_CHUNK``)
        candidates plus one record per cell, at any size.  A delta
        depends only on its own candidate, so where the buffers end
        changes nothing.  Phase 2 walks the cells in permutation order
        and greedily applies each cell's best candidate.  A cached
        candidate was scored against the snapshot, so it is checked
        against the current state first: its target bin must still have
        room, a swap partner must not have moved, and once earlier
        applies have dirtied the cell's (or the partner's) incident nets
        its delta is re-checked with a scalar evaluation.  A cell
        displaced mid-pass by a swap partner is rescanned from its new
        position through the same generator and selector
        (:meth:`_rescan`); that candidate is scored against the current
        state and needs none of these checks.
        """
        self._rebuild_mesh()
        placement = self.objective.placement
        obj = self.objective
        mesh = self.mesh
        order: List[int] = self._rng.permutation(self._movable).tolist()

        # ---- phase 1: candidate generation + chunked batch scores -----
        cur_bins, centres = self._bins(order, local_only)
        best = _Best(len(order))
        cand = _Candidates()
        first = 0  # pass-order index of the buffer's first cell
        n_cand = 0
        for i, cid in enumerate(order):
            self._collect_candidates(
                cid, cur_bins[i],
                self._targets(centres[i], local_only, radius), cand)
            if len(cand.entry) >= BATCH_CHUNK or i == len(order) - 1:
                n_cand += len(cand.entry)
                self._keep_best(cand, first, best)
                cand = _Candidates()
                first = i + 1

        # ---- phase 2: greedy apply with staleness tracking -----------
        executed = 0
        dirty: Set[int] = set()
        moved_since: Set[int] = set()
        areas = self._areas
        limit = DENSITY_LIMIT * mesh.bin_capacity
        cell_nets = obj.cell_nets
        for i, cid in enumerate(order):
            cached = cid not in moved_since
            if cached:
                cur_bin, row, r = cur_bins[i], best, i
            else:
                # displaced by an earlier swap: rescan from the new spot
                (cur_bin,), (centre,) = self._bins([cid], local_only)
                row, r = self._rescan(
                    cid, cur_bin,
                    self._targets(centre, local_only, radius)), 0
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

    def _keep_best(self, cand: _Candidates, first: int,
                   best: _Best) -> None:
        """Score one buffer and record each of its cells' best candidate.

        The buffer's cells go to rows ``first``, ``first + 1``, ... of
        ``best``.  Each keeps the first minimum of its span
        (:func:`~repro.core.objective.first_minima`).
        """
        mv_x = np.frombuffer(cand.mv_x, dtype=np.float64)
        mv_y = np.frombuffer(cand.mv_y, dtype=np.float64)
        mv_bin = np.frombuffer(cand.mv_bin, dtype=np.int64).reshape(-1, 3)
        sw_b = np.frombuffer(cand.sw_b, dtype=np.int64)
        sw_bin = np.frombuffer(cand.sw_bin, dtype=np.int64).reshape(-1, 3)
        move_deltas = self.objective.eval_moves_batch(
            np.frombuffer(cand.mv_cell, dtype=np.int64), mv_x, mv_y,
            mv_bin[:, 2])
        swap_deltas = self.objective.eval_swaps_batch(
            np.frombuffer(cand.sw_a, dtype=np.int64), sw_b)
        # every candidate's delta in generation order: entry k >= 0 is
        # move k, entry ~k is swap k
        entry = np.frombuffer(cand.entry, dtype=np.int64)
        deltas = np.concatenate((move_deltas, swap_deltas))[
            np.where(entry >= 0, entry, len(move_deltas) + ~entry)]

        span = np.frombuffer(cand.span, dtype=np.int64)
        owners = np.flatnonzero(np.diff(span))  # cells with candidates
        if not len(owners):
            return
        pick = first_minima(deltas, span[owners])
        rows = first + owners
        best.delta[rows] = deltas[pick]
        k = entry[pick]
        is_move = k >= 0
        mv, mv_rows = k[is_move], rows[is_move]
        best.x[mv_rows] = mv_x[mv]
        best.y[mv_rows] = mv_y[mv]
        best.bins[mv_rows] = mv_bin[mv]
        sw, sw_rows = ~k[~is_move], rows[~is_move]
        best.partner[sw_rows] = sw_b[sw]
        best.bins[sw_rows] = sw_bin[sw]

    def _collect_candidates(self, cid: int, cur_bin: BinIndex,
                            targets: List[BinIndex], cand: _Candidates,
                            *, centred: bool = False) -> None:
        """Append one cell's move/swap candidates to ``cand`` in
        generation order, and close the cell's span.

        The random stream is drawn in one order: two jitter values per
        target, then a swap-partner sample per crowded target bin.  A
        move to bin ``(i, j, k)`` with jitter ``(u, v)`` lands at
        ``x = (i + u) * bin_width``, or, with ``centred`` (a rescanned
        cell), at ``x = (i + 0.5) * bin_width + (u - 0.5) *
        (0.5 * bin_width) * 2.0``; ``y`` alike.  The two can differ in
        the last bit, and writing both the same way changes placements
        (DESIGN.md, "Two WL associations").
        """
        mesh = self.mesh
        areas = self._areas
        area = float(areas[cid])
        limit = DENSITY_LIMIT * mesh.bin_capacity
        bin_area = mesh._area
        bin_members = self.members
        bw = mesh.bin_width
        bh = mesh.bin_height
        cur_area = float(bin_area[cur_bin])
        # jittered landing points keep successive movers to one bin
        # from piling up on one spot
        jitter = self._rng.random(2 * len(targets)).tolist()
        for ti, t in enumerate(targets):
            if t == cur_bin:
                continue
            area_t = float(bin_area[t])
            if area_t + area <= limit:
                u, v = jitter[2 * ti], jitter[2 * ti + 1]
                cand.entry.append(len(cand.mv_cell))
                cand.mv_cell.append(cid)
                if centred:
                    cand.mv_x.append((t[0] + 0.5) * bw
                                     + (u - 0.5) * (0.5 * bw) * 2.0)
                    cand.mv_y.append((t[1] + 0.5) * bh
                                     + (v - 0.5) * (0.5 * bh) * 2.0)
                else:
                    cand.mv_x.append((t[0] + u) * bw)
                    cand.mv_y.append((t[1] + v) * bh)
                cand.mv_bin.extend(t)
            members = bin_members.get(t)
            if not members:
                continue
            if len(members) > MAX_SWAP_CANDIDATES:
                members = list(self._rng.choice(
                    members, size=MAX_SWAP_CANDIDATES, replace=False))
            for other in members:
                other = int(other)
                if other == cid:
                    continue
                other_area = float(areas[other])
                # exchanged areas must keep both bins within the limit
                if area_t - other_area + area > limit:
                    continue
                if cur_area - area + other_area > limit:
                    continue
                cand.entry.append(~len(cand.sw_a))
                cand.sw_a.append(cid)
                cand.sw_b.append(other)
                cand.sw_bin.extend(t)
        cand.span.append(len(cand.entry))

    def _rescan(self, cid: int, cur_bin: BinIndex,
                targets: List[BinIndex]) -> _Best:
        """A displaced cell's best candidate, scored against the current
        state: phase 1's generator and selector on a one-cell buffer.
        """
        cand = _Candidates()
        self._collect_candidates(cid, cur_bin, targets, cand, centred=True)
        row = _Best(1)
        self._keep_best(cand, 0, row)
        return row

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
        new_bins = _bin_list(mesh.bins_at(placement.x[pair],
                                          placement.y[pair],
                                          placement.z[pair]))
        for c, a, index in zip(pair, (area, partner_area), new_bins):
            members.setdefault(index, []).append(c)
            mesh.add_area(index, a)
