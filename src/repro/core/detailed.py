"""Detailed legalization (Section 5).

Places every cell into a legal, non-overlapping row slot while
minimizing objective degradation:

1. A fine density mesh (bins about one average cell) classifies bins
   into *exporters* (more cell width than capacity) and *acceptors*.
   Directed edges run from exporters to adjacent acceptors; since
   acceptors have no outgoing edges the graph is a DAG, and the derived
   processing order is "exporters first, most-overfull first" — cells
   that must move get first pick of the free space their neighbourhood
   will absorb.
2. Within a bin, cells are ordered by an objective-sensitivity estimate
   (connectivity times size): the cells whose displacement hurts most
   are placed closest to their current spots.
3. Each cell searches a target region of row segments around its
   position for the best available slot by objective delta, gradually
   expanding the region (and finally spilling to adjacent layers) until
   free space is found.

The result is a fully legal placement: every movable cell centred in a
row, inside the die, with no overlaps.
"""

from __future__ import annotations

import bisect as _bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import FloatArray
from repro.core.config import PlacementConfig
from repro.core.objective import ObjectiveState
from repro.geometry.density import DensityMesh
from repro.netlist.placement import Placement
from repro.obs import get_recorder

RowKey = Tuple[int, int]  # (layer, row index)


class RowSegments:
    """Occupied-interval bookkeeping for every row of every layer.

    Intervals are kept sorted by start coordinate; gaps are scanned
    around a desired position to find the nearest slot wide enough for
    a cell.
    """

    def __init__(self, placement: Placement) -> None:
        self.chip = placement.chip
        # per (layer, row): parallel sorted lists of starts and ends
        self._starts: Dict[RowKey, List[float]] = {}
        self._ends: Dict[RowKey, List[float]] = {}
        self._cids: Dict[RowKey, List[int]] = {}
        # per (layer, row): cached (gap_lo, gap_hi) lists; invalidated
        # on any mutation, rebuilt lazily by nearest_slot
        self._gap_cache: Dict[RowKey, Tuple[List[float], List[float]]] = {}

    def _lists(self, key: RowKey
               ) -> Tuple[List[float], List[float], List[int]]:
        return (self._starts.setdefault(key, []),
                self._ends.setdefault(key, []),
                self._cids.setdefault(key, []))

    def _gaps(self, key: RowKey) -> Tuple[List[float], List[float]]:
        """Free-gap boundary lists of a row, cached between mutations.

        Rows hold a few dozen intervals at most, so plain-list scans
        beat NumPy's per-call overhead here by a wide margin.
        """
        cached = self._gap_cache.get(key)
        if cached is None:
            starts, ends, _ = self._lists(key)
            lo = [0.0]
            run = 0.0
            for e in ends:
                if e > run:
                    run = e
                lo.append(run)
            hi = list(starts)
            hi.append(self.chip.width)
            cached = (lo, hi)
            self._gap_cache[key] = cached
        return cached

    def insert(self, layer: int, row: int, cid: int, x_center: float,
               width: float) -> None:
        """Occupy ``[x_center - w/2, x_center + w/2]`` in a row.

        Raises:
            ValueError: if the interval overlaps an existing one.
        """
        starts, ends, cids = self._lists((layer, row))
        lo = x_center - 0.5 * width
        hi = x_center + 0.5 * width
        i = _bisect.bisect_left(starts, lo)
        eps = 1e-12
        if i > 0 and ends[i - 1] > lo + eps:
            raise ValueError(f"overlap in layer {layer} row {row}")
        if i < len(starts) and starts[i] < hi - eps:
            raise ValueError(f"overlap in layer {layer} row {row}")
        starts.insert(i, lo)
        ends.insert(i, hi)
        cids.insert(i, cid)
        self._gap_cache.pop((layer, row), None)

    def remove(self, layer: int, row: int, cid: int) -> None:
        """Vacate a cell's interval in a row."""
        key = (layer, row)
        starts, ends, cids = self._lists(key)
        idx = cids.index(cid)
        del starts[idx], ends[idx], cids[idx]
        self._gap_cache.pop(key, None)

    def nearest_slot(self, layer: int, row: int, x_desired: float,
                     width: float) -> Optional[float]:
        """Centre x of the nearest free slot of ``width`` in a row.

        Returns None if the row has no gap wide enough.  The gap
        boundaries come from the row's cached arrays, so repeated
        queries between mutations cost a few array ops each.
        """
        if width > self.chip.width:
            return None
        gap_lo, gap_hi = self._gaps((layer, row))
        need = width - 1e-15
        half = 0.5 * width
        best = None
        best_d = float("inf")
        for lo, hi in zip(gap_lo, gap_hi):
            if hi - lo < need:
                continue
            c = x_desired
            if c < lo + half:
                c = lo + half
            elif c > hi - half:
                c = hi - half
            d = c - x_desired
            if d < 0.0:
                d = -d
            if d < best_d:
                best_d = d
                best = c
        return best

    def occupants(self, layer: int, row: int) -> List[int]:
        """Cell ids currently placed in a row, in x order."""
        return list(self._cids.get((layer, row), ()))

    def free_width(self, layer: int, row: int) -> float:
        """Total unoccupied width in a row."""
        starts, ends, _ = self._lists((layer, row))
        used = sum(e - s for s, e in zip(starts, ends))
        return self.chip.width - used

    def push_plan(self, layer: int, row: int, x_desired: float,
                  width: float
                  ) -> Optional[Tuple[float, List[Tuple[int, float]]]]:
        """Plan an insertion that shifts already-placed cells aside.

        Keeps the x-order of the row's occupants, inserts the new cell
        at the position nearest ``x_desired``, and resolves overlaps
        with a two-pass (left-to-right then right-to-left) repack.

        Returns:
            ``(new_center, [(cid, new_center), ...])`` for the displaced
            occupants, or None when the row cannot absorb the width.
        """
        starts, ends, cids = self._lists((layer, row))
        if self.free_width(layer, row) < width - 1e-15:
            return None
        lo = x_desired - 0.5 * width
        insert_at = _bisect.bisect_left(starts, lo)
        seq_w = ([ends[i] - starts[i] for i in range(insert_at)]
                 + [width]
                 + [ends[i] - starts[i] for i in range(insert_at,
                                                       len(starts))])
        seq_lo = (starts[:insert_at] + [lo] + starts[insert_at:])
        # left-to-right: push right to clear overlaps
        pos = list(seq_lo)
        prev_end = 0.0
        for i in range(len(pos)):
            pos[i] = max(pos[i], prev_end)
            prev_end = pos[i] + seq_w[i]
        # right-to-left: pull back anything shoved past the row end
        limit = self.chip.width
        for i in range(len(pos) - 1, -1, -1):
            pos[i] = min(pos[i], limit - seq_w[i])
            limit = pos[i]
        if pos and pos[0] < -1e-12:
            return None
        new_center = pos[insert_at] + 0.5 * width
        displaced: List[Tuple[int, float]] = []
        for i, p in enumerate(pos):
            if i == insert_at:
                continue
            j = i if i < insert_at else i - 1
            if abs(p - starts[j]) > 1e-15:
                displaced.append((cids[j], p + 0.5 * seq_w[i]))
        return new_center, displaced

    def apply_push(self, layer: int, row: int, cid: int,
                   new_center: float, width: float,
                   displaced: Sequence[Tuple[int, float]],
                   cell_widths: FloatArray) -> None:
        """Commit a :meth:`push_plan`: rewrite the row's intervals."""
        starts, ends, cids = self._lists((layer, row))
        moved = {c: x for c, x in displaced}
        entries: List[Tuple[float, float, int]] = []
        for s, e, c in zip(starts, ends, cids):
            w = e - s
            center = moved.get(c, s + 0.5 * w)
            entries.append((center - 0.5 * w, center + 0.5 * w, c))
        entries.append((new_center - 0.5 * width,
                        new_center + 0.5 * width, cid))
        entries.sort()
        self._starts[(layer, row)] = [e[0] for e in entries]
        self._ends[(layer, row)] = [e[1] for e in entries]
        self._cids[(layer, row)] = [e[2] for e in entries]
        self._gap_cache.pop((layer, row), None)


class DetailedLegalizer:
    """Runs detailed legalization on a placement.

    Args:
        objective: shared incremental objective (moves flow through it).
        config: placement configuration.
    """

    def __init__(self, objective: ObjectiveState,
                 config: PlacementConfig) -> None:
        self.objective = objective
        self.config = config
        self.placement = objective.placement
        self.netlist = self.placement.netlist
        self.chip = self.placement.chip

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Legalize every movable cell."""
        rec = get_recorder()
        order = self._processing_order()
        segments = RowSegments(self.placement)
        widths = self.netlist.widths
        pushes = 0
        for cid in order:
            pushes += self._place_cell(cid, float(widths[cid]),
                                       segments)
        if rec.enabled:
            rec.count("detailed/cells_placed", float(len(order)))
            rec.count("detailed/push_inserts", float(pushes))
            rec.count("detailed/gap_inserts",
                      float(len(order) - pushes))

    # ------------------------------------------------------------------
    def _processing_order(self) -> List[int]:
        """DAG-derived bin order, refined by per-cell sensitivity."""
        placement = self.placement
        netlist = self.netlist
        mesh = DensityMesh.fine_for(self.chip,
                                    netlist.average_cell_width,
                                    netlist.average_cell_height)
        areas = netlist.areas
        mesh.build_from_placement(placement, areas)
        # exporters (overfull) first, most overfull first; acceptors after
        bin_rank: Dict[Tuple[int, int, int], float] = {}
        capacity = mesh.bin_capacity
        overfull: List[Tuple[float, Tuple[int, int, int]]] = []
        underfull: List[Tuple[float, Tuple[int, int, int]]] = []
        for index, members in mesh.iter_members():
            if not members:
                continue
            excess = mesh.area_in(index) - capacity
            if excess > 0:
                overfull.append((-excess, index))
            else:
                underfull.append((excess, index))
        overfull.sort()
        underfull.sort()
        for rank, (_, index) in enumerate(overfull + underfull):
            bin_rank[index] = rank

        sensitivity = self._sensitivities()
        cells = [c.id for c in netlist.cells if c.movable]

        # Wide cells go first regardless of bin rank: at ~95% row
        # utilization only early rows have contiguous gaps their size,
        # so deferring them can make legalization infeasible (the same
        # reason real flows legalize macros before standard cells).
        widths = netlist.widths
        wide_cutoff = 3.0 * netlist.average_cell_width
        wide = sorted((c for c in cells if widths[c] > wide_cutoff),
                      key=lambda c: -float(widths[c]))
        rest = [c for c in cells if widths[c] <= wide_cutoff]

        def key(cid: int) -> Tuple[int, float]:
            index = mesh.bin_of(float(placement.x[cid]),
                                float(placement.y[cid]),
                                int(placement.z[cid]))
            return (bin_rank.get(index, len(bin_rank)),
                    -sensitivity[cid])

        return wide + sorted(rest, key=key)

    def _sensitivities(self) -> FloatArray:
        """Estimated objective sensitivity to moving each cell.

        Connectivity (incident signal-net count) scaled by footprint:
        big, well-connected cells hurt most when displaced, so they are
        placed while the free space near their positions is still
        intact.
        """
        netlist = self.netlist
        n = netlist.num_cells
        degree = np.zeros(n, dtype=np.float64)
        for net in netlist.nets:
            for cid in net.unique_cell_ids:
                degree[cid] += 1
        areas = netlist.areas
        mean_area = max(float(areas.mean()), 1e-30)
        return degree + areas / mean_area

    # ------------------------------------------------------------------
    def _place_cell(self, cid: int, width: float,
                    segments: RowSegments) -> int:
        """Place one cell; returns 1 if a push plan was needed, 0 if
        the cell landed in a free gap."""
        placement = self.placement
        chip = self.chip
        x0 = float(placement.x[cid])
        y0 = float(placement.y[cid])
        z0 = int(placement.z[cid])
        row0 = int(round((y0 - 0.5 * chip.row_height) / chip.row_pitch))
        row0 = min(max(row0, 0), chip.rows_per_layer - 1)

        best = self._search(cid, width, x0, z0, row0, segments)
        if best is None:
            raise RuntimeError(
                f"no legal slot for cell {self.netlist.cells[cid].name!r};"
                " the design does not fit the chip")
        _, x, y, z, row, plan = best
        if plan is None:
            self.objective.apply_moves([(cid, x, y, int(z))])
            segments.insert(int(z), row, cid, x, width)
            return 0
        displaced = plan
        moves = [(cid, x, y, int(z))]
        moves.extend(
            (dcid, dx, float(self.placement.y[dcid]),
             int(self.placement.z[dcid]))
            for dcid, dx in displaced)
        self.objective.apply_moves(moves)
        segments.apply_push(int(z), row, cid, x, width, displaced,
                            self.netlist.widths)
        return 1

    def _search(self, cid: int, width: float, x0: float,
                z0: int, row0: int, segments: RowSegments
                ) -> Optional[Tuple[Any, ...]]:
        """Best slot near the cell, expanding the search shell until
        one is found.

        Every shell covers *all layers* at the current row radius: the
        objective (which prices vias at alpha_ilv and knows the thermal
        term) decides whether a cell in a crowded neighbourhood hops a
        layer or shifts laterally — searching the whole home layer first
        would trade a one-via hop for die-crossing lateral displacement.
        Keeps expanding one extra radius after the first hit so a
        slightly farther row with a much better objective can win.
        """
        chip = self.chip
        n_rows = chip.rows_per_layer
        layers = sorted(range(chip.num_layers), key=lambda z: abs(z - z0))
        best: Optional[Tuple[Any, ...]] = None
        found_radius: Optional[int] = None
        radius = 0
        while radius < n_rows:
            rows: List[int] = []
            for r in (row0 - radius, row0 + radius):
                if 0 <= r < n_rows:
                    rows.append(r)
            if radius == 0:
                rows = rows[:1]
            # Free-gap candidates across the whole shell are scored in
            # one batched objective call; rows with no gap fall back to
            # the scalar push-plan evaluation.  Candidates keep their
            # (layer, row) scan order so ties resolve as the sequential
            # version did.
            shell: List[List[Any]] = []
            gap_idx: List[int] = []
            for layer in layers:
                for row in rows:
                    slot = segments.nearest_slot(layer, row, x0, width)
                    if slot is not None:
                        y = row * chip.row_pitch + 0.5 * chip.row_height
                        gap_idx.append(len(shell))
                        shell.append([None, slot, y, layer, row, None])
                    else:
                        cand = self._evaluate_push(cid, width, x0,
                                                   layer, row, segments)
                        if cand is not None:
                            shell.append(list(cand))
            if gap_idx:
                deltas = self.objective.eval_moves_batch(
                    [cid] * len(gap_idx),
                    [shell[k][1] for k in gap_idx],
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

    def _evaluate_push(self, cid: int, width: float, x0: float,
                       layer: int, row: int, segments: RowSegments
                       ) -> Optional[Tuple[float, float, float, int, int,
                                           List[Tuple[int, float]]]]:
        """Cost an insertion that shifts a full row's cells aside.

        Only called when the row has no free gap.  The joint move (cell
        plus displaced occupants) stays on the scalar objective path;
        single-cell gap candidates are batched by :meth:`_search`.
        """
        chip = self.chip
        y = row * chip.row_pitch + 0.5 * chip.row_height
        plan = segments.push_plan(layer, row, x0, width)
        if plan is None:
            return None
        center, displaced = plan
        moves = [(cid, center, y, layer)]
        moves.extend(
            (dcid, dx, float(self.placement.y[dcid]),
             int(self.placement.z[dcid]))
            for dcid, dx in displaced)
        delta = self.objective.eval_moves(moves)
        return (delta, center, y, layer, row, displaced)


# ----------------------------------------------------------------------
def check_legal(placement: Placement, tolerance: float = 1e-9) -> None:
    """Assert a placement is legal; raises ``AssertionError`` otherwise.

    Legality: every movable cell inside the die, centred on a row of its
    layer, and no two cells on the same row overlapping.
    """
    chip = placement.chip
    netlist = placement.netlist
    widths = netlist.widths
    rows: Dict[RowKey, List[Tuple[float, float, str]]] = {}
    for cell in netlist.cells:
        if not cell.movable:
            continue
        cid = cell.id
        x = float(placement.x[cid])
        y = float(placement.y[cid])
        z = int(placement.z[cid])
        w = float(widths[cid])
        if not (0 <= z < chip.num_layers):
            raise AssertionError(f"{cell.name}: layer {z} out of range")
        if x - 0.5 * w < -tolerance or x + 0.5 * w > chip.width + tolerance:
            raise AssertionError(f"{cell.name}: outside die in x")
        row_f = (y - 0.5 * chip.row_height) / chip.row_pitch
        row = int(round(row_f))
        if abs(row_f - row) > 1e-6 or not 0 <= row < chip.rows_per_layer:
            raise AssertionError(f"{cell.name}: not centred on a row "
                                 f"(y={y}, row_f={row_f})")
        rows.setdefault((z, row), []).append(
            (x - 0.5 * w, x + 0.5 * w, cell.name))
    for (z, row), intervals in rows.items():
        intervals.sort()
        for (lo1, hi1, n1), (lo2, hi2, n2) in zip(intervals,
                                                  intervals[1:]):
            if hi1 > lo2 + tolerance:
                raise AssertionError(
                    f"overlap between {n1} and {n2} on layer {z} "
                    f"row {row}")
