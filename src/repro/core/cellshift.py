"""Row-aware cell shifting (Section 4.1, Figures 1-2, Eqs. 16-17).

Cell shifting spreads cells by moving density-bin boundaries: congested
bins widen, sparse bins narrow, and cells are remapped linearly into the
new bin extents.  The paper identifies two failure modes of FastPlace's
original two-adjacent-bins formulation and fixes both by considering the
whole row of bins at once:

1. **Boundary cross-over** — our new widths are always positive and the
   boundaries are their cumulative sums, so they cannot get out of
   order, preserving relative cell order.
2. **Needless spreading** — sparse bins contract only by exactly as
   much as the congested bins *in the same row* need to expand (scaled
   to match on both sides); a row with no congestion is left untouched.

The width response to density follows Figure 2:

    W'/W = a_lower * (d - 1) + b          for d <= 1
    W'/W = a_upper * (1 - 1/d) + b        for d > 1

and the per-row balancing plays the role of "adjusting a_lower, a_upper
and b so that expansions are balanced with contractions".

Cells are remapped with Eq. 17, blended by a per-cell movement-retention
factor ``beta`` picked per cell from a small candidate set to minimize
objective degradation (never zero, so spreading always progresses).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import FloatArray, IntArray
from repro.core.objective import ObjectiveState
from repro.geometry.density import DensityMesh
from repro.obs import get_recorder

#: Movement-retention candidates tried per cell (Eq. 17's beta).
BETA_CANDIDATES = (1.0, 0.5, 0.25)

#: Shifting iterates until the coarse mesh's max density drops to this
#: ("a desired value close to one").
MAX_DENSITY = 1.15

#: Hard cap on shifting iterations.
MAX_ITERATIONS = 40

#: Figure 2's ``a_upper``: width response slope of congested bins.
A_UPPER = 1.0

#: Figure 2's ``a_lower``: width response slope of sparse bins.
A_LOWER = 0.5

#: Figure 2's ``b``: width ratio of a bin at density one.
B = 1.0

#: Bins never shrink below this fraction of their old width, so widths
#: stay strictly positive and boundaries cannot cross over.
MIN_WIDTH_FACTOR = 0.1


def shifted_widths(densities: Sequence[float], width: float,
                   a_lower: float, a_upper: float, b: float) -> FloatArray:
    """New widths of one row of bins (the core of Eq. 16).

    Expansion demanded by congested bins is matched exactly by
    contraction of sparse bins in the same row (whichever side offers
    less scales the other down), so the row's total width is conserved
    and rows without congestion do not move at all.

    Args:
        densities: current bin densities along the row.
        width: current (uniform) bin width.
        a_lower, a_upper, b: the Figure 2 response parameters.

    Returns:
        Array of new bin widths summing to ``len(densities) * width``.
    """
    d = np.asarray(densities, dtype=np.float64)
    n = len(d)
    congested = d > 1.0
    if not congested.any():
        return np.full(n, width, dtype=np.float64)
    factor = np.where(congested,
                      a_upper * (1.0 - 1.0 / np.maximum(d, 1e-12)) + b,
                      a_lower * (d - 1.0) + b)
    factor = np.clip(factor, MIN_WIDTH_FACTOR, None)
    expansion = np.where(congested & (factor > 1.0),
                         (factor - 1.0) * width, 0.0)
    contraction = np.where(~congested & (factor < 1.0),
                           (1.0 - factor) * width, 0.0)
    need = float(expansion.sum())
    available = float(contraction.sum())
    if need <= 0.0 or available <= 0.0:
        return np.full(n, width, dtype=np.float64)
    matched = min(need, available)
    new = np.full(n, width, dtype=np.float64)
    new += expansion * (matched / need)
    new -= contraction * (matched / available)
    return new


class CellShifter:
    """Iterative cell shifting over a coarse density mesh.

    Args:
        objective: the shared incremental objective; all cell movement
            flows through it so its caches stay valid.
    """

    def __init__(self, objective: ObjectiveState) -> None:
        self.objective = objective
        # movement-retention override; None = per-cell greedy candidates
        self._fixed_beta: Optional[float] = None
        placement = objective.placement
        netlist = placement.netlist
        self.mesh = DensityMesh.coarse_for(
            placement.chip, netlist.average_cell_width,
            netlist.average_cell_height)

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Shift until the max bin density reaches the target, for at
        most :data:`MAX_ITERATIONS` iterations.

        Returns:
            The number of iterations executed.
        """
        rec = get_recorder()
        iterations = 0
        self._fixed_beta = None
        placement = self.objective.placement
        best_overflow: Optional[float] = None
        best_state: Optional[Tuple[FloatArray, FloatArray,
                                   IntArray]] = None
        stalled = 0
        for _ in range(MAX_ITERATIONS):
            self._rebuild_mesh()
            if rec.enabled:
                rec.record("cellshift/iteration",
                           iteration=float(iterations),
                           max_density=float(self.mesh.max_density),
                           overflow=float(self.mesh.overflow(
                               MAX_DENSITY)))
            if self.mesh.max_density <= MAX_DENSITY:
                best_state = None  # current state is the one to keep
                break
            overflow = self.mesh.overflow(MAX_DENSITY)
            if best_overflow is None or overflow < 0.98 * best_overflow:
                stalled = 0
            else:
                stalled += 1
                if self._fixed_beta is None:
                    rec.count("cellshift/stall_fallbacks")
                    # Objective-greedy movement retention is stalling
                    # the spread; switch to a fixed damped step (the
                    # paper's beta is "dynamically adjusted" —
                    # convergence outranks quality here, and the
                    # move/swap passes recover quality).
                    self._fixed_beta = 0.5
                elif stalled >= 3:
                    # Damped steps no longer help either: the residue is
                    # irreducible by shifting (e.g. cells wider than a
                    # bin, whose centre-binned density cannot drop below
                    # their own footprint).  Detailed legalization
                    # absorbs what remains.
                    break
            if best_overflow is None or overflow < best_overflow:
                best_overflow = overflow
                best_state = (placement.x.copy(), placement.y.copy(),
                              placement.z.copy())
            # z first: layer moves land cells in laterally dense spots,
            # which the x/y passes of the same iteration then spread
            for axis in ("z", "x", "y"):
                self._shift_axis(axis)
                self._rebuild_mesh()
            iterations += 1
        self._fixed_beta = None
        if best_state is not None:
            # keep whichever of {final state, best snapshot} overflows
            # less
            self._rebuild_mesh()
            final = self.mesh.overflow(MAX_DENSITY)
            assert best_overflow is not None
            if final > best_overflow:
                self._restore(best_state)
        if rec.enabled:
            rec.count("cellshift/total_iterations", float(iterations))
            rec.gauge("cellshift/final_max_density",
                      float(self.mesh.max_density))
        return iterations

    def _restore(self, state: Tuple[FloatArray, FloatArray, IntArray]
                 ) -> None:
        """Move cells back to a snapshotted (better) configuration,
        keeping the objective caches in sync."""
        xs, ys, zs = state
        placement = self.objective.placement
        moves: List[Tuple[int, float, float, int]] = []
        for cid, x, y, z in placement.iter_movable():
            if (x != xs[cid] or y != ys[cid] or z != zs[cid]):
                moves.append((cid, float(xs[cid]), float(ys[cid]),
                              int(zs[cid])))
        if moves:
            self.objective.apply_moves(moves)

    def _rebuild_mesh(self) -> None:
        placement = self.objective.placement
        self.mesh.build_from_placement(placement,
                                       placement.netlist.areas)

    # ------------------------------------------------------------------
    def _shift_axis(self, axis: str) -> None:
        """Shift every row along one axis.

        All rows' beta candidates are scored against the axis-entry
        state in one batched objective call and the chosen moves are
        committed as one joint apply — each cell belongs to exactly one
        row, so the candidates are disjoint and the per-apply
        bookkeeping runs once per axis instead of once per row.
        """
        mesh = self.mesh
        if axis == "x":
            rows = [(j, k) for k in range(mesh.nz)
                    for j in range(mesh.ny)]
        elif axis == "y":
            rows = [(i, k) for k in range(mesh.nz)
                    for i in range(mesh.nx)]
        else:
            if mesh.nz < 2:
                return
            rows = [(i, j) for j in range(mesh.ny)
                    for i in range(mesh.nx)]
        lift_cost = self._lift_costs() if axis == "z" else None
        spans: List[Tuple[int, int]] = []
        moves: List[Tuple[int, float, float, int]] = []
        for a, b in rows:
            self._shift_row(axis, a, b, spans, moves, lift_cost)
        if not moves:
            return
        deltas = self.objective.eval_moves_batch(
            [m[0] for m in moves], [m[1] for m in moves],
            [m[2] for m in moves], [m[3] for m in moves])
        chosen = [moves[lo + int(np.argmin(deltas[lo:hi]))]
                  for lo, hi in spans]
        self.objective.apply_moves(chosen)

    def _lift_costs(self) -> Dict[int, float]:
        """Objective delta of lifting each movable cell one layer up,
        for the z-axis virtual ordering — one batched call per pass."""
        placement = self.objective.placement
        chip = placement.chip
        cells: List[int] = []
        xs: List[float] = []
        ys: List[float] = []
        zs: List[int] = []
        for cid, x, y, z in placement.iter_movable():
            if int(z) + 1 < chip.num_layers:
                cells.append(cid)
                xs.append(float(x))
                ys.append(float(y))
                zs.append(int(z) + 1)
        deltas = self.objective.eval_moves_batch(cells, xs, ys, zs)
        return {cid: float(d) for cid, d in zip(cells, deltas)}

    def _row_geometry(self, axis: str) -> Tuple[int, float]:
        mesh = self.mesh
        if axis == "x":
            return mesh.nx, mesh.bin_width
        if axis == "y":
            return mesh.ny, mesh.bin_height
        return mesh.nz, 1.0  # z rows are measured in layer units

    def _shift_row(self, axis: str, a: int, b: int,
                   spans: List[Tuple[int, int]],
                   moves: List[Tuple[int, float, float, int]],
                   lift_cost: Optional[Dict[int, float]]) -> None:
        """Collect one row's shifted-remap candidates (Eqs. 16-17).

        Appends each cell's beta-candidate moves to the axis-wide batch
        lists; :meth:`_shift_axis` scores and applies them jointly.
        """
        mesh = self.mesh
        n_bins, width = self._row_geometry(axis)
        if n_bins < 2:
            return
        densities = mesh.row_densities(axis, a, b)
        new_widths = shifted_widths(densities, width, A_LOWER, A_UPPER, B)
        if np.allclose(new_widths, width):
            return
        old_bounds = np.arange(n_bins + 1, dtype=np.float64) * width
        new_bounds = np.concatenate(([0.0], np.cumsum(new_widths)))

        for i in range(n_bins):
            index = self._bin_index(axis, i, a, b)
            members = mesh.members(index)
            if not members:
                continue
            coords = self._member_coords(axis, i, members, lift_cost)
            for cid, coord in zip(members, coords):
                mapped = (new_widths[i] / width * (coord - old_bounds[i])
                          + new_bounds[i])
                cand = self._candidate_moves(axis, cid, coord, mapped)
                if cand:
                    spans.append((len(moves), len(moves) + len(cand)))
                    moves.extend(cand)

    def _member_coords(self, axis: str, bin_i: int,
                       members: Sequence[int],
                       lift_cost: Optional[Dict[int, float]]
                       ) -> List[float]:
        """Coordinates of a bin's cells along the shifting axis.

        For x and y these are the cells' true coordinates.  The z
        coordinate is discrete — every cell of a layer sits at exactly
        the same z, so Eq. 17's linear remap could never split a layer.
        Cells therefore get *virtual* coordinates spread across the
        layer's unit interval, ordered so that the cells cheapest to
        move upward (by the objective, i.e. low-power cells under
        thermal placement) occupy the top of the interval and are the
        first to spill into the next layer when the bin expands.
        Top-layer cells cannot move up and sort as infinitely costly.
        """
        if axis != "z":
            return [self._cell_coord(axis, cid) for cid in members]
        assert lift_cost is not None, "z shifting requires lift costs"
        costs = lift_cost
        inf = float("inf")
        order = sorted(members, key=lambda cid: costs.get(cid, inf),
                       reverse=True)
        n = len(order)
        rank_of = {cid: r for r, cid in enumerate(order)}
        return [bin_i + (rank_of[cid] + 0.5) / n for cid in members]

    @staticmethod
    def _bin_index(axis: str, i: int, a: int, b: int
                   ) -> Tuple[int, int, int]:
        if axis == "x":
            return (i, a, b)
        if axis == "y":
            return (a, i, b)
        return (a, b, i)

    def _cell_coord(self, axis: str, cid: int) -> float:
        placement = self.objective.placement
        if axis == "x":
            return float(placement.x[cid])
        if axis == "y":
            return float(placement.y[cid])
        return float(placement.z[cid]) + 0.5  # layer centre in layer units

    # ------------------------------------------------------------------
    def _candidate_moves(self, axis: str, cid: int, old: float,
                         target: float
                         ) -> List[Tuple[int, float, float, int]]:
        """Eq. 17's beta candidates for one cell, as move tuples.

        The caller batches these across a whole row of bins; ties go to
        the earliest (largest) beta via first-occurrence ``argmin``.
        """
        placement = self.objective.placement
        chip = placement.chip
        fixed = self._fixed_beta
        candidates = BETA_CANDIDATES if fixed is None else (fixed,)
        moves: List[Tuple[int, float, float, int]] = []
        for beta in candidates:
            coord = beta * target + (1.0 - beta) * old
            if axis == "x":
                x = min(max(coord, 0.0), chip.width)
                move = (cid, x, float(placement.y[cid]),
                        int(placement.z[cid]))
            elif axis == "y":
                y = min(max(coord, 0.0), chip.height)
                move = (cid, float(placement.x[cid]), y,
                        int(placement.z[cid]))
            else:
                layer = chip.clamp_layer(coord - 0.5)
                if layer == int(placement.z[cid]):
                    continue
                move = (cid, float(placement.x[cid]),
                        float(placement.y[cid]), layer)
            moves.append(move)
        return moves
