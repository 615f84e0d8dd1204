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
Each axis is shifted in one array pass over all of its rows.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.analysis import FloatArray, IntArray, hot_path
from repro.core.objective import ObjectiveState, first_minima
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


def shifted_widths(densities: ArrayLike, width: float,
                   a_lower: float, a_upper: float, b: float) -> FloatArray:
    """New widths of rows of bins (the core of Eq. 16).

    Expansion demanded by congested bins is matched exactly by
    contraction of sparse bins in the same row (whichever side offers
    less scales the other down), so each row's total width is conserved
    and rows without congestion do not move at all.

    The rows are summed from a C-contiguous copy: numpy reduces a
    strided row (say one read through a transposed view) in another
    order, which can change a row's sums in the last bit.

    Args:
        densities: current bin densities, one row (1-D) or a
            ``(rows, bins)`` array of rows balanced independently.
        width: current (uniform) bin width.
        a_lower, a_upper, b: the Figure 2 response parameters.

    Returns:
        New bin widths in the shape of ``densities``; each row sums to
        its bin count times ``width``.
    """
    d = np.ascontiguousarray(densities, dtype=np.float64)
    congested = d > 1.0
    factor = np.where(congested,
                      a_upper * (1.0 - 1.0 / np.maximum(d, 1e-12)) + b,
                      a_lower * (d - 1.0) + b)
    factor = np.clip(factor, MIN_WIDTH_FACTOR, None)
    expansion = np.where(congested & (factor > 1.0),
                         (factor - 1.0) * width, 0.0)
    contraction = np.where(~congested & (factor < 1.0),
                           (1.0 - factor) * width, 0.0)
    need = expansion.sum(axis=-1, keepdims=True)
    available = contraction.sum(axis=-1, keepdims=True)
    # a row with nothing to expand or nothing to give matches 0, so
    # its widths stay exactly ``width``
    matched = np.minimum(need, available)
    new = width + expansion * (matched / np.where(need > 0.0, need, 1.0))
    new -= contraction * (matched / np.where(available > 0.0, available,
                                             1.0))
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
        cells = placement.netlist.movable_ids
        moved = cells[(placement.x[cells] != xs[cells])
                      | (placement.y[cells] != ys[cells])
                      | (placement.z[cells] != zs[cells])]
        if len(moved):
            self.objective.apply_moves(list(zip(
                moved.tolist(), xs[moved].tolist(), ys[moved].tolist(),
                zs[moved].tolist())))

    def _rebuild_mesh(self) -> None:
        placement = self.objective.placement
        self.mesh.build_from_placement(placement,
                                       placement.netlist.areas)

    # ------------------------------------------------------------------
    @hot_path
    def _shift_axis(self, axis: str) -> None:
        """Shift every row of bins along one axis (Eqs. 16-17).

        One :func:`shifted_widths` call sizes the bins of every row,
        and each cell of a row that shifts is remapped linearly into
        its bin's new extent.  All cells' beta candidates are scored
        against the axis-entry state in one batched objective call, and
        each cell's first best is committed in one joint apply: a cell
        belongs to exactly one row, so the candidates are disjoint.

        Candidates come row by row, then by bin along the axis, cell
        id and beta.  Rows go by (layer, y) for x, (layer, x) for y and
        (y, x) for z: ``transpose`` puts the mesh's bins in that order,
        the shifting axis last.  The joint apply's move order is the
        order in which the objective accumulates its caches, so it is
        part of the result.
        """
        mesh = self.mesh
        placement = self.objective.placement
        chip = placement.chip
        transpose = {"x": (2, 1, 0), "y": (2, 0, 1), "z": (1, 0, 2)}[axis]
        shape = (mesh.nx, mesh.ny, mesh.nz)
        n_bins = shape[transpose[2]]
        if n_bins < 2:
            return
        bins = mesh.bins_of(placement)
        cells = placement.netlist.movable_ids
        row = bins[transpose[0]] * shape[transpose[1]] + bins[transpose[1]]
        at = bins[transpose[2]]  # bin along the axis
        key = row * n_bins + at  # each cell's bin, in pass order
        if axis == "z":
            coords = self._virtual_layers(key, at)
            width = 1.0  # z rows are measured in layer units
        elif axis == "x":
            coords, width = placement.x[cells], mesh.bin_width
        else:
            coords, width = placement.y[cells], mesh.bin_height
        new_widths = shifted_widths(
            mesh.densities.transpose(transpose).reshape(-1, n_bins),
            width, A_LOWER, A_UPPER, B)
        shifts = ~np.isclose(new_widths, width).all(axis=1)
        sel = np.flatnonzero(shifts[row])  # cells of the shifting rows
        sel = sel[np.argsort(key[sel], kind="stable")]
        row, at, old = row[sel], at[sel], coords[sel]
        # each bin's new lower bound, an in-order sum along its row
        new_bounds = np.zeros((len(new_widths), n_bins), dtype=np.float64)
        np.cumsum(new_widths[:, :-1], axis=1, out=new_bounds[:, 1:])
        target = (new_widths[row, at] / width * (old - at * width)
                  + new_bounds[row, at])
        betas = np.asarray(BETA_CANDIDATES if self._fixed_beta is None
                           else (self._fixed_beta,), dtype=np.float64)
        # Eq. 17: every cell's candidates in beta order
        shifted = (betas * target[:, None]
                   + (1.0 - betas) * old[:, None]).ravel()
        ids = np.repeat(cells[sel], len(betas))
        xs, ys, zs = placement.x[ids], placement.y[ids], placement.z[ids]
        if axis == "x":
            xs = np.clip(shifted, 0.0, chip.width)
        elif axis == "y":
            ys = np.clip(shifted, 0.0, chip.height)
        else:
            layers = np.clip(np.rint(shifted - 0.5), 0,
                             chip.num_layers - 1).astype(np.int64)
            moved = layers != zs
            ids, xs, ys, zs = ids[moved], xs[moved], ys[moved], layers[moved]
        if not len(ids):
            return
        deltas = self.objective.eval_moves_batch(ids, xs, ys, zs)
        head = np.ones(len(ids), dtype=bool)
        np.not_equal(ids[1:], ids[:-1], out=head[1:])
        pick = first_minima(deltas, np.flatnonzero(head))
        self.objective.apply_moves(list(zip(
            ids[pick].tolist(), xs[pick].tolist(), ys[pick].tolist(),
            zs[pick].tolist())))

    @hot_path
    def _virtual_layers(self, bin_of: IntArray, layer: IntArray
                        ) -> FloatArray:
        """Continuous z coordinates of the movable cells, in layer units.

        The z coordinate is discrete: every cell of a layer sits at the
        same z, so Eq. 17's linear remap could never split a layer.
        The ``n`` cells of a bin (``bin_of``) on layer ``k`` are spread
        over the layer's unit interval instead, rank ``r`` at
        ``k + (r + 0.5) / n``.  Cells rank by the objective delta of a
        one-layer lift, most costly lowest, ties by cell id, so the
        cells cheapest to move upward (low-power cells under thermal
        placement) occupy the top of the interval and are the first to
        spill into the next layer when the bin expands.  Top-layer
        cells cannot move up and count as infinitely costly.  The lift
        costs are one batched call, made on every z pass.
        """
        placement = self.objective.placement
        cells = placement.netlist.movable_ids
        z = placement.z[cells]
        liftable = z + 1 < placement.chip.num_layers
        lift = cells[liftable]
        cost = np.full(len(cells), np.inf, dtype=np.float64)
        cost[liftable] = self.objective.eval_moves_batch(
            lift, placement.x[lift], placement.y[lift], z[liftable] + 1)
        order = np.lexsort((-cost, bin_of))
        count = np.bincount(bin_of)
        rank = np.empty(len(cells), dtype=np.int64)
        rank[order] = (np.arange(len(cells), dtype=np.int64)
                       - (np.cumsum(count) - count)[bin_of[order]])
        return layer + (rank + 0.5) / count[bin_of]
