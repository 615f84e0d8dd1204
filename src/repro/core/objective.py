"""Incremental evaluation of the placement objective (Eq. 3).

    obj = sum_nets [ WL_i + a_ILV * ILV_i ]
        + a_TEMP * sum_cells R_j^cell * P_j^cell

The first term is over signal nets only.  The thermal term uses the
simple straight-path resistance model (position-dependent through the
cell's layer) and the dynamic power attribution of Eq. 10 with *actual*
net geometry — by coarse/detailed legalization time cells are spread
out, so the PEKO floors of global placement are no longer needed.

TRR nets never appear here: they are the partitioning-side *mechanism*
for the thermal term, which this class evaluates directly.

Data layout (the "kernel layer", see DESIGN.md):

- The static net/pin structure is a CSR-style pair of flat int arrays:
  ``_net_ptr`` (length ``csr.num_nets + 1``) and ``_pin_cell`` (one
  entry per unique net pin), so full recomputation (`rebuild`) is a
  handful of ``np.minimum.reduceat``/``np.maximum.reduceat`` segment
  reductions instead of a Python loop over per-net lists.  Drivers and
  the cell->net incidence have CSR mirrors of their own.
- Candidate scoring has two paths: :meth:`eval_moves` handles an
  arbitrary joint move set with O(local pins) scalar work, while
  :meth:`eval_moves_batch` / :meth:`eval_swaps_batch` score many
  *independent* candidates in one vectorized call, using per-net
  first/second-extreme caches ("what is the net's bounding box without
  this one pin").  The extreme caches are refreshed lazily: every
  :meth:`apply_moves` / :meth:`rebuild` marks them dirty and the next
  batched call rebuilds them with segment reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.analysis import (FloatArray, IntArray, contract, exact_nonzero,
                            exact_zero, hot_path, validate_arrays)
from repro.core.config import PlacementConfig
from repro.netlist.csr import signal_csr
from repro.netlist.placement import Placement
from repro.obs import get_recorder
from repro.thermal.power import PowerModel
from repro.thermal.resistance import ResistanceModel

Move = Tuple[int, float, float, int]  # (cell_id, x, y, layer)

#: Candidates per vectorized slice of :meth:`ObjectiveState.eval_moves_batch`
#: and :meth:`~ObjectiveState.eval_swaps_batch`.  A candidate's delta
#: reads only its own (candidate, net) pair rows and its own thermal
#: terms, and slices end between candidates, so a sliced call returns
#: the same bits as one unsliced call while its pair-row temporaries
#: stay a few MB at any batch size.
BATCH_CHUNK = 4096


@dataclass(frozen=True)
class ObjectiveTerms:
    """The Eq. 3 objective split into its three summands.

    Attributes:
        wirelength: total lateral HPWL, metres (= ``wl_term``).
        ilv: total interlayer-via count.
        wl_term: wirelength contribution to the objective.
        ilv_term: ``alpha_ilv * ilv`` contribution.
        thermal_term: ``alpha_temp * sum_j R_j P_j`` contribution.
    """

    wirelength: float
    ilv: int
    wl_term: float
    ilv_term: float
    thermal_term: float

    @property
    def total(self) -> float:
        """Sum of the three terms (equals ``ObjectiveState.total``)."""
        return self.wl_term + self.ilv_term + self.thermal_term

#: Per-axis extreme cache: (hi1, cnt_hi, hi2, lo1, cnt_lo, lo2) — the
#: count components are int64 rows, the rest float64.
ExtComponents = Tuple[NDArray[Any], ...]


class ObjectiveState:
    """Cached objective value with O(local) move evaluation.

    Args:
        placement: the placement being optimized; the state mirrors its
            coordinates and must be kept in sync via :meth:`apply_moves`.
        config: placement configuration (coefficients, technology).
        power_model: reused if provided (it is netlist-bound).
    """

    def __init__(self, placement: Placement, config: PlacementConfig,
                 power_model: Optional[PowerModel] = None) -> None:
        self.placement = placement
        self.config = config
        self.alpha_ilv = config.alpha_ilv
        self.alpha_temp = config.alpha_temp
        netlist = placement.netlist
        self.power_model = power_model or PowerModel(netlist, config.tech)
        n_cells = netlist.num_cells

        # --- static per-net structure (signal nets only) ---------------
        # The flat CSR arrays come from the netlist's cached SignalCSR
        # (built once per content, possibly int32-minimized and shared
        # across equal-content instances); the kernels here index much
        # larger products, so everything is upcast to int64 once at
        # construction.  List mirrors are kept for the scalar
        # (joint-move) path, where tiny-net Python loops still beat
        # per-array overhead.
        csr = signal_csr(netlist)
        self._net_ids: List[int] = csr.net_ids.tolist()
        self._pins: List[List[int]] = csr.pin_lists()
        self._drivers: List[List[int]] = csr.driver_lists()
        m = csr.num_nets
        ids = csr.net_ids.astype(np.int64, copy=False)
        self._s_wl: FloatArray = np.asarray(
            self.power_model.s_wl, dtype=np.float64)[ids]
        self._s_ilv: FloatArray = np.asarray(
            self.power_model.s_ilv, dtype=np.float64)[ids]
        self._pin_term: FloatArray = np.asarray(
            self.power_model.s_input_pins, dtype=np.float64)[ids]

        # net -> pin CSR
        self._net_deg = csr.net_deg.astype(np.int64)
        self._net_ptr = csr.net_ptr.astype(np.int64)
        self._pin_cell = csr.pin_cell.astype(np.int64)
        self._pin_net = csr.pin_net.astype(np.int64)
        # globally sorted membership keys: pins sorted within each net,
        # encoded as net * num_cells + cell (for vectorized searchsorted)
        self._pin_key = csr.pin_key

        # net -> driver CSR (with multiplicity, as the power model uses)
        self._drv_deg = np.diff(csr.drv_ptr).astype(np.int64)
        self._drv_ptr = csr.drv_ptr.astype(np.int64)
        self._drv_cell = csr.drv_cell.astype(np.int64)
        self._drv_net = csr.drv_net.astype(np.int64)

        # cell -> net CSR (+ the cell's driver-pin multiplicity per net)
        self._cell_net_ptr = csr.cell_net_ptr.astype(np.int64)
        self._cell_deg = np.diff(self._cell_net_ptr)
        self._cell_net_idx = csr.cell_net_idx.astype(np.int64)
        self._cell_net_drvmult: FloatArray = csr.cell_net_drvmult
        self._cell_nets: List[List[int]] = [
            e.tolist() for e in np.split(self._cell_net_idx,
                                         self._cell_net_ptr[1:-1])] \
            if n_cells else []

        # --- thermal resistance per (layer, cell) -----------------------
        # Lateral paths barely matter (the secondary film coefficient is
        # ~1e5x weaker than the heat sink), so the move-time resistance
        # is a function of layer and cell area, evaluated at the chip
        # centre.  This keeps move deltas O(1) while staying within a
        # fraction of a percent of the full 3D formula.
        rm = ResistanceModel(placement.chip, config.tech)
        areas = np.maximum(netlist.areas, 1e-18)
        cx = 0.5 * placement.chip.width
        cy = 0.5 * placement.chip.height
        self._r_by_layer: FloatArray = np.array(
            [[rm.cell_resistance(cx, cy, layer, float(a)) for a in areas]
             for layer in range(placement.chip.num_layers)],
            dtype=np.float64)

        self._extremes_dirty = True
        self._ext: Optional[Dict[str, ExtComponents]] = None
        self._ext_stack: Optional[ExtComponents] = None
        self._drv_rsum: Optional[FloatArray] = None
        self.rebuild()

    # ------------------------------------------------------------------
    @hot_path
    def rebuild(self) -> None:
        """Recompute every cache from the placement's current state."""
        get_recorder().count("objective/rebuilds")
        x = self.placement.x
        y = self.placement.y
        z = self.placement.z
        # scalar mirrors for the joint-move path
        self._xs: List[float] = x.tolist()
        self._ys: List[float] = y.tolist()
        self._zs: List[int] = [int(v) for v in z.tolist()]
        m = len(self._pins)
        if m:
            starts = self._net_ptr[:-1]
            px = x[self._pin_cell]
            py = y[self._pin_cell]
            pz = z[self._pin_cell].astype(np.float64)
            wl = (np.maximum.reduceat(px, starts)
                  - np.minimum.reduceat(px, starts)
                  + np.maximum.reduceat(py, starts)
                  - np.minimum.reduceat(py, starts))
            ilv = (np.maximum.reduceat(pz, starts)
                   - np.minimum.reduceat(pz, starts)).astype(np.int64)
        else:
            wl = np.zeros(0, dtype=np.float64)
            ilv = np.zeros(0, dtype=np.int64)
        self._wl: FloatArray = wl
        self._ilv: IntArray = ilv
        # leakage is position-independent but heats the cell, so it
        # belongs in the R_j * P_j term (zero by default)
        power = self.power_model.leakage_powers().astype(np.float64,
                                                         copy=True)
        if m:
            share = self._s_wl * wl + self._s_ilv * ilv + self._pin_term
            np.add.at(power, self._drv_cell, share[self._drv_net])
        self._power: FloatArray = power
        self._extremes_dirty = True
        self._total = self._compute_total()

    def _compute_total(self) -> float:
        net_term = float(self._wl.sum()) \
            + self.alpha_ilv * float(self._ilv.sum())
        thermal = 0.0
        if self.alpha_temp > 0:
            r = self._r_by_layer[self.placement.z,
                                 np.arange(len(self._power),
                                           dtype=np.int64)]
            thermal = float((r * self._power).sum())
        return net_term + self.alpha_temp * thermal

    # ------------------------------------------------------------------
    @hot_path
    def _refresh_extremes(self) -> None:
        """Per-net first/second extremes per axis, for exclusion queries.

        For each signal net and axis this caches the extreme value, how
        many pins attain it, and the runner-up value — enough to answer
        "what is the net's span if one given pin moves" without touching
        the other pins.  Invalidated by :meth:`apply_moves` and
        :meth:`rebuild`, rebuilt here with segment reductions.
        """
        if not self._extremes_dirty:
            return
        m = len(self._pins)
        starts = self._net_ptr[:-1]
        deg = self._net_deg
        pl = self.placement
        # primary storage is stacked (3, m) per component — axis order
        # x, y, z — so batch queries can fuse all three axes into one
        # fancy-indexed gather; self._ext holds per-axis row *views* of
        # the same memory, which the incremental updaters write through
        stack = [np.empty((3, m), dtype=np.float64),
                 np.empty((3, m), dtype=np.int64),
                 np.empty((3, m), dtype=np.float64),
                 np.empty((3, m), dtype=np.float64),
                 np.empty((3, m), dtype=np.int64),
                 np.empty((3, m), dtype=np.float64)]
        # lint: ok[RPL005] constant three-axis unrolling, not a per-net loop
        for ax, (axis, coords) in enumerate(
                (("x", pl.x), ("y", pl.y),
                 ("z", pl.z.astype(np.float64)))):
            if m:
                v = coords[self._pin_cell]
                hi1 = np.maximum.reduceat(v, starts)
                lo1 = np.minimum.reduceat(v, starts)
                at_hi = v == np.repeat(hi1, deg)
                at_lo = v == np.repeat(lo1, deg)
                stack[0][ax] = hi1
                stack[1][ax] = np.add.reduceat(at_hi.astype(np.int64),
                                               starts)
                stack[2][ax] = np.maximum.reduceat(
                    np.where(at_hi, -np.inf, v), starts)
                stack[3][ax] = lo1
                stack[4][ax] = np.add.reduceat(at_lo.astype(np.int64),
                                               starts)
                stack[5][ax] = np.minimum.reduceat(
                    np.where(at_lo, np.inf, v), starts)
        self._ext_stack = tuple(stack)
        self._ext = {axis: tuple(comp[ax] for comp in stack)
                     for ax, axis in enumerate(("x", "y", "z"))}
        if self.alpha_temp > 0:
            rsum = np.zeros(m, dtype=np.float64)
            if m and len(self._drv_cell):
                r = self._r_by_layer[pl.z[self._drv_cell], self._drv_cell]
                np.add.at(rsum, self._drv_net, r)
            self._drv_rsum = rsum
        self._extremes_dirty = False

    def _update_net_extremes(self, local: int) -> None:
        """Incrementally refresh one net's extreme cache (all axes).

        Nets are tiny (2-4 pins), so a scalar scan per net beats
        re-running the global segment reductions by orders of magnitude
        when only a handful of nets changed.
        """
        pins = self._pins[local]
        ext = self._ext
        assert ext is not None, "extreme caches queried while dirty"
        for axis, coords in (("x", self._xs), ("y", self._ys),
                             ("z", self._zs)):
            vals = [coords[c] for c in pins]
            hi1 = max(vals)
            lo1 = min(vals)
            hi2 = float("-inf")
            lo2 = float("inf")
            cnt_hi = 0
            cnt_lo = 0
            for v in vals:
                if v == hi1:
                    cnt_hi += 1
                elif v > hi2:
                    hi2 = v
                if v == lo1:
                    cnt_lo += 1
                elif v < lo2:
                    lo2 = v
            e = ext[axis]
            e[0][local] = hi1
            e[1][local] = cnt_hi
            e[2][local] = hi2
            e[3][local] = lo1
            e[4][local] = cnt_lo
            e[5][local] = lo2

    @hot_path
    def _update_nets_batch(self, nets: IntArray) -> None:
        """Refresh span caches, power attribution, and (when valid) the
        extreme caches of many nets with segment reductions.

        The vectorized counterpart of the per-net scalar bookkeeping in
        :meth:`apply_moves`; pays off once a joint move set touches a
        few dozen nets (whole-row cell shifting, snapshot restores).
        """
        deg = self._net_deg[nets]
        cum = np.cumsum(deg)
        starts = cum - deg
        total = int(cum[-1])
        offs = np.repeat(starts, deg)
        within = np.arange(total, dtype=np.int64) - offs
        pins = self._pin_cell[np.repeat(self._net_ptr[nets], deg)
                              + within]
        pl = self.placement
        ext = None if self._extremes_dirty else self._ext
        spans: Dict[str, Tuple[FloatArray, FloatArray]] = {}
        # lint: ok[RPL005] constant three-axis unrolling, not a per-net loop
        for axis, coords in (("x", pl.x), ("y", pl.y),
                             ("z", pl.z.astype(np.float64))):
            v = coords[pins]
            hi1 = np.maximum.reduceat(v, starts)
            lo1 = np.minimum.reduceat(v, starts)
            spans[axis] = (hi1, lo1)
            if ext is not None:
                at_hi = v == np.repeat(hi1, deg)
                at_lo = v == np.repeat(lo1, deg)
                e = ext[axis]
                e[0][nets] = hi1
                e[1][nets] = np.add.reduceat(at_hi.astype(np.int64),
                                             starts)
                e[2][nets] = np.maximum.reduceat(
                    np.where(at_hi, -np.inf, v), starts)
                e[3][nets] = lo1
                e[4][nets] = np.add.reduceat(at_lo.astype(np.int64),
                                             starts)
                e[5][nets] = np.minimum.reduceat(
                    np.where(at_lo, np.inf, v), starts)
        new_wl = (spans["x"][0] - spans["x"][1]
                  + spans["y"][0] - spans["y"][1])
        new_ilv = (spans["z"][0] - spans["z"][1]).astype(np.int64)
        d_wl = new_wl - self._wl[nets]
        d_ilv = new_ilv - self._ilv[nets]
        self._wl[nets] = new_wl
        self._ilv[nets] = new_ilv
        share = self._s_wl[nets] * d_wl + self._s_ilv[nets] * d_ilv
        ddeg = self._drv_deg[nets]
        dtotal = int(ddeg.sum())
        if dtotal:
            doffs = np.repeat(np.cumsum(ddeg) - ddeg, ddeg)
            dwithin = np.arange(dtotal, dtype=np.int64) - doffs
            drv = self._drv_cell[np.repeat(self._drv_ptr[nets], ddeg)
                                 + dwithin]
            np.add.at(self._power, drv, np.repeat(share, ddeg))

    @hot_path
    def _excl_span3(self, nets: IntArray, old: FloatArray,
                    new: FloatArray) -> FloatArray:
        """New spans of ``nets`` on all axes when one pin per entry
        moves from ``old`` to ``new`` (all other pins unchanged).

        ``old`` and ``new`` are ``(3, n)`` stacks (x, y, z rows); the
        result has the same shape.  One fused query over the stacked
        extreme caches replaces three per-axis calls.
        """
        assert self._ext_stack is not None, \
            "extreme caches queried while dirty"
        hi1, cnt_hi, hi2, lo1, cnt_lo, lo2 = self._ext_stack
        h1 = hi1[:, nets]
        l1 = lo1[:, nets]
        other_hi = np.where((old == h1) & (cnt_hi[:, nets] == 1),
                            hi2[:, nets], h1)
        other_lo = np.where((old == l1) & (cnt_lo[:, nets] == 1),
                            lo2[:, nets], l1)
        return np.maximum(new, other_hi) - np.minimum(new, other_lo)

    @hot_path
    def _pair_expansion(self, cells: IntArray
                        ) -> Tuple[IntArray, IntArray, FloatArray,
                                   IntArray]:
        """Expand candidates into (candidate, incident-net) pair rows."""
        deg = self._cell_deg[cells]
        total = int(deg.sum())
        pair_cand = np.repeat(np.arange(len(cells), dtype=np.int64), deg)
        if total:
            offs = np.repeat(np.cumsum(deg) - deg, deg)
            within = np.arange(total, dtype=np.int64) - offs
            flat = np.repeat(self._cell_net_ptr[cells], deg) + within
        else:
            flat = np.zeros(0, dtype=np.int64)
        return (pair_cand, self._cell_net_idx[flat],
                self._cell_net_drvmult[flat], deg)

    @hot_path
    def _pair_deltas(self, nets: IntArray, cells_rep: IntArray,
                     new_x: FloatArray, new_y: FloatArray,
                     new_z: IntArray
                     ) -> Tuple[FloatArray, FloatArray]:
        """Per (candidate, net) pair: d_wl, d_ilv for one moved pin."""
        pl = self.placement
        n = len(nets)
        old = np.empty((3, n), dtype=np.float64)
        new = np.empty((3, n), dtype=np.float64)
        old[0] = pl.x[cells_rep]
        old[1] = pl.y[cells_rep]
        old[2] = pl.z[cells_rep]
        new[0] = new_x
        new[1] = new_y
        new[2] = new_z
        spans = self._excl_span3(nets, old, new)
        d_wl = spans[0] + spans[1] - self._wl[nets]
        d_ilv = spans[2] - self._ilv[nets]
        return d_wl, d_ilv

    # ------------------------------------------------------------------
    @contract(shapes={"cells": ("n",), "xs": ("n",), "ys": ("n",),
                      "zs": ("n",)},
              dtypes={"cells": np.integer, "xs": np.floating,
                      "ys": np.floating, "zs": np.integer})
    @hot_path
    def eval_moves_batch(self, cells: Sequence[int],
                         xs: Sequence[float], ys: Sequence[float],
                         zs: Sequence[int]) -> FloatArray:
        """Objective deltas of many *independent* single-cell moves.

        Each candidate ``(cells[b], xs[b], ys[b], zs[b])`` is scored as
        if it were applied alone to the current state (exactly
        ``eval_moves([move_b])``), in vectorized slices of
        :data:`BATCH_CHUNK` candidates.  A cell may appear in any number
        of candidates.  No state is changed.

        Returns:
            Array of ``new_objective - old_objective`` per candidate.
        """
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size == 0:
            return np.zeros(0, dtype=np.float64)
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        zs = np.asarray(zs, dtype=np.int64)
        self._refresh_extremes()
        out = np.empty(len(cells), dtype=np.float64)
        # lint: ok[RPL005] ceil(n / BATCH_CHUNK) vectorized slices
        for lo in range(0, len(cells), BATCH_CHUNK):
            hi = lo + BATCH_CHUNK
            out[lo:hi] = self._score_moves(cells[lo:hi], xs[lo:hi],
                                           ys[lo:hi], zs[lo:hi])
        return out

    @hot_path
    def _score_moves(self, cells: IntArray, xs: FloatArray,
                     ys: FloatArray, zs: IntArray) -> FloatArray:
        """One slice of :meth:`eval_moves_batch` (extremes fresh)."""
        alpha_temp = self.alpha_temp
        out = np.zeros(len(cells), dtype=np.float64)

        pair_cand, nets, drvmult, deg = self._pair_expansion(cells)
        if len(nets):
            cells_rep = np.repeat(cells, deg)
            d_wl, d_ilv = self._pair_deltas(
                nets, cells_rep, np.repeat(xs, deg), np.repeat(ys, deg),
                np.repeat(zs, deg))
            np.add.at(out, pair_cand, d_wl + self.alpha_ilv * d_ilv)
        if alpha_temp > 0:
            p_delta = np.zeros(len(cells), dtype=np.float64)
            if len(nets):
                share = self._s_wl[nets] * d_wl + self._s_ilv[nets] * d_ilv
                np.add.at(out, pair_cand,
                          alpha_temp * share * self._drv_rsum[nets])
                np.add.at(p_delta, pair_cand, share * drvmult)
            r_old = self._r_by_layer[self.placement.z[cells], cells]
            r_new = self._r_by_layer[zs, cells]
            out += alpha_temp * (r_new - r_old) \
                * (self._power[cells] + p_delta)
        return out

    @contract(shapes={"cells_a": ("n",), "cells_b": ("n",)},
              dtypes={"cells_a": np.integer, "cells_b": np.integer})
    @hot_path
    def eval_swaps_batch(self, cells_a: Sequence[int],
                         cells_b: Sequence[int]) -> FloatArray:
        """Objective deltas of many independent full-position swaps.

        Candidate ``b`` exchanges the complete ``(x, y, layer)``
        positions of ``cells_a[b]`` and ``cells_b[b]`` (exactly the
        two-move joint set :meth:`eval_moves` scores).  Nets containing
        both cells are unchanged by a full exchange — their coordinate
        multiset is preserved — so each side reduces to single-pin
        exclusion queries over its non-shared nets.  Candidates are
        scored in slices of :data:`BATCH_CHUNK`.

        Returns:
            Array of objective deltas per swap candidate.
        """
        a = np.asarray(cells_a, dtype=np.int64)
        b = np.asarray(cells_b, dtype=np.int64)
        if a.size == 0:
            return np.zeros(0, dtype=np.float64)
        self._refresh_extremes()
        out = np.empty(len(a), dtype=np.float64)
        # lint: ok[RPL005] ceil(n / BATCH_CHUNK) vectorized slices
        for lo in range(0, len(a), BATCH_CHUNK):
            hi = lo + BATCH_CHUNK
            out[lo:hi] = self._score_swaps(a[lo:hi], b[lo:hi])
        return out

    @hot_path
    def _score_swaps(self, a: IntArray, b: IntArray) -> FloatArray:
        """One slice of :meth:`eval_swaps_batch` (extremes fresh)."""
        pl = self.placement
        alpha_temp = self.alpha_temp
        out = np.zeros(len(a), dtype=np.float64)
        n_cells = max(len(self._power), 1)
        p_delta_a = np.zeros(len(a), dtype=np.float64)
        p_delta_b = np.zeros(len(a), dtype=np.float64)

        # lint: ok[RPL005] constant two-sided unrolling, not a per-net loop
        for moved, other, p_delta in ((a, b, p_delta_a),
                                      (b, a, p_delta_b)):
            pair_cand, nets, drvmult, deg = self._pair_expansion(moved)
            if not len(nets):
                continue
            # drop nets shared with the swap partner (delta is zero)
            other_rep = np.repeat(other, deg)
            key = nets * np.int64(n_cells) + other_rep
            pos = np.searchsorted(self._pin_key, key)
            pos = np.minimum(pos, max(len(self._pin_key) - 1, 0))
            shared = (self._pin_key[pos] == key) if len(self._pin_key) \
                else np.zeros(len(key), dtype=bool)
            keep = ~shared
            if not keep.any():
                continue
            pair_cand = pair_cand[keep]
            nets = nets[keep]
            drvmult = drvmult[keep]
            moved_rep = np.repeat(moved, deg)[keep]
            other_rep = other_rep[keep]
            d_wl, d_ilv = self._pair_deltas(
                nets, moved_rep, pl.x[other_rep], pl.y[other_rep],
                pl.z[other_rep])
            np.add.at(out, pair_cand, d_wl + self.alpha_ilv * d_ilv)
            if alpha_temp > 0:
                share = self._s_wl[nets] * d_wl + self._s_ilv[nets] * d_ilv
                np.add.at(out, pair_cand,
                          alpha_temp * share * self._drv_rsum[nets])
                np.add.at(p_delta, pair_cand, share * drvmult)

        if alpha_temp > 0:
            # lint: ok[RPL005] constant two-sided unrolling, not a per-net loop
            for moved, other, p_delta in ((a, b, p_delta_a),
                                          (b, a, p_delta_b)):
                r_old = self._r_by_layer[pl.z[moved], moved]
                r_new = self._r_by_layer[pl.z[other], moved]
                out += alpha_temp * (r_new - r_old) \
                    * (self._power[moved] + p_delta)
        return out

    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        """Current objective value (Eq. 3)."""
        return self._total

    def wirelength(self) -> float:
        """Current total lateral HPWL, metres."""
        return float(self._wl.sum())

    def total_ilv(self) -> int:
        """Current total interlayer-via count."""
        return int(self._ilv.sum())

    def terms(self) -> ObjectiveTerms:
        """Decompose the current objective into its Eq. 3 summands.

        Returns:
            An :class:`ObjectiveTerms` whose ``total`` matches
            :attr:`total` up to floating-point association.
        """
        wl = float(self._wl.sum())
        ilv = int(self._ilv.sum())
        thermal = 0.0
        if self.alpha_temp > 0:
            r = self._r_by_layer[self.placement.z,
                                 np.arange(len(self._power),
                                           dtype=np.int64)]
            thermal = float((r * self._power).sum())
        return ObjectiveTerms(wirelength=wl, ilv=ilv, wl_term=wl,
                              ilv_term=self.alpha_ilv * ilv,
                              thermal_term=self.alpha_temp * thermal)

    def cell_power(self, cell_id: int) -> float:
        """Current attributed dynamic power of one cell, watts."""
        return float(self._power[cell_id])

    def cell_nets(self, cell_id: int) -> List[int]:
        """Internal indices of the nets incident to a cell.

        Batch consumers use these for staleness tracking: a cached
        candidate delta for a cell is exact as long as none of the
        cell's incident nets has been touched since it was scored.
        """
        return self._cell_nets[cell_id]

    def cell_resistance(self, cell_id: int, layer: Optional[int] = None
                        ) -> float:
        """Move-time thermal resistance of a cell on a layer, K/W."""
        if layer is None:
            layer = self._zs[cell_id]
        return float(self._r_by_layer[layer, cell_id])

    # ------------------------------------------------------------------
    def eval_moves(self, moves: Sequence[Move]) -> float:
        """Objective delta of moving cells jointly (no state change).

        Args:
            moves: ``(cell_id, x, y, layer)`` tuples; a cell may appear
                once.  Swaps are two moves evaluated jointly.

        Returns:
            ``new_objective - old_objective`` (negative = improvement).
        """
        moved: Dict[int, Tuple[float, float, int]] = {
            cid: (x, y, z) for cid, x, y, z in moves}
        if len(moved) != len(moves):
            raise ValueError("a cell appears twice in one move set")
        xs, ys, zs = self._xs, self._ys, self._zs
        alpha_temp = self.alpha_temp
        affected: Dict[int, None] = {}
        for cid in moved:
            for local in self._cell_nets[cid]:
                affected[local] = None

        delta = 0.0
        p_delta: Dict[int, float] = {}
        for local in affected:
            pins = self._pins[local]
            lo_x = hi_x = lo_y = hi_y = None
            lo_z = hi_z = None
            for c in pins:
                pos = moved.get(c)
                if pos is None:
                    px, py, pz = xs[c], ys[c], zs[c]
                else:
                    px, py, pz = pos
                if lo_x is None:
                    lo_x = hi_x = px
                    lo_y = hi_y = py
                    lo_z = hi_z = pz
                else:
                    if px < lo_x:
                        lo_x = px
                    elif px > hi_x:
                        hi_x = px
                    if py < lo_y:
                        lo_y = py
                    elif py > hi_y:
                        hi_y = py
                    if pz < lo_z:
                        lo_z = pz
                    elif pz > hi_z:
                        hi_z = pz
            new_wl = (hi_x - lo_x) + (hi_y - lo_y)
            new_ilv = hi_z - lo_z
            d_wl = new_wl - float(self._wl[local])
            d_ilv = new_ilv - int(self._ilv[local])
            # bit-exact on purpose: skip-if-unchanged must match the
            # incremental cache update in apply_moves exactly
            if exact_zero(d_wl) and d_ilv == 0:
                continue
            delta += d_wl + self.alpha_ilv * d_ilv
            if alpha_temp > 0:
                share = (float(self._s_wl[local]) * d_wl
                         + float(self._s_ilv[local]) * d_ilv)
                if exact_nonzero(share):
                    for d in self._drivers[local]:
                        p_delta[d] = p_delta.get(d, 0.0) + share

        if alpha_temp > 0:
            r = self._r_by_layer
            power = self._power
            thermal_cells = set(moved)
            thermal_cells.update(p_delta)
            # sorted: float accumulation below is order-sensitive, and
            # set order is arbitrary (determinism pass RPA103)
            for c in sorted(thermal_cells):
                old_r = float(r[zs[c], c])
                pos = moved.get(c)
                new_r = (float(r[pos[2], c]) if pos is not None
                         else old_r)
                new_p = float(power[c]) + p_delta.get(c, 0.0)
                delta += alpha_temp * (new_r * new_p
                                       - old_r * float(power[c]))
        return delta

    def apply_moves(self, moves: Sequence[Move]) -> float:
        """Commit moves to the state *and* the placement arrays.

        Returns:
            The objective delta that was applied.
        """
        delta = self.eval_moves(moves)
        moved = {cid: (x, y, z) for cid, x, y, z in moves}
        # update per-net caches and power attribution
        affected: Dict[int, None] = {}
        for cid in moved:
            for local in self._cell_nets[cid]:
                affected[local] = None
        old_z = {cid: self._zs[cid] for cid in moved}
        for cid, (x, y, z) in moved.items():
            self._xs[cid] = x
            self._ys[cid] = y
            self._zs[cid] = int(z)
            self.placement.x[cid] = x
            self.placement.y[cid] = y
            self.placement.z[cid] = int(z)
        xs, ys, zs = self._xs, self._ys, self._zs
        if len(affected) >= 32:
            self._update_nets_batch(np.fromiter(
                affected.keys(), dtype=np.int64, count=len(affected)))
        else:
            for local in affected:
                pins = self._pins[local]
                nx = [xs[c] for c in pins]
                ny = [ys[c] for c in pins]
                nz = [zs[c] for c in pins]
                new_wl = (max(nx) - min(nx)) + (max(ny) - min(ny))
                new_ilv = max(nz) - min(nz)
                d_wl = new_wl - float(self._wl[local])
                d_ilv = new_ilv - int(self._ilv[local])
                if not self._extremes_dirty:
                    # incremental maintenance: a pin moving inside the
                    # bbox can still shift runner-ups/counts, so every
                    # affected net is re-scanned, not just
                    # span-changing ones
                    self._update_net_extremes(local)
                if exact_zero(d_wl) and d_ilv == 0:
                    continue
                self._wl[local] = new_wl
                self._ilv[local] = new_ilv
                share = (float(self._s_wl[local]) * d_wl
                         + float(self._s_ilv[local]) * d_ilv)
                if exact_nonzero(share):
                    for d in self._drivers[local]:
                        self._power[d] += share
        self._total += delta
        if not self._extremes_dirty:
            if self.alpha_temp > 0 and self._drv_rsum is not None:
                r = self._r_by_layer
                for cid, z0 in old_z.items():
                    z1 = self._zs[cid]
                    if z1 == z0:
                        continue
                    dr = float(r[z1, cid]) - float(r[z0, cid])
                    lo = int(self._cell_net_ptr[cid])
                    hi = int(self._cell_net_ptr[cid + 1])
                    for k in range(lo, hi):
                        mult = self._cell_net_drvmult[k]
                        if mult:
                            self._drv_rsum[self._cell_net_idx[k]] += \
                                mult * dr
        return delta

    # ------------------------------------------------------------------
    def optimal_region_center(self, cell_id: int
                              ) -> Tuple[float, float, float]:
        """Centre of the cell's optimal region [14], extended to 3D.

        For each incident net, the cell's cost is minimized anywhere
        inside the bounding box of the net's *other* pins; the classic
        optimal region is the median interval of those boxes.  We return
        the weighted median per axis (weights: 1 for x/y; the z medians
        use the same unweighted rule — the alpha_ilv scaling affects the
        *extent* of the target region, applied by the caller).

        The other-pin boxes are exclusion queries against the cached
        per-net extremes, and the median interval's midpoint of ``m``
        intervals is the median of their ``2m`` endpoints.
        """
        self._refresh_extremes()
        lo = self._cell_net_ptr[cell_id]
        hi = self._cell_net_ptr[cell_id + 1]
        nets = self._cell_net_idx[lo:hi]
        here = (self._xs[cell_id], self._ys[cell_id],
                float(self._zs[cell_id]))
        if not len(nets):
            return here
        # nets where the cell is the only pin have no "other" box
        nets = nets[self._net_deg[nets] > 1]
        if not len(nets):
            return here
        ext = self._ext
        assert ext is not None, "extreme caches queried while dirty"
        out = []
        for axis, coord in zip(("x", "y", "z"), here):
            hi1, cnt_hi, hi2, lo1, cnt_lo, lo2 = ext[axis]
            other_hi = np.where((coord == hi1[nets]) & (cnt_hi[nets] == 1),
                                hi2[nets], hi1[nets])
            other_lo = np.where((coord == lo1[nets]) & (cnt_lo[nets] == 1),
                                lo2[nets], lo1[nets])
            # median of the 2k interval endpoints, without np.median's
            # dispatch overhead (this is called once per cell per pass)
            ends = np.sort(np.concatenate((other_lo, other_hi)))
            n = len(ends)
            out.append(0.5 * (float(ends[(n - 1) // 2])
                              + float(ends[n // 2])))
        return (out[0], out[1], out[2])

    @contract(shapes={"cells": ("n",)}, dtypes={"cells": np.integer})
    @hot_path
    def optimal_region_centers(self, cells: Sequence[int]) -> FloatArray:
        """Optimal-region centres of many cells in one batched call.

        Returns:
            ``(3, n)`` array of per-axis centres (x, y, z rows), each
            column equal to :meth:`optimal_region_center` of that cell.
        """
        self._refresh_extremes()
        cells = np.asarray(cells, dtype=np.int64)
        n = len(cells)
        out = np.empty((3, n), dtype=np.float64)
        pl = self.placement
        out[0] = pl.x[cells]
        out[1] = pl.y[cells]
        out[2] = pl.z[cells]
        if not n:
            return out
        pair_cand, nets, _, _ = self._pair_expansion(cells)
        if not len(nets):
            return out
        # nets where the cell is the only pin have no "other" box
        keep = self._net_deg[nets] > 1
        pair_cand = pair_cand[keep]
        nets = nets[keep]
        if not len(nets):
            return out
        cells_rep = cells[pair_cand]
        old = np.empty((3, len(nets)), dtype=np.float64)
        old[0] = pl.x[cells_rep]
        old[1] = pl.y[cells_rep]
        old[2] = pl.z[cells_rep]
        assert self._ext_stack is not None, \
            "extreme caches queried while dirty"
        hi1, cnt_hi, hi2, lo1, cnt_lo, lo2 = self._ext_stack
        h1 = hi1[:, nets]
        l1 = lo1[:, nets]
        other_hi = np.where((old == h1) & (cnt_hi[:, nets] == 1),
                            hi2[:, nets], h1)
        other_lo = np.where((old == l1) & (cnt_lo[:, nets] == 1),
                            lo2[:, nets], l1)
        # per cell and axis: median of the 2k interval endpoints, via a
        # segmented sort of (owner, value) pairs
        owners = np.concatenate((pair_cand, pair_cand))
        cnt = 2 * np.bincount(pair_cand, minlength=n)
        ptr = np.concatenate(([0], np.cumsum(cnt)))[:-1]
        has = cnt > 0
        mid_lo = ptr + (cnt - 1) // 2
        mid_hi = ptr + cnt // 2
        # lint: ok[RPL005] constant three-axis unrolling, not a per-net loop
        for ax in range(3):
            ends = np.concatenate((other_lo[ax], other_hi[ax]))
            order = np.lexsort((ends, owners))
            ends = ends[order]
            out[ax][has] = 0.5 * (ends[mid_lo[has]] + ends[mid_hi[has]])
        return out

    # ------------------------------------------------------------------
    def checkpoint_state(self) -> Tuple[FloatArray, float]:
        """Snapshot the drift-accumulating state for checkpointing.

        Everything else this class caches (per-net spans, extreme
        caches, scalar mirrors) is an exact, order-independent function
        of the placement coordinates and rebuilds bit-identically from
        them.  The two exceptions are ``_power`` and ``_total``, which
        :meth:`apply_moves` maintains by accumulating deltas — their
        low bits depend on the *history* of applied moves, not just the
        final coordinates.  Checkpoint/resume must reproduce runs
        bit-identically, so exactly these two are serialized.

        Returns:
            ``(power, total)``: a copy of the per-cell power vector and
            the cached objective total.
        """
        return self._power.copy(), float(self._total)

    def restore_checkpoint(self, power: FloatArray,
                           total: float) -> None:
        """Restore a state saved by :meth:`checkpoint_state`.

        Rebuilds the exact caches from the (already restored) placement
        coordinates, then overwrites the two history-dependent
        accumulators so subsequent incremental updates continue from
        the same bits as the uninterrupted run.
        """
        self.rebuild()
        restored = np.asarray(power, dtype=np.float64).copy()
        if restored.shape != self._power.shape:
            raise ValueError(
                f"checkpoint power vector has shape {restored.shape}, "
                f"expected {self._power.shape}")
        self._power = restored
        self._total = float(total)

    def check_consistency(self, tol: float = 1e-9) -> None:
        """Verify caches against a from-scratch recomputation (tests)."""
        n_nets = len(self._wl)
        n_cells = len(self._power)
        validate_arrays(
            "ObjectiveState",
            _wl=(self._wl, np.float64, (n_nets,)),
            _ilv=(self._ilv, np.int64, (n_nets,)),
            _power=(self._power, np.float64, (n_cells,)),
            _s_wl=(self._s_wl, np.float64, (n_nets,)),
            _s_ilv=(self._s_ilv, np.float64, (n_nets,)),
            _cell_net_idx=(self._cell_net_idx, np.int64, None),
            _cell_net_ptr=(self._cell_net_ptr, np.int64, (n_cells + 1,)),
        )
        cached = self._total
        wl = self._wl.copy()
        ilv = self._ilv.copy()
        power = self._power.copy()
        self.rebuild()
        if abs(self._total - cached) > tol * max(1.0, abs(cached)):
            raise AssertionError(
                f"objective drifted: cached {cached}, true {self._total}")
        for a, b in ((wl, self._wl), (ilv, self._ilv), (power, self._power)):
            if not np.allclose(a, b, rtol=1e-9, atol=1e-18):
                raise AssertionError("per-item caches drifted")


def _median_interval_point(los: Sequence[float],
                           his: Sequence[float]) -> float:
    """Midpoint of the median interval of a set of 1D intervals.

    This is the minimizer set of the sum of distances to the intervals
    (the 1D optimal region); its midpoint is returned.
    """
    ends = list(los) + list(his)
    ends.sort()
    n = len(ends)
    lo = ends[(n - 1) // 2]
    hi = ends[n // 2]
    return 0.5 * (lo + hi)
