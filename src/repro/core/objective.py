"""Incremental evaluation of the placement objective (Eq. 3).

    obj = sum_nets [ WL_i + a_ILV * ILV_i ]
        + a_TEMP * sum_cells R_j^cell * P_j^cell

The first term is over every net of the netlist.  The thermal term
uses the simple straight-path resistance model (position-dependent
through the cell's layer) and the dynamic power attribution of Eq. 10
with *actual* net geometry — by coarse/detailed legalization time
cells are spread out, so the PEKO floors of global placement are no
longer needed.

TRR nets never appear here: they are the partitioning-side *mechanism*
for the thermal term, which this class evaluates directly.

Data layout (the "kernel layer", see DESIGN.md):

- The static net/pin structure is the netlist's shared CSR
  (:mod:`repro.netlist.csr`): ``_net_ptr`` (length ``num_nets + 1``)
  and ``_pin_cell`` (one entry per unique net pin), so full
  recomputation (`rebuild`) is a handful of
  ``np.minimum.reduceat``/``np.maximum.reduceat`` segment reductions
  instead of a Python loop over per-net lists.  Drivers and the
  cell->net incidence have CSR arrays of their own.
- Candidate scoring has two paths: :meth:`eval_moves` handles an
  arbitrary joint move set with O(local pins) scalar work, while
  :meth:`eval_moves_batch` / :meth:`eval_swaps_batch` score many
  *independent* candidates in one vectorized call, using per-net
  first/second-extreme caches ("what is the net's bounding box without
  this one pin").  The extreme caches are built lazily: :meth:`rebuild`
  marks them dirty, the next batched call rebuilds them with segment
  reductions, and :meth:`apply_moves` keeps them current from then on.
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

#: One net whose span a move set changes:
#: ``(net_id, new_wl, new_ilv, d_wl, d_ilv)``.
NetChange = Tuple[int, float, int, float, int]

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

#: Extreme components (hi1, cnt_hi, hi2, lo1, cnt_lo, lo2), each a
#: ``(3, k)`` stack with axis rows x, y, z — the counts int64, the rest
#: float64.
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

        # --- static per-net structure ------------------------------------
        # Shared, read-only: the arrays and the per-net pin and driver
        # lists are the netlist's cached CSR, the per-cell net lists its
        # incidence lists.  The lists serve the scalar (joint-move) path,
        # where tiny-net Python loops still beat per-array overhead.
        csr = signal_csr(netlist)
        self._pins: List[List[int]] = csr.pins
        self._drivers: List[List[int]] = csr.drivers
        self._cell_nets: List[List[int]] = [
            netlist.nets_of_cell(cid) for cid in range(n_cells)]
        self._s_wl = np.asarray(self.power_model.s_wl, dtype=np.float64)
        self._s_ilv = np.asarray(self.power_model.s_ilv, dtype=np.float64)
        self._pin_term = np.asarray(self.power_model.s_input_pins,
                                    dtype=np.float64)

        # net -> pin CSR
        self._net_deg = csr.net_deg
        self._net_ptr = csr.net_ptr
        self._pin_cell = csr.pin_cell
        # globally sorted membership keys: pins sorted within each net,
        # encoded as net * num_cells + cell (for vectorized searchsorted)
        self._pin_key = csr.pin_key

        # net -> driver CSR (with multiplicity, as the power model uses)
        self._drv_deg = np.diff(csr.drv_ptr)
        self._drv_ptr = csr.drv_ptr
        self._drv_cell = csr.drv_cell
        self._drv_net = csr.drv_net

        # cell -> net CSR (+ the cell's driver-pin multiplicity per net)
        self._cell_net_ptr = csr.cell_net_ptr
        self._cell_deg = np.diff(self._cell_net_ptr)
        self._cell_net_idx = csr.cell_net_idx
        self._cell_net_drvmult: FloatArray = csr.cell_net_drvmult

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
            [rm.cell_resistance(cx, cy, layer, areas)
             for layer in range(placement.chip.num_layers)],
            dtype=np.float64)

        self._extremes_dirty = True
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
        self._total = self.terms().total

    # ------------------------------------------------------------------
    @hot_path
    def _extreme_components(self, pins: IntArray, starts: IntArray,
                            deg: IntArray) -> ExtComponents:
        """The six ``(3, k)`` extreme components of ``k`` pin segments.

        ``pins`` lists the cell of every pin, segment after segment;
        segment ``i`` starts at ``starts[i]`` and holds ``deg[i] >= 1``
        pins.  Per segment and axis (rows x, y, z) the result holds the
        extreme value, how many pins attain it and the runner-up value,
        in :data:`ExtComponents` order.
        """
        k = len(starts)
        hi1 = np.empty((3, k), dtype=np.float64)
        cnt_hi = np.empty((3, k), dtype=np.int64)
        hi2 = np.empty((3, k), dtype=np.float64)
        lo1 = np.empty((3, k), dtype=np.float64)
        cnt_lo = np.empty((3, k), dtype=np.int64)
        lo2 = np.empty((3, k), dtype=np.float64)
        if k:
            pl = self.placement
            # lint: ok[RPL005] constant three-axis unrolling, not per net
            for ax, coords in enumerate((pl.x, pl.y,
                                         pl.z.astype(np.float64))):
                v = coords[pins]
                hi1[ax] = np.maximum.reduceat(v, starts)
                lo1[ax] = np.minimum.reduceat(v, starts)
                at_hi = v == np.repeat(hi1[ax], deg)
                at_lo = v == np.repeat(lo1[ax], deg)
                cnt_hi[ax] = np.add.reduceat(at_hi.astype(np.int64), starts)
                hi2[ax] = np.maximum.reduceat(np.where(at_hi, -np.inf, v),
                                              starts)
                cnt_lo[ax] = np.add.reduceat(at_lo.astype(np.int64), starts)
                lo2[ax] = np.minimum.reduceat(np.where(at_lo, np.inf, v),
                                              starts)
        return hi1, cnt_hi, hi2, lo1, cnt_lo, lo2

    @hot_path
    def _refresh_extremes(self) -> None:
        """Per-net first/second extremes per axis, for exclusion queries.

        For each net and axis this caches the extreme value, how
        many pins attain it, and the runner-up value — enough to answer
        "what is the net's span if one given pin moves" without touching
        the other pins.  Invalidated by :meth:`rebuild`, rebuilt here
        for every net by :meth:`_extreme_components`, and kept current
        by :meth:`apply_moves`.
        """
        if not self._extremes_dirty:
            return
        m = len(self._pins)
        pl = self.placement
        # stacked (3, m) per component, axis order x, y, z, so batch
        # queries fuse all three axes into one fancy-indexed gather
        self._ext_stack = self._extreme_components(
            self._pin_cell, self._net_ptr[:-1], self._net_deg)
        if self.alpha_temp > 0:
            rsum = np.zeros(m, dtype=np.float64)
            if m and len(self._drv_cell):
                r = self._r_by_layer[pl.z[self._drv_cell], self._drv_cell]
                np.add.at(rsum, self._drv_net, r)
            self._drv_rsum = rsum
        self._extremes_dirty = False

    def _update_net_extremes(self, nid: int) -> None:
        """Incrementally refresh one net's extreme cache (all axes).

        Nets are tiny (2-4 pins), so a scalar scan per net beats
        re-running the global segment reductions by orders of magnitude
        when only a handful of nets changed.
        """
        pins = self._pins[nid]
        stack = self._ext_stack
        assert stack is not None, "extreme caches queried while dirty"
        hi1s, cnt_his, hi2s, lo1s, cnt_los, lo2s = stack
        for ax, coords in enumerate((self._xs, self._ys, self._zs)):
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
            hi1s[ax, nid] = hi1
            cnt_his[ax, nid] = cnt_hi
            hi2s[ax, nid] = hi2
            lo1s[ax, nid] = lo1
            cnt_los[ax, nid] = cnt_lo
            lo2s[ax, nid] = lo2

    @hot_path
    def _update_nets_batch(self, nets: IntArray) -> None:
        """Refresh span caches, power attribution, and (when valid) the
        extreme caches of many nets with segment reductions.

        The vectorized counterpart of the per-net scalar bookkeeping in
        :meth:`apply_moves`; pays off once a joint move set touches a
        few dozen nets (whole-row cell shifting, snapshot restores).
        The spans are ``hi_x - lo_x + hi_y - lo_y``, associated left to
        right like :meth:`rebuild`'s.
        """
        deg = self._net_deg[nets]
        cum = np.cumsum(deg)
        starts = cum - deg
        total = int(cum[-1])
        offs = np.repeat(starts, deg)
        within = np.arange(total, dtype=np.int64) - offs
        pins = self._pin_cell[np.repeat(self._net_ptr[nets], deg)
                              + within]
        comps = self._extreme_components(pins, starts, deg)
        if not self._extremes_dirty:
            assert self._ext_stack is not None
            # lint: ok[RPL005] six extreme components, not a per-net loop
            for stored, comp in zip(self._ext_stack, comps):
                stored[:, nets] = comp
        hi, lo = comps[0], comps[3]
        new_wl = hi[0] - lo[0] + hi[1] - lo[1]
        new_ilv = (hi[2] - lo[2]).astype(np.int64)
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
    def _other_bounds(self, nets: IntArray, cells: IntArray
                      ) -> Tuple[FloatArray, FloatArray]:
        """Bounding box of each net's pins other than one cell's.

        Entry ``i`` leaves out the pin of ``cells[i]`` on ``nets[i]``:
        where it alone attains an extreme, the runner-up applies.
        Returns ``(upper, lower)``, two ``(3, n)`` stacks (x, y, z rows).
        """
        assert self._ext_stack is not None, \
            "extreme caches queried while dirty"
        pl = self.placement
        old = np.empty((3, len(nets)), dtype=np.float64)
        old[0] = pl.x[cells]
        old[1] = pl.y[cells]
        old[2] = pl.z[cells]
        hi1, cnt_hi, hi2, lo1, cnt_lo, lo2 = self._ext_stack
        h1 = hi1[:, nets]
        l1 = lo1[:, nets]
        other_hi = np.where((old == h1) & (cnt_hi[:, nets] == 1),
                            hi2[:, nets], h1)
        other_lo = np.where((old == l1) & (cnt_lo[:, nets] == 1),
                            lo2[:, nets], l1)
        return other_hi, other_lo

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
        other_hi, other_lo = self._other_bounds(nets, cells_rep)
        new = np.empty((3, len(nets)), dtype=np.float64)
        new[0] = new_x
        new[1] = new_y
        new[2] = new_z
        spans = np.maximum(new, other_hi) - np.minimum(new, other_lo)
        d_wl = spans[0] + spans[1] - self._wl[nets]
        d_ilv = spans[2] - self._ilv[nets]
        return d_wl, d_ilv

    @hot_path
    def _add_net_terms(self, out: FloatArray, p_delta: FloatArray,
                       pair_cand: IntArray, nets: IntArray,
                       drvmult: FloatArray, d_wl: FloatArray,
                       d_ilv: FloatArray) -> None:
        """Add (candidate, net) pair rows' net terms to ``out``.

        A row adds ``d_wl + alpha_ilv * d_ilv`` and, with the thermal
        term on, its drivers' cost of the net's changed power share;
        the moved cell's own part of that share goes to ``p_delta``
        for :meth:`_add_layer_terms`.
        """
        np.add.at(out, pair_cand, d_wl + self.alpha_ilv * d_ilv)
        if self.alpha_temp > 0:
            share = self._s_wl[nets] * d_wl + self._s_ilv[nets] * d_ilv
            np.add.at(out, pair_cand,
                      self.alpha_temp * share * self._drv_rsum[nets])
            np.add.at(p_delta, pair_cand, share * drvmult)

    @hot_path
    def _add_layer_terms(self, out: FloatArray, cells: IntArray,
                         new_z: IntArray, p_delta: FloatArray) -> None:
        """Add the thermal term of each of ``cells`` moving to layer
        ``new_z`` with its power changed by ``p_delta``."""
        r_old = self._r_by_layer[self.placement.z[cells], cells]
        r_new = self._r_by_layer[new_z, cells]
        out += self.alpha_temp * (r_new - r_old) \
            * (self._power[cells] + p_delta)

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
        out = np.zeros(len(cells), dtype=np.float64)
        p_delta = np.zeros(len(cells), dtype=np.float64)
        pair_cand, nets, drvmult, deg = self._pair_expansion(cells)
        if len(nets):
            d_wl, d_ilv = self._pair_deltas(
                nets, np.repeat(cells, deg), np.repeat(xs, deg),
                np.repeat(ys, deg), np.repeat(zs, deg))
            self._add_net_terms(out, p_delta, pair_cand, nets, drvmult,
                                d_wl, d_ilv)
        if self.alpha_temp > 0:
            self._add_layer_terms(out, cells, zs, p_delta)
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
            self._add_net_terms(out, p_delta, pair_cand, nets, drvmult,
                                d_wl, d_ilv)
        if self.alpha_temp > 0:
            self._add_layer_terms(out, a, pl.z[b], p_delta_a)
            self._add_layer_terms(out, b, pl.z[a], p_delta_b)
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
        """Ids of the nets incident to a cell.

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
        return self._evaluate(moves)[0]

    def _evaluate(self, moves: Sequence[Move]
                  ) -> Tuple[float, Dict[int, None], List[NetChange]]:
        """Score a joint move set with O(local pins) scalar work.

        Returns:
            ``(delta, affected, changed)``: the objective delta, the
            nets incident to a moved cell (in move and incidence
            order), and a :data:`NetChange` for each of them whose
            span the moves change, in the same order.  The spans are
            ``(hi_x - lo_x) + (hi_y - lo_y)``.
        """
        moved: Dict[int, Tuple[float, float, int]] = {
            cid: (x, y, z) for cid, x, y, z in moves}
        if len(moved) != len(moves):
            raise ValueError("a cell appears twice in one move set")
        xs, ys, zs = self._xs, self._ys, self._zs
        alpha_temp = self.alpha_temp
        affected: Dict[int, None] = {}
        for cid in moved:
            for nid in self._cell_nets[cid]:
                affected[nid] = None

        delta = 0.0
        changed: List[NetChange] = []
        p_delta: Dict[int, float] = {}
        for nid in affected:
            pins = self._pins[nid]
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
            d_wl = new_wl - float(self._wl[nid])
            d_ilv = new_ilv - int(self._ilv[nid])
            # bit-exact on purpose: an unchanged net adds nothing and
            # apply_moves leaves its cached span as it is
            if exact_zero(d_wl) and d_ilv == 0:
                continue
            changed.append((nid, new_wl, new_ilv, d_wl, d_ilv))
            delta += d_wl + self.alpha_ilv * d_ilv
            if alpha_temp > 0:
                share = (float(self._s_wl[nid]) * d_wl
                         + float(self._s_ilv[nid]) * d_ilv)
                if exact_nonzero(share):
                    for d in self._drivers[nid]:
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
        return delta, affected, changed

    def apply_moves(self, moves: Sequence[Move]) -> float:
        """Commit moves to the state *and* the placement arrays.

        Below 32 affected nets the per-net spans and power shares are
        the ones :meth:`_evaluate` computed for the delta; from 32 on,
        :meth:`_update_nets_batch` recomputes every affected net.

        Returns:
            The objective delta that was applied.
        """
        delta, affected, changed = self._evaluate(moves)
        old_z = {cid: self._zs[cid] for cid, _, _, _ in moves}
        for cid, x, y, z in moves:
            self._xs[cid] = x
            self._ys[cid] = y
            self._zs[cid] = int(z)
            self.placement.x[cid] = x
            self.placement.y[cid] = y
            self.placement.z[cid] = int(z)
        if len(affected) >= 32:
            self._update_nets_batch(np.fromiter(
                affected.keys(), dtype=np.int64, count=len(affected)))
        else:
            if not self._extremes_dirty:
                # a pin moving inside the bbox can still shift
                # runner-ups and counts, so every affected net is
                # re-scanned, not just the span-changing ones
                for nid in affected:
                    self._update_net_extremes(nid)
            for nid, new_wl, new_ilv, d_wl, d_ilv in changed:
                self._wl[nid] = new_wl
                self._ilv[nid] = new_ilv
                share = (float(self._s_wl[nid]) * d_wl
                         + float(self._s_ilv[nid]) * d_ilv)
                if exact_nonzero(share):
                    for d in self._drivers[nid]:
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
    @contract(shapes={"cells": ("n",)}, dtypes={"cells": np.integer})
    @hot_path
    def optimal_region_centers(self, cells: Sequence[int]) -> FloatArray:
        """Centres of the cells' optimal regions [14], extended to 3D.

        For each incident net, a cell's cost is minimized anywhere
        inside the bounding box of the net's *other* pins; the classic
        optimal region is the median interval of those boxes.  Each
        axis takes the unweighted median (the alpha_ilv scaling affects
        the *extent* of the target region, applied by the caller).  The
        other-pin boxes are exclusion queries against the cached
        per-net extremes, and the median interval's midpoint of ``k``
        intervals is the median of their ``2k`` endpoints.  A cell
        with no net of two or more pins keeps its own position.

        Returns:
            ``(3, n)`` array of per-axis centres (x, y, z rows).
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
        other_hi, other_lo = self._other_bounds(nets, cells[pair_cand])
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
    def checkpoint_state(self) -> Tuple[FloatArray, float, FloatArray,
                                        Optional[FloatArray]]:
        """Snapshot the history-dependent state for checkpointing.

        The via spans, extreme caches and scalar mirrors are exact,
        order-independent functions of the placement coordinates and
        rebuild bit-identically from them.  Four values are not; their
        low bits depend on the *history* of applied moves, and
        checkpoint/resume must reproduce runs bit-identically:

        - ``_power`` and ``_total`` accumulate deltas with ``+=``;
        - ``_wl`` keeps the float association of the path that last
          wrote each net's span: ``hi_x - lo_x + hi_y - lo_y`` from
          :meth:`rebuild` and :meth:`_update_nets_batch`,
          ``(hi_x - lo_x) + (hi_y - lo_y)`` from :meth:`_evaluate`;
        - ``_drv_rsum`` accumulates with ``+=`` while the extreme
          caches are current (thermal runs only).

        Returns:
            Copies of ``(power, total, wl, drv_rsum)``; ``drv_rsum`` is
            ``None`` when it is not maintained.
        """
        drv_rsum = None
        if self.alpha_temp > 0 and not self._extremes_dirty:
            assert self._drv_rsum is not None
            drv_rsum = self._drv_rsum.copy()
        return (self._power.copy(), float(self._total), self._wl.copy(),
                drv_rsum)

    def restore_checkpoint(self, power: FloatArray, total: float,
                           wl: FloatArray,
                           drv_rsum: Optional[FloatArray] = None) -> None:
        """Restore a state saved by :meth:`checkpoint_state`.

        Rebuilds the exact caches from the (already restored) placement
        coordinates, then overwrites the history-dependent values so
        subsequent incremental updates continue from the same bits as
        the uninterrupted run.  A saved ``drv_rsum`` means the extreme
        caches were current, so they are refreshed before it is
        overlaid.
        """
        self.rebuild()
        self._power = _restored("power vector", power, self._power.shape)
        self._total = float(total)
        self._wl = _restored("span vector", wl, self._wl.shape)
        if drv_rsum is not None:
            self._refresh_extremes()
            self._drv_rsum = _restored("driver resistance sums", drv_rsum,
                                       self._wl.shape)

    def check_consistency(self, tol: float = 1e-9) -> None:
        """Verify the caches against a from-scratch state (tests, audits).

        The reference is a new :class:`ObjectiveState` on a copy of the
        placement, so the audited state, and every later decision of
        the run it belongs to, is left untouched.  The extreme caches,
        when current, must match the reference's exactly.
        """
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
        fresh = ObjectiveState(self.placement.copy(), self.config,
                               self.power_model)
        cached = self._total
        if abs(fresh._total - cached) > tol * max(1.0, abs(cached)):
            raise AssertionError(
                f"objective drifted: cached {cached}, true {fresh._total}")
        pairs = [(self._wl, fresh._wl), (self._ilv, fresh._ilv),
                 (self._power, fresh._power)]
        if not self._extremes_dirty:
            fresh._refresh_extremes()
            assert self._ext_stack is not None
            assert fresh._ext_stack is not None
            for mine, true in zip(self._ext_stack, fresh._ext_stack):
                if not np.array_equal(mine, true):
                    raise AssertionError("extreme caches drifted")
            if self.alpha_temp > 0:
                pairs.append((self._drv_rsum, fresh._drv_rsum))
        for a, b in pairs:
            if not np.allclose(a, b, rtol=1e-9, atol=1e-18):
                raise AssertionError("per-item caches drifted")


@contract(shapes={"values": ("n",), "starts": ("s",)},
          dtypes={"values": np.floating, "starts": np.integer})
@hot_path
def first_minima(values: FloatArray, starts: IntArray) -> IntArray:
    """Index of the first minimum of each span of ``values``.

    Span ``s`` runs from ``starts[s]`` up to the next start, the last
    one to the end of ``values``; the first starts at 0 and none is
    empty.  This is the candidate selection rule of every legalization
    stage: each cell keeps the first of its lowest deltas, what a
    strict "<" scan in generation order keeps.  The values are finite,
    so the first hit of a span's ``np.minimum.reduceat`` minimum is
    ``starts[s] + np.argmin(values[span])``.
    """
    sizes = np.diff(np.append(starts, len(values)))
    lowest = np.repeat(np.minimum.reduceat(values, starts), sizes)
    hits = np.flatnonzero(values == lowest)
    return hits[np.searchsorted(hits, starts)]


def _restored(what: str, saved: FloatArray,
              shape: Tuple[int, ...]) -> FloatArray:
    """A float64 copy of a checkpointed array of the expected shape."""
    array = np.asarray(saved, dtype=np.float64).copy()
    if array.shape != shape:
        raise ValueError(f"checkpoint {what} has shape {array.shape}, "
                         f"expected {shape}")
    return array
