"""Global placement by 3D recursive bisection (Section 3).

Regions carry a subset of cells and a physical sub-volume of the chip.
Each region is bisected with the multilevel partitioner; the cut
direction is chosen as orthogonal to the largest of {width, height,
weighted depth}, where the *weighted depth* is the region's layer count
times ``alpha_ilv`` — the min-cut objective then spends its cuts in the
costliest direction first.  Terminal propagation [11] represents
connectivity to the rest of the chip with fixed terminal vertices;
partitioning tolerance tracks the region's whitespace; and after
partitioning the cut line is repositioned so cell area is evenly
distributed between the children.

Thermal awareness enters through the per-net weights of Eq. 8 (applied
to whichever direction the cut runs) and, for z cuts, through the TRR
nets of Eq. 12, whose weights are refreshed once per bisection level as
positions firm up.

Execution is a frontier-parallel BFS over bisection levels: after the
first cut, the regions of one level share nothing, so each level's
pending regions are reduced, in one array pass of terminal propagation,
to compact picklable :class:`~repro.partition.subproblem.BisectionTask`
payloads and dispatched together on an execution backend
(:mod:`repro.parallel`).
Determinism is order-independent by construction: every region carries
a *path id* (heap numbering of the bisection tree — root 1, children
``2p`` / ``2p + 1``), its partitioner seed derives from
``(config.seed, path)`` via :func:`repro.parallel.task_seed`, and
results are applied in frontier order — so ``num_workers=N`` produces
a bit-identical placement to ``num_workers=1``.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import FloatArray, IntArray
from repro.core.config import PlacementConfig
from repro.core.netweights import compute_net_weights
from repro.core.trrnets import compute_trr_weights
from repro.metrics.wirelength import compute_net_metrics
from repro.netlist.csr import SignalCSR, signal_csr
from repro.netlist.placement import Placement
from repro.obs import Recorder, Telemetry, get_logger, get_recorder
from repro.parallel import (ExecutionBackend, SharedArrayPool,
                            create_backend, shared_memory_available,
                            task_seed)
from repro.partition.hypergraph import FREE
from repro.partition.subproblem import (BisectionTask, solve,
                                        solve_packed_recorded,
                                        solve_recorded)
from repro.thermal.power import PowerModel
from repro.thermal.resistance import ResistanceModel

_log = get_logger(__name__)

#: Axis labels in cut-direction priority evaluation order.
_AXES = ("x", "y", "z")

#: Recursion depth cap (the bisection tree is level-balanced, so 64
#: levels is far beyond any real instance).
_MAX_LEVELS = 64

#: Regions of at most this many cells stop recursing and are finalized.
MIN_REGION_CELLS = 3

#: FM passes per refinement level of each bisection.
PARTITION_PASSES = 5

#: Floor on the whitespace-derived balance tolerance of a bisection.
MIN_PARTITION_TOLERANCE = 0.02


@dataclass
class Region:
    """A recursive-bisection region: cells plus a physical sub-volume.

    Attributes:
        cell_ids: movable cells assigned to the region, a read-only
            int64 array.
        xlo, xhi, ylo, yhi: lateral bounds, metres.
        zlo, zhi: inclusive layer range.
        path: deterministic bisection-tree path id (heap numbering:
            root 1, children ``2 * path`` and ``2 * path + 1``).  Seeds
            and tie-breaks derive from it, never from visit order.
    """

    cell_ids: IntArray
    xlo: float
    xhi: float
    ylo: float
    yhi: float
    zlo: int
    zhi: int
    path: int = field(default=1)

    @property
    def width(self) -> float:
        """Lateral extent in x, metres."""
        return self.xhi - self.xlo

    @property
    def height(self) -> float:
        """Lateral extent in y, metres."""
        return self.yhi - self.ylo

    @property
    def layers(self) -> int:
        """Number of layers the region spans."""
        return self.zhi - self.zlo + 1

    @property
    def center(self) -> Tuple[float, float, int]:
        """Geometric centre ``(x, y, layer)``."""
        return (0.5 * (self.xlo + self.xhi), 0.5 * (self.ylo + self.yhi),
                (self.zlo + self.zhi) // 2)


class GlobalPlacer:
    """Runs recursive bisection on a placement (mutating it in place).

    Args:
        placement: cells should start at the chip centre
            (:meth:`Placement.at_center`).
        config: all coefficients and effort knobs (including
            ``num_workers``, the execution-backend parallelism).
        power_model: shared power model (created if omitted).
    """

    def __init__(self, placement: Placement, config: PlacementConfig,
                 power_model: Optional[PowerModel] = None) -> None:
        self.placement = placement
        self.config = config
        self.netlist = placement.netlist
        self.chip = placement.chip
        self.power_model = power_model or PowerModel(self.netlist,
                                                     config.tech)
        self.resistance = ResistanceModel(self.chip, config.tech)
        # refreshed once per level:
        self._lateral_w = np.ones(self.netlist.num_nets)
        self._vertical_w = np.ones(self.netlist.num_nets)
        self._trr_w = np.zeros(self.netlist.num_cells)

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Place all movable cells at their final region centres."""
        root = Region(cell_ids=self.netlist.movable_ids, xlo=0.0,
                      xhi=self.chip.width, ylo=0.0, yhi=self.chip.height,
                      zlo=0, zhi=self.chip.num_layers - 1, path=1)
        with create_backend(self.config.num_workers) as backend:
            self._run_levels(root, backend)

    def _run_levels(self, root: Region,
                    backend: ExecutionBackend) -> None:
        """Frontier-parallel BFS over bisection levels.

        Each iteration handles one level: the weights are refreshed if
        any region is left to bisect, terminal regions are finalized in
        frontier order, the remaining regions become backend tasks
        dispatched as one batch, and the resulting children (positions
        set to their region centres) form the next frontier.  All
        placement reads and writes happen here on the dispatching side,
        in frontier order, so the backend never sees shared state.
        """
        rec = get_recorder()
        pool: Optional[SharedArrayPool] = None
        if backend.num_workers > 1 and shared_memory_available():
            pool = SharedArrayPool()
        # Workers read only their task payloads, so they fork before the
        # level builds allocate (the netlist's signal CSR, the passes'
        # temporaries); after the probe above, so that they share the
        # resource tracker it started.
        backend.start()
        try:
            frontier = [root]
            level = 0
            while frontier:
                _log.debug("bisection level %d: %d regions pending",
                           level, len(frontier))
                terminal: List[Region] = []
                pending: List[Region] = []
                for region in frontier:
                    if self._is_terminal(region) or level >= _MAX_LEVELS:
                        terminal.append(region)
                    else:
                        pending.append(region)
                if pending:  # the weights feed this level's bisections
                    with rec.span("weights"):
                        self._refresh_weights()
                for region in terminal:
                    rec.count("global/terminal_regions")
                    self._finalize(region)
                if not pending:
                    break
                frontier = self._bisect_level(level, pending, backend,
                                              pool, rec)
                level += 1
        finally:
            if pool is not None:
                pool.close()

    def _bisect_level(self, level: int, pending: List[Region],
                      backend: ExecutionBackend,
                      pool: Optional[SharedArrayPool],
                      rec: Recorder) -> List[Region]:
        """Bisect one level's pending regions; returns their children,
        positions set to the region centres, in frontier order.  The
        level's tasks and results die with the call, before the next
        level's build."""
        with rec.span(f"level{level}/terminals"):
            tasks = self._build_tasks(pending)
        children: List[Region] = []
        with rec.span(f"level{level}/bisect"):
            results = self._dispatch(tasks, backend, pool, rec)
            for region, (parts, telemetry) in zip(pending, results):
                rec.merge(telemetry)
                rec.count("global/bisections")
                for child in self._apply_parts(region, parts):
                    if len(child.cell_ids):
                        self._set_positions(child)
                        children.append(child)
        return children

    def _dispatch(self, tasks: List[BisectionTask],
                  backend: ExecutionBackend,
                  pool: Optional[SharedArrayPool],
                  rec: Recorder) -> List[Tuple[np.ndarray, Telemetry]]:
        """Run one level's batch on the backend.

        With a shared-memory pool the batch is published once and each
        worker payload is a ~100-byte :class:`SegmentRef`; without one
        (serial backend, or no shm on this platform) tasks travel as
        dense pickled CSR payloads.  Both paths solve the identical
        task objects, so results are bit-identical either way.

        When telemetry is on, dispatch accounting is recorded either
        way: ``parallel/dispatch_bytes`` is what actually crossed the
        process boundary per path, and ``parallel/dense_task_bytes`` is
        what the pickled-CSR baseline would have shipped — the pair the
        scaling bench turns into a reduction ratio.
        """
        if pool is None:
            results = backend.map(solve_recorded, tasks)
            if rec.enabled and backend.num_workers > 1:
                dense = sum(len(pickle.dumps(t)) for t in tasks)
                rec.count("parallel/tasks", len(tasks))
                rec.count("parallel/dispatch_bytes", dense)
                rec.count("parallel/dense_task_bytes", dense)
            return results
        batch = pool.pack([vars(t) for t in tasks])
        try:
            results = backend.map(solve_packed_recorded, batch.refs)
        finally:
            batch.close()
        if rec.enabled:
            rec.count("parallel/tasks", len(tasks))
            rec.count("parallel/dispatch_bytes",
                      sum(len(pickle.dumps(r)) for r in batch.refs))
            rec.count("parallel/dense_task_bytes",
                      sum(len(pickle.dumps(t)) for t in tasks))
            rec.count("parallel/segment_bytes", batch.segment_bytes)
        return results

    # ------------------------------------------------------------------
    def _refresh_weights(self) -> None:
        """Recompute thermal net weights and TRR weights (per level)."""
        if not self.config.thermal_enabled:
            return
        self._lateral_w, self._vertical_w = self._net_weight_arrays()
        metrics = compute_net_metrics(self.placement)
        self._trr_w = compute_trr_weights(
            self.placement, self.config, self.power_model, metrics=metrics)

    def _net_weight_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        weights = compute_net_weights(self.placement, self.config,
                                      self.power_model, self.resistance)
        return weights.lateral, weights.vertical

    # ------------------------------------------------------------------
    def _is_terminal(self, region: Region) -> bool:
        return len(region.cell_ids) <= MIN_REGION_CELLS

    def _finalize(self, region: Region) -> None:
        """Commit final positions for a terminal region's cells.

        Cells go to the region's lateral centre; with multiple layers
        left, cells are distributed over the layers largest-first onto
        the least-filled layer, keeping per-layer area even.
        """
        cells = region.cell_ids
        self.placement.x[cells] = 0.5 * (region.xlo + region.xhi)
        self.placement.y[cells] = 0.5 * (region.ylo + region.yhi)
        if region.zlo == region.zhi:
            self.placement.z[cells] = region.zlo
            return
        areas = self.netlist.areas
        layers = list(range(region.zlo, region.zhi + 1))
        # rotate the tie-break start per region so ties do not all fall
        # on the lowest layer across the whole chip; the rotation comes
        # from the region's deterministic path id, so finalization is
        # independent of visit (and worker completion) order
        rot = region.path % len(layers)
        layers = layers[rot:] + layers[:rot]
        fill = {z: 0.0 for z in layers}
        for cid in cells[np.argsort(-areas[cells], kind="stable")].tolist():
            z = min(layers, key=lambda L: fill[L])
            fill[z] += float(areas[cid])
            self.placement.z[cid] = z

    def _set_positions(self, region: Region) -> None:
        cx, cy, cz = region.center
        self.placement.x[region.cell_ids] = cx
        self.placement.y[region.cell_ids] = cy
        self.placement.z[region.cell_ids] = cz

    # ------------------------------------------------------------------
    def _choose_axis(self, region: Region) -> str:
        """Cut orthogonal to the largest of width / height / weighted
        depth (= layers * alpha_ilv)."""
        spans = {"x": region.width, "y": region.height, "z": 0.0}
        if region.layers > 1:
            spans["z"] = region.layers * self.config.alpha_ilv
        # deterministic tie-break in x, y, z order
        return max(_AXES, key=lambda a: spans[a])

    def _split(self, region: Region) -> List[Region]:
        """Bisect one region in-process; returns its two children.

        Equivalent to one build/solve/apply round trip on the serial
        backend — the unit the frontier dispatch batches.
        """
        return self._apply_parts(region,
                                 solve(self._build_tasks([region])[0]))

    def _build_tasks(self, regions: Sequence[Region]
                     ) -> List[BisectionTask]:
        """Reduce one level's regions to self-contained bisection tasks.

        Terminal propagation [11] for every region at once, in one array
        pass over the netlist's signal CSR.  The regions' cell-net
        incidences group into (region, net) pairs, and the pins of a
        net outside a region are counted on each side of the region's
        provisional cut (:func:`_pins_at_or_below`), never visited.
        Per region, in the order of each net's first local pin (ties by
        net id), a net keeps its local pins, ascending, plus the
        terminal of its external side.  A net with external pins on
        both sides is cut whatever the partition and is dropped, as is
        one left with fewer than two pins.  Terminals are numbered by
        first need; on thermal z cuts the TRR nets (Eq. 12) follow the
        signal nets and claim the side-0 terminal last.

        Reads the netlist, the current positions and the level's weight
        arrays; everything the partitioner needs is copied into the
        payloads, so solving is a pure function that can run in any
        process.  Each task seed derives from its region's path id,
        never from a shared stream.  Temporaries are bounded by the
        netlist's pin count, whatever the number of regions.
        """
        if not regions:
            return []
        axes = [self._choose_axis(region) for region in regions]
        for region, axis in zip(regions, axes):
            if axis == "z" and region.layers == 1:
                raise AssertionError(
                    "z cut chosen on a single-layer region")
        csr = signal_csr(self.netlist)
        n_reg = len(regions)
        axis_of = np.array([_AXES.index(a) for a in axes], dtype=np.int64)
        # provisional cuts: the lateral midline, or child 0's last layer
        cut_of = np.array(
            [0.5 * (r.xlo + r.xhi) if a == "x"
             else 0.5 * (r.ylo + r.yhi) if a == "y"
             else float((r.zlo + r.zhi) // 2)
             for r, a in zip(regions, axes)], dtype=np.float64)
        size = np.fromiter((len(r.cell_ids) for r in regions),
                           dtype=np.int64, count=n_reg)
        start = np.zeros(n_reg + 1, dtype=np.int64)
        np.cumsum(size, out=start[1:])
        cells = np.concatenate([r.cell_ids for r in regions])
        entry_reg = np.repeat(np.arange(n_reg, dtype=np.int64), size)
        entry_loc = np.arange(len(cells), dtype=np.int64) - start[entry_reg]

        nets = _signal_nets(
            csr, (self.placement.x, self.placement.y, self.placement.z),
            cells, entry_reg, entry_loc, axis_of, cut_of)

        # Terminals by first need: the side of a region's first net
        # with one, then the other side, then side 0 for TRR nets.
        has_term = nets.side >= 0
        term_reg = nets.reg[has_term]
        term_side = nets.side[has_term]
        need = np.zeros((2, n_reg), dtype=bool)
        need[term_side, term_reg] = True
        lead = np.ones(len(term_reg), dtype=bool)
        np.not_equal(term_reg[1:], term_reg[:-1], out=lead[1:])
        first_side = np.full(n_reg, -1, dtype=np.int64)
        first_side[term_reg[lead]] = term_side[lead]
        # TRR pulls toward the heat sink: only z cuts feel them.  Cut
        # costs on both net kinds scale with the height difference
        # between the child-region centres, so it cancels out of the
        # relative weights: a cut signal net costs ~alpha_ilv * nw_vert
        # per crossed layer pitch, a cut TRR net costs nw_cell (Eq. 12,
        # per metre of height) times the pitch — hence the pitch /
        # alpha_ilv normalization here.
        trr_entry = np.zeros(0, dtype=np.int64)
        if self.config.thermal_enabled and self.config.use_trr_nets:
            trr_entry = np.flatnonzero((axis_of[entry_reg] == 2)
                                       & (self._trr_w[cells] > 0.0))
        need[0, entry_reg[trr_entry]] = True
        term0 = np.where(first_side == 0, size,
                         np.where(need[0], size + (first_side == 1), -1))
        term1 = np.where(first_side == 1, size,
                         np.where(need[1], size + 1, -1))

        # The level's nets, each region's contiguous: its signal nets,
        # then its TRR nets.  A TRR net's local pin follows the signal
        # nets' in ``locals_``.
        n_trr = len(trr_entry)
        net_reg = np.concatenate((nets.reg, entry_reg[trr_entry]))
        order = np.argsort(net_reg, kind="stable")
        net_reg = net_reg[order]
        src = np.concatenate((nets.first, len(nets.local)
                              + np.arange(n_trr, dtype=np.int64)))[order]
        n_src = np.concatenate((nets.n_local,
                                np.ones(n_trr, dtype=np.int64)))[order]
        side = np.concatenate((nets.side,
                               np.zeros(n_trr, dtype=np.int64)))[order]
        net_weights = np.concatenate((
            np.where(axis_of[nets.reg] == 2, self._vertical_w[nets.net],
                     self._lateral_w[nets.net]),
            self._trr_w[cells[trr_entry]]
            * (self.chip.layer_pitch / self.config.alpha_ilv)))[order]
        locals_ = np.append(nets.local, entry_loc[trr_entry])
        del nets
        # a net's terminal follows its local pins, every one below it
        has_term = side >= 0
        pins = np.insert(locals_[_ranges(src, n_src)],
                         np.cumsum(n_src)[has_term],
                         np.where(side == 0, term0[net_reg],
                                  term1[net_reg])[has_term])
        ptr = np.zeros(len(net_reg) + 1, dtype=np.int64)
        np.cumsum(n_src + has_term, out=ptr[1:])
        net_start = np.searchsorted(net_reg, np.arange(n_reg + 1))

        # each region's vertices: its cells, then its terminals
        n_vert = size + (term0 >= 0) + (term1 >= 0)
        vert_start = np.zeros(n_reg + 1, dtype=np.int64)
        np.cumsum(n_vert, out=vert_start[1:])
        vertex_weights = np.zeros(int(vert_start[-1]))
        vertex_weights[vert_start[entry_reg] + entry_loc] = \
            self.netlist.areas[cells]
        fixed = np.full(len(vertex_weights), FREE, dtype=np.int64)
        for pinned_side, terminal in enumerate((term0, term1)):
            fixed[(vert_start[:-1] + terminal)[terminal >= 0]] = pinned_side
        # the builtin sum keeps the float result of an in-order sum,
        # which the balance window depends on to the last bit
        weight_list = vertex_weights.tolist()
        bounds = vert_start.tolist()
        used = [float(sum(weight_list[a:b]))
                for a, b in zip(bounds[:-1], bounds[1:])]

        tasks: List[BisectionTask] = []
        for r, region in enumerate(regions):
            # balance target and whitespace-derived tolerance
            if axes[r] == "z":
                z_mid = (region.zlo + region.zhi) // 2
                target = (z_mid - region.zlo + 1) / region.layers
            else:
                target = 0.5
            capacity = (region.width * region.height * region.layers
                        / (1.0 + self.config.tech.inter_row_space))
            whitespace = (max(0.0, 1.0 - used[r] / capacity)
                          if capacity > 0 else 0.0)
            a, b = net_start[r], net_start[r + 1]
            v0, v1 = bounds[r], bounds[r + 1]
            tasks.append(BisectionTask(
                key=int(region.path), net_ptr=ptr[a:b + 1] - ptr[a],
                pin_vertices=pins[ptr[a]:ptr[b]],
                net_weights=net_weights[a:b],
                vertex_weights=vertex_weights[v0:v1], fixed=fixed[v0:v1],
                target=float(target),
                tolerance=max(MIN_PARTITION_TOLERANCE, 0.5 * whitespace),
                num_starts=int(self.config.partition_starts),
                max_passes=PARTITION_PASSES,
                seed=int(task_seed(self.config.seed, region.path))))
        return tasks

    def _apply_parts(self, region: Region,
                     parts: np.ndarray) -> List[Region]:
        """Turn a solved partition back into the region's two children."""
        axis = self._choose_axis(region)
        z_mid = ((region.zlo + region.zhi) // 2 if axis == "z" else 0)
        cells = region.cell_ids
        side = parts[:len(cells)]  # the rest are terminals
        cells0, cells1 = cells[side == 0], cells[side == 1]
        cells0.flags.writeable = cells1.flags.writeable = False
        return self._child_regions(region, axis, cells0, cells1, z_mid)

    # ------------------------------------------------------------------
    def _child_regions(self, region: Region, axis: str,
                       cells0: IntArray, cells1: IntArray,
                       z_mid: int) -> List[Region]:
        """Build the two children, repositioning the lateral cut line so
        cell area is evenly distributed (Section 3).  The cut depends on
        the float result of each side's in-order area sum."""
        areas = self.netlist.areas
        a0 = float(sum(areas[cells0].tolist()))
        a1 = float(sum(areas[cells1].tolist()))
        total = a0 + a1
        frac = a0 / total if total > 0 else 0.5
        frac = min(max(frac, 0.05), 0.95)
        path0 = 2 * region.path
        path1 = 2 * region.path + 1
        if axis == "x":
            cut = region.xlo + frac * region.width
            child0 = Region(cells0, region.xlo, cut, region.ylo,
                            region.yhi, region.zlo, region.zhi,
                            path=path0)
            child1 = Region(cells1, cut, region.xhi, region.ylo,
                            region.yhi, region.zlo, region.zhi,
                            path=path1)
        elif axis == "y":
            cut = region.ylo + frac * region.height
            child0 = Region(cells0, region.xlo, region.xhi, region.ylo,
                            cut, region.zlo, region.zhi, path=path0)
            child1 = Region(cells1, region.xlo, region.xhi, cut,
                            region.yhi, region.zlo, region.zhi,
                            path=path1)
        else:
            child0 = Region(cells0, region.xlo, region.xhi, region.ylo,
                            region.yhi, region.zlo, int(z_mid),
                            path=path0)
            child1 = Region(cells1, region.xlo, region.xhi, region.ylo,
                            region.yhi, int(z_mid) + 1, region.zhi,
                            path=path1)
        return [child0, child1]


# ----------------------------------------------------------------------
class _SignalNets(NamedTuple):
    """A level's kept signal nets, each region's in task order."""

    #: local pins of every (region, net) pair, ascending within a pair
    local: IntArray
    #: per kept net: its run in ``local``, its region and net id, and
    #: the side of its terminal (-1: none)
    first: IntArray
    n_local: IntArray
    reg: IntArray
    net: IntArray
    side: IntArray


def _signal_nets(csr: SignalCSR, coords: Sequence[np.ndarray],
                 cells: IntArray, entry_reg: IntArray, entry_loc: IntArray,
                 axis_of: IntArray, cut_of: FloatArray) -> _SignalNets:
    """Terminal propagation's view of a level's signal nets.

    ``cells`` lists every region's cells, region by region
    (``entry_reg``, ``entry_loc``); region ``r`` cuts axis
    ``axis_of[r]`` of ``coords`` at ``cut_of[r]``.  Each (region, net)
    pair keeps the net's local pins and the side of its pins outside
    the region; a pair with outside pins on both sides, or fewer than
    two pins with its terminal, is dropped.  Kept nets come in each
    region's task order: by first local pin, then net id.  Arrays the
    size of the pin count are dropped as soon as they are dead: the
    pass's peak memory is its live set.
    """
    stride = max(csr.num_nets, 1)
    lo = csr.cell_net_ptr[cells]
    deg = csr.cell_net_ptr[cells + 1] - lo
    inc_entry = np.repeat(np.arange(len(cells), dtype=np.int64), deg)
    # Incidences come in (region, local id, net) order; a stable sort
    # on (region, net) groups each pair, its local pins ascending.
    key = entry_reg[inc_entry] * stride
    key += csr.cell_net_idx[_ranges(lo, deg)]
    order = np.argsort(key, kind="stable")
    key = key[order]
    inc_entry = inc_entry[order]
    del order
    head = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    first = np.flatnonzero(head)
    n_local = np.diff(np.append(first, len(key)))
    reg, net = np.divmod(key[first], stride)
    del key

    # pins at or below the cut, of the pair's local pins (a running
    # count over the incidences) and of the whole net; the rest of the
    # net lies outside the region
    run = np.zeros(len(inc_entry) + 1, dtype=np.int64)
    net_below = np.zeros(len(first), dtype=np.int64)
    for a, coord in enumerate(coords):
        on_axis = axis_of[entry_reg[inc_entry]] == a
        if not on_axis.any():
            continue
        run[1:][on_axis] = (coord[cells[inc_entry[on_axis]]]
                            <= cut_of[entry_reg[inc_entry[on_axis]]])
        on_axis = axis_of[reg] == a
        net_below[on_axis] = _pins_at_or_below(
            csr, coord, net[on_axis], cut_of[reg[on_axis]])
    local = entry_loc[inc_entry]
    del inc_entry
    np.cumsum(run, out=run)
    local_below = run[first + n_local] - run[first]
    del run
    out0 = net_below > local_below
    out1 = csr.net_deg[net] - net_below > n_local - local_below
    keep = np.flatnonzero(~(out0 & out1) & (n_local + (out0 | out1) >= 2))
    keep = keep[np.lexsort((net[keep], local[first[keep]], reg[keep]))]
    side = np.where(out0, 0, np.where(out1, 1, -1))[keep]
    return _SignalNets(local, first[keep], n_local[keep], reg[keep],
                       net[keep], side)


def _ranges(starts: IntArray, lengths: IntArray) -> IntArray:
    """``arange(s, s + n)`` for every ``(s, n)`` pair, concatenated."""
    index = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    index += np.arange(len(index), dtype=np.int64)
    return index


def _pins_at_or_below(csr: SignalCSR, coord: np.ndarray, nets: IntArray,
                      cuts: FloatArray) -> IntArray:
    """For each query ``i``, the pins of net ``nets[i]`` whose
    coordinate is at most ``cuts[i]``.

    A coordinate's rank is the number of coordinates below it, so one
    sorted key per pin, ``net * stride + rank``, answers every query
    with one binary search: memory stays linear in the pin count
    however many regions ask.
    """
    values = np.sort(coord)
    stride = np.int64(len(values) + 1)
    keys = np.repeat(np.arange(csr.num_nets, dtype=np.int64) * stride,
                     csr.net_deg)
    keys += np.searchsorted(values, coord)[csr.pin_cell]
    keys += 1
    keys.sort()
    ceiling = np.searchsorted(values, cuts, side="right")
    return (np.searchsorted(keys, nets * stride + ceiling, side="right")
            - csr.net_ptr[nets])
