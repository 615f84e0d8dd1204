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
pending regions are reduced to compact picklable
:class:`~repro.partition.subproblem.BisectionTask` payloads and
dispatched together on an execution backend (:mod:`repro.parallel`).
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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import PlacementConfig
from repro.core.netweights import compute_net_weights
from repro.core.trrnets import compute_trr_weights
from repro.metrics.wirelength import compute_net_metrics
from repro.netlist.placement import Placement
from repro.obs import Recorder, Telemetry, get_logger, get_recorder
from repro.parallel import (ExecutionBackend, SharedArrayPool,
                            create_backend, shared_memory_available,
                            task_seed)
from repro.partition.subproblem import (BisectionTask, solve,
                                        solve_packed_recorded,
                                        solve_recorded, task_payload)
from repro.thermal.power import PowerModel
from repro.thermal.resistance import ResistanceModel

_log = get_logger(__name__)

#: Axis labels in cut-direction priority evaluation order.
_AXES = ("x", "y", "z")

#: Recursion depth cap (the bisection tree is level-balanced, so 64
#: levels is far beyond any real instance).
_MAX_LEVELS = 64


@dataclass
class Region:
    """A recursive-bisection region: cells plus a physical sub-volume.

    Attributes:
        cell_ids: movable cells assigned to the region.
        xlo, xhi, ylo, yhi: lateral bounds, metres.
        zlo, zhi: inclusive layer range.
        path: deterministic bisection-tree path id (heap numbering:
            root 1, children ``2 * path`` and ``2 * path + 1``).  Seeds
            and tie-breaks derive from it, never from visit order.
    """

    cell_ids: List[int]
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
        movable = [c.id for c in self.netlist.cells if c.movable]
        root = Region(cell_ids=movable, xlo=0.0, xhi=self.chip.width,
                      ylo=0.0, yhi=self.chip.height,
                      zlo=0, zhi=self.chip.num_layers - 1, path=1)
        with create_backend(self.config.num_workers) as backend:
            self._run_levels(root, backend)

    def _run_levels(self, root: Region,
                    backend: ExecutionBackend) -> None:
        """Frontier-parallel BFS over bisection levels.

        Each iteration handles one level: terminal regions are
        finalized in frontier order, the remaining regions become
        backend tasks dispatched as one batch, and the resulting
        children (positions set to their region centres) form the next
        frontier.  All placement reads and writes happen here on the
        dispatching side, in frontier order, so the backend never sees
        shared state.
        """
        rec = get_recorder()
        pool: Optional[SharedArrayPool] = None
        if backend.num_workers > 1 and shared_memory_available():
            pool = SharedArrayPool()
        try:
            frontier = [root]
            level = 0
            while frontier:
                _log.debug("bisection level %d: %d regions pending",
                           level, len(frontier))
                with rec.span("weights"):
                    self._refresh_weights()
                pending: List[Region] = []
                for region in frontier:
                    if self._is_terminal(region) or level >= _MAX_LEVELS:
                        rec.count("global/terminal_regions")
                        self._finalize(region)
                    else:
                        pending.append(region)
                frontier = []
                if not pending:
                    break
                with rec.span(f"level{level}/bisect"):
                    tasks = [self._build_task(region)
                             for region in pending]
                    results = self._dispatch(tasks, backend, pool, rec)
                    for region, (parts, telemetry) in zip(pending,
                                                          results):
                        rec.merge(telemetry)
                        rec.count("global/bisections")
                        for child in self._apply_parts(region, parts):
                            if child.cell_ids:
                                self._set_positions(child)
                                frontier.append(child)
                level += 1
        finally:
            if pool is not None:
                pool.close()

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
        batch = pool.pack([task_payload(t) for t in tasks])
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
        return len(region.cell_ids) <= self.config.min_region_cells

    def _finalize(self, region: Region) -> None:
        """Commit final positions for a terminal region's cells.

        Cells go to the region's lateral centre; with multiple layers
        left, cells are distributed over the layers largest-first onto
        the least-filled layer, keeping per-layer area even.
        """
        cx = 0.5 * (region.xlo + region.xhi)
        cy = 0.5 * (region.ylo + region.yhi)
        if region.zlo == region.zhi:
            for cid in region.cell_ids:
                self.placement.x[cid] = cx
                self.placement.y[cid] = cy
                self.placement.z[cid] = region.zlo
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
        for cid in sorted(region.cell_ids,
                          key=lambda c: -float(areas[c])):
            z = min(layers, key=lambda L: fill[L])
            fill[z] += float(areas[cid])
            self.placement.x[cid] = cx
            self.placement.y[cid] = cy
            self.placement.z[cid] = z

    def _set_positions(self, region: Region) -> None:
        cx, cy, cz = region.center
        for cid in region.cell_ids:
            self.placement.x[cid] = cx
            self.placement.y[cid] = cy
            self.placement.z[cid] = cz

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
        return self._apply_parts(region, solve(self._build_task(region)))

    def _build_task(self, region: Region) -> BisectionTask:
        """Reduce one region to a self-contained bisection task.

        Reads the netlist, current positions (terminal propagation) and
        the level's weight arrays; everything the partitioner needs is
        copied into the payload, so solving is a pure function that can
        run in any process.  The task seed derives from the region's
        path id, never from a shared stream.
        """
        axis = self._choose_axis(region)
        if axis == "z" and region.layers == 1:
            raise AssertionError("z cut chosen on a single-layer region")
        cells = region.cell_ids
        local: Dict[int, int] = {cid: i for i, cid in enumerate(cells)}
        k = len(cells)
        areas = self.netlist.areas

        # provisional cut coordinate for terminal propagation
        z_mid = 0
        cut = 0.0
        if axis == "x":
            cut = 0.5 * (region.xlo + region.xhi)
        elif axis == "y":
            cut = 0.5 * (region.ylo + region.yhi)
        else:
            z_mid = (region.zlo + region.zhi) // 2  # last layer of child 0

        nets: List[List[int]] = []
        weights: List[float] = []
        terminal_of_side = {0: -1, 1: -1}
        vertex_weights = [float(areas[c]) for c in cells]
        fixed = [-1] * k

        def terminal(side: int) -> int:
            if terminal_of_side[side] < 0:
                terminal_of_side[side] = len(vertex_weights)
                vertex_weights.append(0.0)
                fixed.append(side)
            return terminal_of_side[side]

        px = self.placement.x
        py = self.placement.y
        pz = self.placement.z

        def side_of_external(cid: int) -> int:
            if axis == "x":
                return 0 if px[cid] <= cut else 1
            if axis == "y":
                return 0 if py[cid] <= cut else 1
            return 0 if pz[cid] <= z_mid else 1

        weight_arr = (self._vertical_w if axis == "z"
                      else self._lateral_w)
        seen = set()
        for cid in cells:
            for nid in self.netlist.nets_of_cell(cid):
                if nid in seen:
                    continue
                seen.add(nid)
                net = self.netlist.nets[nid]
                internal = []
                ext_sides = set()
                for pc in net.unique_cell_ids:
                    li = local.get(pc)
                    if li is not None:
                        internal.append(li)
                    else:
                        ext_sides.add(side_of_external(pc))
                if len(ext_sides) == 2:
                    continue  # cut regardless of the partition: constant
                pins = list(internal)
                # sorted: terminal numbering follows iteration order,
                # and set order is arbitrary (determinism pass RPA103)
                for s in sorted(ext_sides):
                    pins.append(terminal(s))
                if len(pins) < 2:
                    continue
                weights.append(float(weight_arr[nid]))
                nets.append(pins)

        # TRR pulls toward the heat sink: only z cuts feel them.  Cut
        # costs on both net kinds scale with the height difference
        # between the child-region centres, so it cancels out of the
        # relative weights: a cut signal net costs ~alpha_ilv * nw_vert
        # per crossed layer pitch, a cut TRR net costs nw_cell (Eq. 12,
        # per metre of height) times the pitch — hence the pitch /
        # alpha_ilv normalization here.
        if axis == "z" and self.config.thermal_enabled \
                and self.config.use_trr_nets:
            scale = self.chip.layer_pitch / self.config.alpha_ilv
            for cid in cells:
                w = float(self._trr_w[cid])
                if w > 0.0:
                    nets.append([local[cid], terminal(0)])
                    weights.append(w * scale)

        # balance target and whitespace-derived tolerance
        if axis == "z":
            lower_layers = z_mid - region.zlo + 1
            target = lower_layers / region.layers
        else:
            target = 0.5
        capacity = (region.width * region.height * region.layers
                    / (1.0 + self.config.tech.inter_row_space))
        used = float(sum(vertex_weights))
        whitespace = max(0.0, 1.0 - used / capacity) if capacity > 0 else 0.0
        tolerance = max(self.config.min_partition_tolerance,
                        0.5 * whitespace)

        return BisectionTask.from_nets(
            nets, weights, vertex_weights, fixed,
            target=target, tolerance=tolerance,
            num_starts=self.config.partition_starts,
            max_passes=self.config.partition_passes,
            seed=task_seed(self.config.seed, region.path),
            key=region.path)

    def _apply_parts(self, region: Region,
                     parts: np.ndarray) -> List[Region]:
        """Turn a solved partition back into the region's two children."""
        axis = self._choose_axis(region)
        z_mid = ((region.zlo + region.zhi) // 2 if axis == "z" else 0)
        cells = region.cell_ids
        cells0 = [cid for i, cid in enumerate(cells) if parts[i] == 0]
        cells1 = [cid for i, cid in enumerate(cells) if parts[i] == 1]
        return self._child_regions(region, axis, cells0, cells1, z_mid)

    # ------------------------------------------------------------------
    def _child_regions(self, region: Region, axis: str,
                       cells0: List[int], cells1: List[int],
                       z_mid: int) -> List[Region]:
        """Build the two children, repositioning the lateral cut line so
        cell area is evenly distributed (Section 3)."""
        areas = self.netlist.areas
        a0 = float(sum(areas[c] for c in cells0))
        a1 = float(sum(areas[c] for c in cells1))
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
