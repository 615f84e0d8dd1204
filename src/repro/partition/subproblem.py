"""Picklable bisection subproblems for the parallel backend.

A :class:`BisectionTask` is a bisection problem reduced to flat numpy
arrays — the CSR pin structure, net weights, vertex weights and fixed
sides — plus the scalar partitioning knobs.  It carries everything
:func:`~repro.partition.multilevel.bisect` needs and nothing else: no
netlist, no placement, no placer state.  That makes tasks cheap to
pickle across process boundaries and makes :func:`solve` a pure
function of its payload, which is what the determinism contract of
:mod:`repro.parallel` requires.

The ``key`` field is the caller's deterministic task id (the global
placer uses the region's bisection-tree path id); the task ``seed``
must be derived from it, never from a shared sequential stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.obs import Recorder, Telemetry, use_recorder
from repro.parallel import SegmentRef, resolve_packed
from repro.partition.hypergraph import Hypergraph
from repro.partition.multilevel import BisectionConfig, bisect

__all__ = ["BisectionTask", "solve", "solve_packed_recorded",
           "solve_recorded"]


@dataclass(frozen=True)
class BisectionTask:
    """One self-contained bisection problem in compact array form.

    Attributes:
        key: deterministic task id (region path id), for telemetry and
            seed-derivation audits.
        net_ptr: int64 array of length ``m + 1``; net ``e``'s pins are
            ``pin_vertices[net_ptr[e]:net_ptr[e + 1]]``.
        pin_vertices: int64 array of local vertex ids, all nets
            concatenated.  The global placer writes each net's pins
            ascending and distinct, the canonical form
            :meth:`hypergraph` establishes for any task.
        net_weights: float64 cut cost per net.
        vertex_weights: float64 balance weight per vertex.
        fixed: int64 per-vertex side pin (-1 = free), for terminal
            propagation.
        target: desired fraction of free weight in part 0.
        tolerance: allowed absolute deviation from ``target``.
        num_starts: random initial partitions at the coarsest level.
        max_passes: FM passes per refinement level.
        seed: task-local RNG seed (derive with
            :func:`repro.parallel.task_seed`).
    """

    key: int
    net_ptr: np.ndarray
    pin_vertices: np.ndarray
    net_weights: np.ndarray
    vertex_weights: np.ndarray
    fixed: np.ndarray
    target: float
    tolerance: float
    num_starts: int
    max_passes: int
    seed: int

    @property
    def num_vertices(self) -> int:
        """Vertex count of the subproblem."""
        return len(self.vertex_weights)

    @property
    def num_nets(self) -> int:
        """Net count of the subproblem."""
        return len(self.net_ptr) - 1

    @property
    def nbytes(self) -> int:
        """Bytes of the task's arrays: the payload dense dispatch ships
        besides a few scalars."""
        return int(self.net_ptr.nbytes + self.pin_vertices.nbytes
                   + self.net_weights.nbytes + self.vertex_weights.nbytes
                   + self.fixed.nbytes)

    def hypergraph(self) -> Hypergraph:
        """Materialize the task's :class:`Hypergraph`."""
        return Hypergraph.from_csr(self.num_vertices, self.net_ptr,
                                   self.pin_vertices, self.net_weights,
                                   self.vertex_weights, self.fixed)

    @classmethod
    def from_nets(cls, nets: List[List[int]], net_weights: List[float],
                  vertex_weights: List[float], fixed: List[int],
                  target: float, tolerance: float, num_starts: int,
                  max_passes: int, seed: int, key: int = 0,
                  ) -> "BisectionTask":
        """Flatten pin lists into the compact CSR payload form."""
        m = len(nets)
        counts = np.fromiter((len(p) for p in nets), dtype=np.int64,
                             count=m)
        net_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=net_ptr[1:])
        pin_vertices = np.fromiter(
            (p for pins in nets for p in pins), dtype=np.int64,
            count=int(net_ptr[-1]))
        return cls(
            key=int(key), net_ptr=net_ptr, pin_vertices=pin_vertices,
            net_weights=np.asarray(net_weights, dtype=np.float64),
            vertex_weights=np.asarray(vertex_weights, dtype=np.float64),
            fixed=np.asarray(fixed, dtype=np.int64),
            target=float(target), tolerance=float(tolerance),
            num_starts=int(num_starts), max_passes=int(max_passes),
            seed=int(seed))


def solve(task: BisectionTask) -> np.ndarray:
    """Solve one bisection task; returns the 0/1 side of every vertex.

    A pure function of the payload: identical tasks produce identical
    partitions on any backend, in any process, in any order.
    """
    parts, _ = bisect(task.hypergraph(), BisectionConfig(
        target=task.target, tolerance=task.tolerance,
        num_starts=task.num_starts, max_passes=task.max_passes,
        seed=task.seed))
    return parts


def solve_recorded(task: BisectionTask) -> Tuple[np.ndarray, Telemetry]:
    """Solve one task under a child recorder; ship its telemetry back.

    The worker installs a fresh ambient :class:`Recorder` so the deep
    counters the partitioner emits (``fm/passes`` …) are captured
    in-process, then returns them as a snapshot for the dispatching
    side to fold into the run recorder with
    :meth:`~repro.obs.Recorder.merge`.  Counters are additive, so the
    merged totals are independent of how tasks were distributed.  The
    recorder tracks no resources: the dispatching side reads each pool
    worker's peak RSS once, before the pool closes.
    """
    recorder = Recorder(track_resources=False)
    with use_recorder(recorder):
        parts = solve(task)
    return parts, recorder.snapshot()


def solve_packed_recorded(ref: SegmentRef
                          ) -> Tuple[np.ndarray, Telemetry]:
    """Resolve a shared-arena ref and solve it, telemetry attached.

    The zero-copy twin of :func:`solve_recorded`: the pool pickles only
    the ~100-byte ``ref``; the CSR arrays are mapped read-only from the
    batch segment.  A task packs as its own fields (``vars(task)``), so
    the task rebuilt from them is the exact task the dispatcher packed
    and results are bit-identical to the dense path.  Its arrays stay
    read-only shared-memory views: every consumer downstream
    (:meth:`BisectionTask.hypergraph`) copies them or treats them as
    immutable.
    """
    return solve_recorded(BisectionTask(**resolve_packed(ref)))
