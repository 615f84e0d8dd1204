"""Multilevel bisection: coarsen, partition, uncoarsen-and-refine.

This is the drop-in replacement for hMetis [15] that the global placer
calls at every recursive bisection.  The scheme is the standard V-cycle:

1. **Coarsening** — repeated heavy-edge matching until the hypergraph is
   small (or matching stalls).
2. **Initial partitioning** — a small portfolio of random balanced
   partitions at the coarsest level, each polished by FM; best kept.
   More ``num_starts`` = better cuts = more runtime (the "random starts"
   effort knob of the paper's Section 7 experiments).
3. **Uncoarsening** — project the partition back level by level, running
   FM refinement at each level.

Fixed vertices (terminal propagation) are respected throughout: they are
never matched during coarsening and never moved by FM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.partition.fm import FMRefiner, cut_cost
from repro.partition.hypergraph import Hypergraph

#: Coarsening stops below this many vertices.
COARSEN_TO = 96


@dataclass
class BisectionConfig:
    """Knobs of the multilevel bisector.

    Attributes:
        target: desired fraction of free weight in part 0.
        tolerance: allowed absolute deviation from ``target``.
        num_starts: random initial partitions tried at the coarsest level.
        max_passes: FM passes per refinement level.
        seed: RNG seed.
    """

    target: float = 0.5
    tolerance: float = 0.05
    num_starts: int = 4
    max_passes: int = 6
    seed: int = 0


def bisect(graph: Hypergraph, config: Optional[BisectionConfig] = None
           ) -> Tuple[np.ndarray, float]:
    """Bisect a hypergraph.

    Args:
        graph: the hypergraph; fixed vertices are honoured.
        config: bisection parameters (defaults if omitted).

    Returns:
        ``(parts, cut)`` — the 0/1 side of every vertex and the weighted
        cut cost achieved.
    """
    config = config or BisectionConfig()
    rng = np.random.default_rng(config.seed)

    if graph.num_vertices == 0:
        return np.zeros(0, dtype=np.int64), 0.0
    if not len(graph.free_ids):
        parts = graph.fixed.copy()
        return parts, cut_cost(graph, parts)

    # ---- coarsening phase -------------------------------------------
    levels: List[Tuple[Hypergraph, np.ndarray]] = []  # (fine graph, map)
    current = graph
    while current.num_vertices > COARSEN_TO and current.num_nets > 0:
        match = _heavy_edge_matching(current, rng)
        coarse, vmap = current.contract(match)
        if coarse.num_vertices >= current.num_vertices * 0.95:
            break  # matching stalled; stop coarsening
        levels.append((current, vmap))
        current = coarse

    # ---- initial partitioning at the coarsest level ------------------
    refiner = FMRefiner(current, config.target, config.tolerance, rng)
    parts = _initial_portfolio(refiner, config, rng)

    # ---- uncoarsening + refinement ------------------------------------
    refiner.refine(parts, config.max_passes)
    for fine, vmap in reversed(levels):
        fine_parts = parts[vmap]
        refiner = FMRefiner(fine, config.target, config.tolerance, rng)
        refiner.refine(fine_parts, config.max_passes)
        parts = fine_parts

    _repair_empty_side(graph, parts)
    return parts, cut_cost(graph, parts)


def _repair_empty_side(graph: Hypergraph, parts: np.ndarray) -> None:
    """Guarantee both sides are populated when >= 2 vertices are free.

    The widened balance window (it must admit the heaviest vertex) can
    let FM legally empty one side of a tiny graph; a bisection with an
    empty part is useless to callers, so the loosest-connected free
    vertex is moved across.
    """
    free_ids = graph.free_ids
    if len(free_ids) < 2:
        return
    for side in (0, 1):
        on_side = [v for v in free_ids if parts[v] == side]
        if on_side:
            continue
        other = [v for v in free_ids if parts[v] != side]

        def connectivity(v: int) -> float:
            return sum(graph.net_weights[e]
                       for e in graph.vertex_nets(int(v)))

        mover = min(other, key=connectivity)
        parts[mover] = side


# ----------------------------------------------------------------------
def _heavy_edge_matching(graph: Hypergraph, rng: np.random.Generator
                         ) -> np.ndarray:
    """One round of heavy-edge matching.

    Returns a representative map suitable for
    :meth:`Hypergraph.contract`.  Fixed vertices are left unmatched so
    they survive to the coarsest level individually.
    """
    n = graph.num_vertices
    match = list(range(n))
    # matched or fixed: neither may join a new pair
    busy = (~graph.free).tolist()
    for v in rng.permutation(n).tolist():
        if busy[v]:
            continue
        best_u = -1
        best_score = 0.0
        for u, score in graph.neighbors_scored(v).items():
            if busy[u]:
                continue
            if score > best_score:
                best_score = score
                best_u = u
        if best_u >= 0:
            match[best_u] = v
            busy[v] = True
            busy[best_u] = True
    return np.array(match, dtype=np.int64)


def _initial_portfolio(refiner: FMRefiner, config: BisectionConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Best of ``num_starts`` random balanced partitions of the
    refiner's graph after FM polish."""
    best_parts = None
    best_cut = np.inf
    for _ in range(max(1, config.num_starts)):
        parts = _random_balanced(refiner.graph, config.target, rng)
        cut = refiner.refine(parts, config.max_passes)
        if cut < best_cut:
            best_cut = cut
            best_parts = parts
    return best_parts


def _random_balanced(graph: Hypergraph, target: float,
                     rng: np.random.Generator) -> np.ndarray:
    """A random partition hitting the target weight split.

    Free vertices are shuffled and greedily assigned to part 0 until its
    weight reaches ``target`` of the free total; the rest go to part 1.
    Fixed vertices keep their side.
    """
    parts = np.where(graph.free, 1, graph.fixed)
    order = rng.permutation(graph.free_ids)
    goal = target * graph.free_weight
    # part 0's weight before each vertex joins, summed in order; weights
    # are non-negative, so the vertices it leaves short of the goal are
    # a prefix, the ones the greedy assignment takes
    before = np.zeros(len(order), dtype=np.float64)
    np.cumsum(graph.vertex_weights[order[:-1]], out=before[1:])
    parts[order[before < goal]] = 0
    return parts
