"""Fiduccia–Mattheyses bisection refinement with float net weights.

Classic FM uses integer gain buckets; the placer's net weights are real
numbers (thermal net weights, Eq. 8 of the paper), so this implementation
keeps move candidates in a lazy-deletion binary heap instead.  Gains are
maintained incrementally with the standard FM critical-net update rules,
so each move costs O(pins on critical nets), not O(neighbourhood size).

Each pass moves vertices one at a time (always the best *legal* move),
locks them, and finally rolls back to the best prefix seen — exactly the
FM schedule, with a balance window ``[target - tol, target + tol]`` on
part 0's share of the free vertex weight.

The move loop deliberately uses plain Python lists: the hypergraphs have
tiny nets, where list indexing beats NumPy scalar access several-fold,
and this loop dominates total placement runtime.  The *setup* of each
pass — per-net side counts, initial gains, the starting balance — is
different: it touches every pin exactly once, so on graphs above a small
size threshold it runs as array reductions over the hypergraph's flat
CSR pin structure (:meth:`Hypergraph.net_csr`); tiny coarsened graphs
keep the scalar path, where per-array overhead would dominate.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis import IntArray, contract
from repro.obs import get_recorder
from repro.partition.hypergraph import FREE, Hypergraph

#: Below this many total pins the scalar setup path is used: NumPy's
#: per-call overhead beats the loop only once there is real data.
VECTOR_MIN_PINS = 256


def _side_counts(graph: Hypergraph, side: IntArray
                 ) -> Tuple[IntArray, IntArray]:
    """Pins of each net on side 0 / side 1, via CSR reductions."""
    ptr, pins, pin_net = graph.net_csr()
    c1 = np.zeros(graph.num_nets, dtype=np.int64)
    np.add.at(c1, pin_net, side[pins])
    c0 = np.diff(ptr) - c1
    return c0, c1


def cut_cost(graph: Hypergraph,
             parts: Union[Sequence[int], IntArray]) -> float:
    """Weighted cut of a bisection: sum of weights of nets with pins on
    both sides."""
    total_pins = sum(len(p) for p in graph.nets)
    if total_pins >= VECTOR_MIN_PINS:
        side_arr = np.asarray(parts, dtype=np.int64)
        c0, c1 = _side_counts(graph, side_arr)
        w = np.asarray(graph.net_weights, dtype=np.float64)
        return float(w[(c0 > 0) & (c1 > 0)].sum())
    side = [int(p) for p in parts]
    total = 0.0
    for pins, w in zip(graph.nets, graph.net_weights):
        if not pins:
            continue
        first = side[pins[0]]
        for p in pins:
            if side[p] != first:
                total += w
                break
    return total


class FMRefiner:
    """One FM refinement engine bound to a hypergraph.

    Args:
        graph: the hypergraph to refine.
        target: desired fraction of *free* vertex weight in part 0.
        tolerance: allowed deviation of that fraction (absolute).
        rng: random generator for tie-breaking order.
    """

    def __init__(self, graph: Hypergraph, target: float = 0.5,
                 tolerance: float = 0.05,
                 rng: Optional[np.random.Generator] = None) -> None:
        if not 0.0 < target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.graph = graph
        self.target = target
        self.tolerance = tolerance
        self.rng = rng if rng is not None else np.random.default_rng(0)
        free_w = graph.free_weight
        half = tolerance * free_w
        # The window must leave room to move the heaviest free vertex out
        # of a perfectly balanced state, or FM deadlocks immediately.
        movable = graph.fixed == FREE
        if movable.any():
            biggest = float(graph.vertex_weights[movable].max())
            half = max(half, biggest)
        self.lo = target * free_w - half
        self.hi = target * free_w + half
        # plain-list mirrors of the per-vertex arrays: the pass loop
        # indexes them millions of times, where list access beats NumPy
        # scalar access several-fold
        self._vw: List[float] = graph.vertex_weights.tolist()
        self._free: List[bool] = (graph.fixed == FREE).tolist()

    # ------------------------------------------------------------------
    @contract(shapes={"parts": ("v",)}, dtypes={"parts": np.integer})
    def refine(self, parts: IntArray, max_passes: int = 8) -> float:
        """Run FM passes in place until no pass improves the cut.

        Args:
            parts: 0/1 side of each vertex; modified in place.  Fixed
                vertices must already sit on their pinned side.
            max_passes: upper bound on passes.

        Returns:
            The final weighted cut cost.
        """
        g = self.graph
        for v in range(g.num_vertices):
            if g.fixed[v] != FREE and parts[v] != g.fixed[v]:
                raise ValueError(
                    f"vertex {v} is fixed to side {g.fixed[v]} "
                    f"but assigned to {parts[v]}")
        cost = cut_cost(g, parts)
        side = [int(p) for p in parts]
        rec = get_recorder()
        for _ in range(max_passes):
            improvement, kept_moves, rolled_back = self._pass(side)
            cost -= improvement
            if rec.enabled:
                rec.count("fm/passes")
                rec.count("fm/gain", improvement)
                rec.count("fm/kept_moves", float(kept_moves))
                rec.count("fm/rolled_back_moves", float(rolled_back))
            # A pass that kept moves without improving the cut was a
            # balance repair; give the next pass a chance to optimize
            # from the now-feasible state.
            if improvement <= 1e-15 and kept_moves == 0:
                break
        parts[:] = side
        return cost

    # ------------------------------------------------------------------
    def _pass(self, side: List[int]) -> Tuple[float, int, int]:
        """One FM pass over ``side`` (mutated in place).

        Returns:
            ``(improvement, kept_moves, rolled_back)`` — the cut
            improvement of the kept prefix (may be negative if the
            prefix was kept to repair an out-of-window balance), its
            length, and the number of tentative moves undone.
        """
        g = self.graph
        n = g.num_vertices
        nets = g.nets
        net_w = g.net_weights
        vnets = g.vertex_nets_all()
        vw = self._vw
        free = self._free

        counts, gains, weight0 = self._pass_setup(side, free, vw)

        locked = [False] * n
        stamp = [0] * n
        noise = self.rng.random(n).tolist()
        heap: List[Tuple[float, float, int, int]] = [
            (-gains[v], noise[v], v, 0) for v in range(n) if free[v]]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush

        moves: List[int] = []
        cum_gain = 0.0
        lo, hi = self.lo, self.hi

        # Best prefix: feasibility (smallest balance violation) first,
        # then cut gain — otherwise moves that only repair an
        # out-of-window start would always be rolled back.
        viol0 = lo - weight0 if weight0 < lo else (
            weight0 - hi if weight0 > hi else 0.0)
        best_key = (viol0, 0.0)
        best_gain = 0.0
        best_prefix = 0
        deferred: List[Tuple[float, float, int, int]] = []

        while heap:
            item = heappop(heap)
            neg_gain, _, v, st = item
            if locked[v] or st != stamp[v]:
                continue
            w = vw[v]
            new_w0 = weight0 - w if side[v] == 0 else weight0 + w
            # legality check (inlined): inside the window, or at least
            # reducing an existing violation
            if not (lo <= new_w0 <= hi):
                if weight0 < lo:
                    legal = new_w0 > weight0
                elif weight0 > hi:
                    legal = new_w0 < weight0
                else:
                    legal = False
                if not legal:
                    # Set aside until the balance changes (the next
                    # applied move re-queues it).  Every pop consumes a
                    # heap entry, so the pass terminates.
                    deferred.append(item)
                    continue
            if deferred:
                for it in deferred:
                    if not locked[it[2]]:
                        heappush(heap, it)
                deferred.clear()

            # ---- apply the move with FM critical-net gain updates ----
            frm = side[v]
            to = 1 - frm
            delta: Dict[int, float] = {}
            dget = delta.get
            for e in vnets[v]:
                pins = nets[e]
                we = net_w[e]
                c = counts[e]
                t_before = c[to]
                if t_before == 0:
                    for u in pins:
                        if u != v and free[u] and not locked[u]:
                            delta[u] = dget(u, 0.0) + we
                elif t_before == 1:
                    for u in pins:
                        if side[u] == to:
                            if free[u] and not locked[u]:
                                delta[u] = dget(u, 0.0) - we
                            break
                c[frm] -= 1
                c[to] += 1
                f_after = c[frm]
                if f_after == 0:
                    for u in pins:
                        if u != v and free[u] and not locked[u]:
                            delta[u] = dget(u, 0.0) - we
                elif f_after == 1:
                    for u in pins:
                        if u != v and side[u] == frm:
                            if free[u] and not locked[u]:
                                delta[u] = dget(u, 0.0) + we
                            break
            side[v] = to
            weight0 = new_w0
            locked[v] = True
            moves.append(v)
            cum_gain += -neg_gain
            viol = lo - weight0 if weight0 < lo else (
                weight0 - hi if weight0 > hi else 0.0)
            if (viol < best_key[0] - 1e-15
                    or (abs(viol - best_key[0]) <= 1e-15
                        and -cum_gain < best_key[1] - 1e-15)):
                best_key = (viol, -cum_gain)
                best_gain = cum_gain
                best_prefix = len(moves)

            for u, d in delta.items():
                if d:
                    gains[u] += d
                    stamp[u] += 1
                    heappush(heap, (-gains[u], noise[u], u, stamp[u]))

        # roll back to the best prefix
        for v in moves[best_prefix:]:
            side[v] = 1 - side[v]
        return best_gain, best_prefix, len(moves) - best_prefix

    # ------------------------------------------------------------------
    def _pass_setup(self, side: List[int], free: List[bool],
                    vw: List[float]
                    ) -> Tuple[List[List[int]], List[float], float]:
        """Per-net side counts, initial FM gains, and part-0 weight.

        One touch per pin; vectorized over the CSR pin structure on
        graphs large enough for the array path to pay for itself.  The
        gain rules are the classic FM patterns: uncut nets penalize
        every pin by the net weight, critical nets (one pin alone on a
        side) reward that lone pin.
        """
        g = self.graph
        n = g.num_vertices
        nets = g.nets
        net_w = g.net_weights
        ptr, pins_arr, pin_net = g.net_csr()
        if len(pins_arr) >= VECTOR_MIN_PINS:
            side_arr = np.asarray(side, dtype=np.int64)
            c0, c1 = _side_counts(g, side_arr)
            w = np.asarray(net_w, dtype=np.float64)
            uncut = (c0 == 0) | (c1 == 0)
            gains_arr = np.zeros(n, dtype=np.float64)
            pin_w = w[pin_net]
            pin_side = side_arr[pins_arr]
            m_uncut = uncut[pin_net]
            np.add.at(gains_arr, pins_arr[m_uncut], -pin_w[m_uncut])
            crit = ~uncut
            m_c0 = (crit & (c0 == 1))[pin_net] & (pin_side == 0)
            m_c1 = (crit & (c1 == 1))[pin_net] & (pin_side == 1)
            np.add.at(gains_arr, pins_arr[m_c0], pin_w[m_c0])
            np.add.at(gains_arr, pins_arr[m_c1], pin_w[m_c1])
            counts = np.stack((c0, c1), axis=1).tolist()
            gains = gains_arr.tolist()
            free_arr = g.fixed == FREE
            weight0 = float(g.vertex_weights[
                free_arr & (side_arr == 0)].sum())
            return counts, gains, weight0

        counts_l: List[List[int]] = []
        for pins in nets:
            on1 = 0
            for p in pins:
                on1 += side[p]
            counts_l.append([len(pins) - on1, on1])
        gains_l = [0.0] * n
        for e, pins in enumerate(nets):
            we = net_w[e]
            n0, n1 = counts_l[e]
            if n0 == 0 or n1 == 0:
                for p in pins:
                    gains_l[p] -= we
            else:
                if n0 == 1:
                    for p in pins:
                        if side[p] == 0:
                            gains_l[p] += we
                            break
                if n1 == 1:
                    for p in pins:
                        if side[p] == 1:
                            gains_l[p] += we
                            break
        weight0 = 0.0
        for v in range(n):
            if free[v] and side[v] == 0:
                weight0 += vw[v]
        return counts_l, gains_l, weight0
