"""Fiduccia–Mattheyses bisection refinement with float net weights.

Classic FM uses integer gain buckets; the placer's net weights are real
numbers (thermal net weights, Eq. 8 of the paper), so this implementation
keeps move candidates in a lazy-deletion binary heap instead.  Gains are
maintained incrementally with the standard FM critical-net update rules,
so each move costs O(pins on critical nets), not O(neighbourhood size).

Each pass moves vertices one at a time (always the best *legal* move),
locks them, and finally rolls back to the best prefix seen — the FM
schedule, with a balance window ``[target - tol, target + tol]`` on
part 0's share of the free vertex weight.

A pass ends as soon as no later prefix can be kept (the *exact stop*).
A pin that can no longer leave its side — a fixed vertex, or one moved
and locked in this pass — stays there to the end of the pass, so a net
with such pins on both sides stays cut, and the total weight of those
nets, the *dead cut*, bounds every later prefix's cut from below (net
weights are non-negative).  Once the best prefix is inside the window
and its cut is at or below the dead cut less a margin
(:data:`STOP_MARGIN`), no later prefix can pass the best-prefix test,
and the pass rolls back to the same prefix the full pass would keep.
The margin covers the float error of the incrementally updated gains.
The pass draws its tie-breaking noise when it starts, stopped or not,
so the generator's stream does not depend on where a pass ends.

Whether the window allows a move depends only on the vertex's side, its
weight and part 0's current weight ``weight0``, so entries it blocks
are held outside the heap, in one *held group* per (side, weight), and
are not popped again until their group is admitted.  After each move a
side's waiting groups are admitted lightest-first while the balance
allows them: inside the window the allowed weights form a threshold
(side 0 needs ``lo <= weight0 - w``, side 1 ``weight0 + w <= hi``, for
finite non-negative weights), and outside it every group is admitted
and the pop decides.  An admitted group keeps only its best entry in
the heap; when that entry leaves the heap (moved, stale or blocked
again) the group's next live entry replaces it if the group is still
admitted, otherwise the group waits.  A vertex's group is fixed when
the pass starts, so a moved vertex's stale entries belong to the side
it left.  The selected vertex cannot change: a waiting group is blocked
at the current balance, and every live entry of an admitted group is
in the heap or held behind a group entry there with no larger key, so
the first legal live entry popped is still the legal unlocked vertex
with the smallest ``(-gain, noise, vertex)`` key.

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
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis import IntArray, contract
from repro.obs import get_recorder
from repro.partition.hypergraph import Hypergraph

#: Below this many total pins the scalar setup path is used: NumPy's
#: per-call overhead beats the loop only once there is real data.
VECTOR_MIN_PINS = 256

#: Float-error cushion of the exact pass stop, as a share of the graph's
#: total net weight (plus an absolute 1e-12).  Each float addition of a
#: pass is off by at most 2^-53 of the total weight, so even 10^7 of
#: them stay near 1e-9 of it; cuts move by whole net weights, far above
#: the cushion.
STOP_MARGIN = 1e-6

#: A move candidate: ``(-gain, noise, vertex, stamp)``.
_Entry = Tuple[float, float, int, int]


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
    if len(graph.net_csr()[1]) >= VECTOR_MIN_PINS:
        side_arr = np.asarray(parts, dtype=np.int64)
        c0, c1 = _side_counts(graph, side_arr)
        w = graph.net_weight_array
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
        if len(graph.free_ids):
            biggest = float(graph.vertex_weights[graph.free].max())
            half = max(half, biggest)
        self.lo = target * free_w - half
        self.hi = target * free_w + half
        # plain-list mirrors of the per-vertex arrays: the pass loop
        # indexes them millions of times, where list access beats NumPy
        # scalar access several-fold
        self._vw: List[float] = graph.vertex_weights.tolist()
        self._free: List[bool] = graph.free.tolist()
        # distinct vertex weights, ascending, and each vertex's index
        # into them: the weight classes of the pass's held groups
        self._class_w: List[float] = sorted(set(self._vw))
        index = {w: c for c, w in enumerate(self._class_w)}
        self._class: List[int] = [index[w] for w in self._vw]
        # the net weights as an array, for the pass setup; and the
        # exact stop's starting state: per side, whether each net holds
        # a pin fixed there, and the weight of the nets fixed on both
        # sides, which every cut includes
        _, pins, pin_net = graph.net_csr()
        pin_fixed = graph.fixed[pins]
        self._net_w = graph.net_weight_array
        on = [np.zeros(graph.num_nets, dtype=bool) for _ in range(2)]
        for s in (0, 1):
            on[s][pin_net[pin_fixed == s]] = True
        self._fixed_on: Tuple[List[bool], List[bool]] = (
            on[0].tolist(), on[1].tolist())
        self._fixed_cut = float(self._net_w[on[0] & on[1]].sum())
        self._stop_margin = STOP_MARGIN * float(self._net_w.sum()) + 1e-12

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
        wrong = ~g.free & (parts != g.fixed)
        if wrong.any():
            v = int(np.argmax(wrong))
            raise ValueError(
                f"vertex {v} is fixed to side {g.fixed[v]} "
                f"but assigned to {parts[v]}")
        if max_passes < 1:
            return cut_cost(g, parts)
        side = parts.tolist()
        rec = get_recorder()
        cost = 0.0
        for p in range(max_passes):
            improvement, kept_moves, rolled_back, start_cut = \
                self._pass(side)
            if p == 0:
                # the pass setup's cut is bit-equal to cut_cost's
                # (same mask and order on either path)
                cost = start_cut
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
    def _pass(self, side: List[int]) -> Tuple[float, int, int, float]:
        """One FM pass over ``side`` (mutated in place).

        Returns:
            ``(improvement, kept_moves, rolled_back, start_cut)`` — the
            cut improvement of the kept prefix (may be negative if the
            prefix was kept to repair an out-of-window balance), its
            length, the number of moves made and undone, and the cut
            ``side`` had when the pass started.
        """
        g = self.graph
        n = g.num_vertices
        nets = g.nets
        net_w = g.net_weights
        vnets = g.vertex_nets_all()
        vw = self._vw

        counts, gains, weight0, init_cut = self._pass_setup(side)

        # ``live[v]``: free and not yet moved in this pass
        live = self._free[:]
        stamp = [0] * n
        noise = self.rng.random(n).tolist()
        heap: List[_Entry] = [
            (-gains[v], noise[v], v, 0) for v in range(n) if live[v]]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        # a move's gain deltas: ``acc[u]`` sums u's, ``touched`` lists
        # the vertices it touched (a vertex may repeat)
        acc = [0.0] * n
        touched: List[int] = []
        # exact stop: ``dead[s][e]`` once net e holds a pin that can no
        # longer leave side s; ``dead_cut`` weighs the nets dead on both
        dead = (self._fixed_on[0][:], self._fixed_on[1][:])
        dead_cut = self._fixed_cut
        margin = self._stop_margin

        # Held groups (module docstring): group 2*c + s holds the
        # blocked entries of side-s vertices of weight class c, with
        # sides as the pass starts.  ``rep[gid]`` is an admitted
        # group's entry in the heap; ``waiting[s]`` holds side s's
        # waiting groups, lightest class first.
        class_w = self._class_w
        grp = [c + c + s for c, s in zip(self._class, side)]
        n_grp = 2 * len(class_w)
        held: List[List[_Entry]] = [[] for _ in range(n_grp)]
        rep: List[Optional[_Entry]] = [None] * n_grp
        admitted = [True] * n_grp
        waiting: Tuple[List[int], List[int]] = ([], [])
        wait0, wait1 = waiting

        def admit(gid: int) -> None:
            """Admit group ``gid``: its best live entry enters the heap."""
            admitted[gid] = True
            h = held[gid]
            while h:
                it = heappop(h)
                u = it[2]
                if live[u] and it[3] == stamp[u]:
                    rep[gid] = it
                    heappush(heap, it)
                    return

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

        while heap:
            item = heappop(heap)
            neg_gain, _, v, st = item
            gid = grp[v]
            if not live[v] or st != stamp[v]:
                if item is rep[gid]:
                    rep[gid] = None
                    if admitted[gid]:
                        admit(gid)
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
                    # Every entry of the group is blocked until the
                    # balance changes: hold it, and the group waits.
                    # Only a move re-admits it, so between moves no
                    # entry is popped twice and the pass terminates.
                    if item is rep[gid]:
                        rep[gid] = None
                    heappush(held[gid], item)
                    if admitted[gid]:
                        admitted[gid] = False
                        heappush(waiting[gid & 1], gid)
                    continue
            if item is rep[gid]:
                rep[gid] = None
                if held[gid]:
                    # the group waits; the post-move admission puts its
                    # next entry in the heap if the new balance allows
                    admitted[gid] = False
                    heappush(waiting[gid & 1], gid)

            # ---- apply the move with FM critical-net gain updates ----
            frm = side[v]
            to = 1 - frm
            live[v] = False
            dead_to = dead[to]
            dead_frm = dead[frm]
            for e in vnets[v]:
                pins = nets[e]
                we = net_w[e]
                c = counts[e]
                t_before = c[to]
                if t_before == 0:
                    for u in pins:
                        if live[u]:
                            acc[u] += we
                            touched.append(u)
                elif t_before == 1:
                    for u in pins:
                        if side[u] == to:
                            if live[u]:
                                acc[u] -= we
                                touched.append(u)
                            break
                c[frm] -= 1
                c[to] += 1
                f_after = c[frm]
                if f_after == 0:
                    for u in pins:
                        if live[u]:
                            acc[u] -= we
                            touched.append(u)
                elif f_after == 1:
                    # v still reads as side ``frm`` until the walk ends
                    for u in pins:
                        if u != v and side[u] == frm:
                            if live[u]:
                                acc[u] += we
                                touched.append(u)
                            break
                if not dead_to[e]:
                    dead_to[e] = True
                    if dead_frm[e]:
                        dead_cut += we
            side[v] = to
            weight0 = new_w0
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
            # Exact stop: every later prefix cuts at least ``dead_cut``,
            # so none can beat an in-window best prefix cutting less.
            if (best_key[0] <= 1e-15
                    and init_cut - best_gain <= dead_cut - margin):
                break

            for u in touched:
                d = acc[u]
                acc[u] = 0.0
                if d:
                    gains[u] += d
                    stamp[u] += 1
                    gu = grp[u]
                    heappush(heap if admitted[gu] else held[gu],
                             (-gains[u], noise[u], u, stamp[u]))
            touched.clear()

            # Admit the waiting groups the new balance allows.  Inside
            # the window a move is legal exactly when it stays inside,
            # which for non-negative weights admits a side's classes
            # lightest-first up to a threshold; outside it, legality is
            # left to the pop.
            if lo <= weight0 <= hi:
                while wait0 and lo <= weight0 - class_w[wait0[0] >> 1]:
                    admit(heappop(wait0))
                while wait1 and weight0 + class_w[wait1[0] >> 1] <= hi:
                    admit(heappop(wait1))
            else:
                for gid in wait0 + wait1:
                    admit(gid)
                wait0.clear()
                wait1.clear()

        # roll back to the best prefix
        for v in moves[best_prefix:]:
            side[v] = 1 - side[v]
        return best_gain, best_prefix, len(moves) - best_prefix, init_cut

    # ------------------------------------------------------------------
    def _pass_setup(self, side: List[int]
                    ) -> Tuple[List[List[int]], List[float], float, float]:
        """Per-net side counts, initial FM gains, part-0 weight and cut.

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
        free = self._free
        vw = self._vw
        ptr, pins_arr, pin_net = g.net_csr()
        if len(pins_arr) >= VECTOR_MIN_PINS:
            side_arr = np.asarray(side, dtype=np.int64)
            c0, c1 = _side_counts(g, side_arr)
            w = self._net_w
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
            weight0 = float(g.vertex_weights[
                g.free & (side_arr == 0)].sum())
            return counts, gains, weight0, float(w[crit].sum())

        counts_l: List[List[int]] = []
        for pins in nets:
            on1 = 0
            for p in pins:
                on1 += side[p]
            counts_l.append([len(pins) - on1, on1])
        gains_l = [0.0] * n
        cut = 0.0
        for e, pins in enumerate(nets):
            we = net_w[e]
            n0, n1 = counts_l[e]
            if n0 == 0 or n1 == 0:
                for p in pins:
                    gains_l[p] -= we
            else:
                cut += we
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
        return counts_l, gains_l, weight0, cut
