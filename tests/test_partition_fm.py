"""Unit tests for FM refinement."""

import heapq
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.partition.fm import VECTOR_MIN_PINS, FMRefiner, _side_counts, \
    cut_cost
from repro.partition.hypergraph import FREE, Hypergraph


def reference_setup(refiner: FMRefiner, side: List[int]
                    ) -> Tuple[List[List[int]], List[float], float]:
    """The former ``FMRefiner._pass_setup``, the setup of
    :class:`ReferenceFM`: per-net side counts, initial FM gains and
    part-0 weight, on the array path and on the scalar path."""
    g = refiner.graph
    n = g.num_vertices
    nets = g.nets
    net_w = g.net_weights
    free = refiner._free
    vw = refiner._vw
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


class ReferenceFM(FMRefiner):
    """FM with the plain deferred-list pass: every entry the balance
    window blocks is set aside and pushed back after the next move, and
    every pass moves until the heap runs dry.  The reference the
    held-group pass with its exact stop must match move for move.

    ``trail`` lists, for each move of the last pass, the vertex moved
    and the best prefix's violation and gain after it."""

    def _pass(self, side: List[int]) -> Tuple[float, int, int, float]:
        """One FM pass over ``side`` (mutated in place).

        Returns:
            ``(improvement, kept_moves, rolled_back, start_cut)`` — the
            cut improvement of the kept prefix (may be negative if the
            prefix was kept to repair an out-of-window balance), its
            length, the number of tentative moves undone, and
            ``cut_cost`` of ``side`` as the pass started.
        """
        self.trail: List[Tuple[int, float, float]] = []
        g = self.graph
        n = g.num_vertices
        nets = g.nets
        net_w = g.net_weights
        vnets = g.vertex_nets_all()
        vw = self._vw
        free = self._free

        start_cut = cut_cost(g, side)
        counts, gains, weight0 = reference_setup(self, side)

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
            self.trail.append((v, best_key[0], best_gain))

            for u, d in delta.items():
                if d:
                    gains[u] += d
                    stamp[u] += 1
                    heappush(heap, (-gains[u], noise[u], u, stamp[u]))

        # roll back to the best prefix
        for v in moves[best_prefix:]:
            side[v] = 1 - side[v]
        return best_gain, best_prefix, len(moves) - best_prefix, start_cut


def stop_point(refiner: FMRefiner, start: List[int],
               trail: List[Tuple[int, float, float]]) -> int:
    """How many moves the exact stop lets a pass make: the length of the
    shortest prefix of the full pass's ``trail`` after which the best
    prefix is inside the window and cuts no more than the dead cut less
    the margin, or every move if there is none.  The dead cut is
    recounted from the pins' sides, not from per-side flags."""
    g = refiner.graph
    nets = g.nets
    vnets = g.vertex_nets_all()
    init_cut = cut_cost(g, start)
    # the side a pin can no longer leave, or FREE while it can
    stuck = g.fixed.tolist()
    side = list(start)
    dead = set()
    dead_cut = 0.0
    for e, pins in enumerate(nets):
        if {0, 1} <= {stuck[p] for p in pins}:
            dead.add(e)
            dead_cut += g.net_weights[e]
    for k, (v, best_viol, best_gain) in enumerate(trail, 1):
        side[v] = 1 - side[v]
        stuck[v] = side[v]
        for e in vnets[v]:
            if e not in dead and {0, 1} <= {stuck[p] for p in nets[e]}:
                dead.add(e)
                dead_cut += g.net_weights[e]
        if (best_viol <= 1e-15 and init_cut - best_gain
                <= dead_cut - refiner._stop_margin):
            return k
    return len(trail)


def two_cliques() -> Hypergraph:
    """Two triangles joined by one bridge net; optimal cut = 1."""
    nets = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]]
    return Hypergraph(6, nets)


class TestCutCost:
    def test_uncut(self):
        g = Hypergraph(4, [[0, 1], [2, 3]])
        assert cut_cost(g, [0, 0, 1, 1]) == 0.0

    def test_cut_with_weights(self):
        g = Hypergraph(4, [[0, 2], [1, 3]], net_weights=[2.0, 5.0])
        assert cut_cost(g, [0, 0, 1, 1]) == pytest.approx(7.0)

    def test_hyperedge_counted_once(self):
        g = Hypergraph(3, [[0, 1, 2]])
        assert cut_cost(g, [0, 1, 1]) == 1.0
        assert cut_cost(g, [0, 0, 0]) == 0.0


class TestRefine:
    def test_finds_optimal_cut_of_cliques(self):
        g = two_cliques()
        parts = np.array([0, 1, 0, 1, 0, 1])  # bad start, cut = 6
        refiner = FMRefiner(g, rng=np.random.default_rng(0))
        cut = refiner.refine(parts)
        assert cut == pytest.approx(1.0)
        # the two triangles must be separated
        assert parts[0] == parts[1] == parts[2]
        assert parts[3] == parts[4] == parts[5]
        assert parts[0] != parts[3]

    def test_never_worsens_balanced_starts(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            g = two_cliques()
            parts = rng.permutation([0, 0, 0, 1, 1, 1])
            before = cut_cost(g, parts)
            after = FMRefiner(g, rng=np.random.default_rng(seed)
                              ).refine(parts)
            assert after <= before + 1e-12

    def test_returned_cost_matches_actual(self):
        g = two_cliques()
        parts = np.array([1, 0, 1, 0, 1, 0])
        cut = FMRefiner(g, rng=np.random.default_rng(1)).refine(parts)
        assert cut == pytest.approx(cut_cost(g, parts))

    def test_no_passes_returns_cut_cost(self):
        """With no pass to take the starting cut from, ``refine``
        reports ``cut_cost`` of the partition and leaves it as it
        was."""
        g = two_cliques()
        parts = np.array([0, 1, 0, 1, 0, 1])
        cut = FMRefiner(g, rng=np.random.default_rng(0)).refine(
            parts, max_passes=0)
        assert parts.tolist() == [0, 1, 0, 1, 0, 1]
        assert cut == cut_cost(g, parts) == 5.0

    def test_respects_balance_window(self):
        g = Hypergraph(8, [[i, (i + 1) % 8] for i in range(8)])
        parts = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        refiner = FMRefiner(g, target=0.5, tolerance=0.05,
                            rng=np.random.default_rng(0))
        refiner.refine(parts)
        w0 = (parts == 0).sum()
        assert refiner.lo <= w0 <= refiner.hi

    def test_fixed_vertices_never_move(self):
        g = Hypergraph(4, [[0, 1], [1, 2], [2, 3]], fixed=[0, -1, -1, 1])
        parts = np.array([0, 1, 0, 1])
        FMRefiner(g, rng=np.random.default_rng(0)).refine(parts)
        assert parts[0] == 0
        assert parts[3] == 1

    def test_fixed_vertex_on_wrong_side_rejected(self):
        g = Hypergraph(2, [[0, 1]], fixed=[1, FREE])
        refiner = FMRefiner(g, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            refiner.refine(np.array([0, 1]))

    def test_window_admits_heaviest_vertex(self):
        # one huge vertex: tolerance must widen so FM can still move it
        g = Hypergraph(3, [[0, 1], [1, 2]],
                       vertex_weights=[10.0, 1.0, 1.0])
        refiner = FMRefiner(g, tolerance=0.01,
                            rng=np.random.default_rng(0))
        assert refiner.hi - refiner.lo >= 10.0

    def test_unbalanced_target(self):
        g = Hypergraph(10, [[i, (i + 1) % 10] for i in range(10)])
        parts = np.ones(10, dtype=np.int64)
        parts[0] = 0
        refiner = FMRefiner(g, target=0.3, tolerance=0.05,
                            rng=np.random.default_rng(0))
        refiner.refine(parts)
        w0 = float((parts == 0).sum())
        assert refiner.lo <= w0 <= refiner.hi

    def test_weighted_nets_guide_moves(self):
        # cutting the heavy net must be avoided
        g = Hypergraph(4, [[0, 1], [2, 3], [1, 2]],
                       net_weights=[10.0, 10.0, 1.0])
        parts = np.array([0, 1, 0, 1])  # cuts both heavy nets
        cut = FMRefiner(g, rng=np.random.default_rng(0)).refine(parts)
        assert cut == pytest.approx(1.0)

    def test_invalid_params(self):
        g = two_cliques()
        with pytest.raises(ValueError):
            FMRefiner(g, target=0.0)
        with pytest.raises(ValueError):
            FMRefiner(g, tolerance=-0.1)


def random_instance(classes: int, n: int, start: float, seed: int,
                    terminals: int = 4) -> Tuple[Hypergraph, np.ndarray]:
    """A seeded random hypergraph and start for the pass comparison.

    ``n`` free vertices draw their weights from ``classes`` distinct
    values; with two or more classes, one of them is 0 (zero-weight
    free vertices).  Odd seeds use small integer weights, so moves can
    land exactly on a window edge; even seeds draw them at random.
    ``terminals`` zero-weight vertices are fixed, alternately to side 0
    and side 1, like the terminals of a terminal-propagated task.  A
    share ``start`` of the free vertices starts on side 1.
    """
    rng = np.random.default_rng(seed)
    if seed % 2:
        pool = np.arange(1.0, classes + 1.0)
    else:
        pool = rng.uniform(0.3, 3.0, classes)
    if classes > 1:
        pool[0] = 0.0
    weights = np.concatenate([pool[np.arange(n) % classes],
                              np.zeros(terminals)])
    total = n + terminals
    sides = [t % 2 for t in range(terminals)]
    fixed = [FREE] * n + sides
    nets = [rng.choice(total, size=int(rng.integers(2, 6)),
                       replace=False).tolist()
            for _ in range(2 * n)]
    if seed % 3:
        net_w = rng.integers(1, 4, len(nets)).astype(float)
    else:
        net_w = rng.uniform(0.1, 2.0, len(nets))
    graph = Hypergraph(total, nets, net_w, weights, fixed)
    parts = (rng.random(total) < start).astype(np.int64)
    parts[n:] = sides
    return graph, parts


# (weight classes, free vertices, tolerance, target, share on side 1,
# terminals): four terminals, or as many as free vertices, as in a
# terminal-propagated task
PASS_CASES = [
    (classes, n, tol, target, start, terminals)
    for classes, n in ((1, 40), (2, 120), (3, 500), (6, 200), (40, 300))
    for start in (0.05, 0.5, 0.9)
    for tol, target in ((0.0, 0.5), (0.02 + 0.015 * (classes % 3), 0.3))
    for terminals in (4, n)
]


def case_id(case: Tuple[int, int, float, float, float, int]) -> str:
    """A case's test id; only a terminal-heavy case names its count."""
    *head, terminals = case
    tag = "-".join(str(x) for x in head)
    return tag if terminals == 4 else f"{tag}-{terminals}terminals"


def case_seed(classes: int, n: int, tol: float, start: float) -> int:
    """The instance seed of a pass case."""
    return classes + n + int(100 * start) + int(1000 * tol)


def undone_moves(refiner_cls: type,
                 case: Tuple[int, int, float, float, float, int]) -> int:
    """Moves undone over six passes of ``refiner_cls`` on a case."""
    classes, n, tol, target, start, terminals = case
    seed = case_seed(classes, n, tol, start)
    graph, parts = random_instance(classes, n, start, seed, terminals)
    refiner = refiner_cls(graph, target, tol, np.random.default_rng(seed))
    side = parts.tolist()
    return sum(refiner._pass(side)[2] for _ in range(6))


class TestHeldGroupsMatchReference:
    """The held-group pass with its exact stop keeps exactly the moves
    of the deferred-list pass it replaced, which moves until its heap
    runs dry: same gains, prefixes and sides, pass by pass.  Stopping
    early only undoes fewer moves."""

    @pytest.mark.parametrize("classes,n,tol,target,start,terminals",
                             PASS_CASES,
                             ids=[case_id(c) for c in PASS_CASES])
    def test_passes_and_refine_match(self, classes, n, tol, target,
                                     start, terminals):
        seed = case_seed(classes, n, tol, start)
        graph, parts = random_instance(classes, n, start, seed, terminals)
        new = FMRefiner(graph, target, tol, np.random.default_rng(seed))
        ref = ReferenceFM(graph, target, tol,
                          np.random.default_rng(seed))
        side_new = parts.tolist()
        side_ref = parts.tolist()
        for _ in range(6):
            start_side = list(side_ref)
            improvement, kept, undone, start_cut = new._pass(side_new)
            want = ref._pass(side_ref)
            assert (improvement, kept) == want[:2]
            assert undone <= want[2]
            assert start_cut == want[3] == cut_cost(graph, start_side)
            assert side_new == side_ref
            assert kept + undone == stop_point(new, start_side,
                                               ref.trail)

        parts_new = parts.copy()
        parts_ref = parts.copy()
        cost_new = FMRefiner(graph, target, tol,
                             np.random.default_rng(seed)
                             ).refine(parts_new)
        cost_ref = ReferenceFM(graph, target, tol,
                               np.random.default_rng(seed)
                               ).refine(parts_ref)
        assert cost_new == cost_ref
        assert parts_new.tolist() == parts_ref.tolist()

    @pytest.mark.parametrize("n", [10, 100])
    def test_start_cut_is_cut_cost_on_both_paths(self, n):
        """Each pass's starting cut, which ``refine`` starts from, is
        bit-equal to ``cut_cost`` below and above ``VECTOR_MIN_PINS``,
        with non-integer net weights."""
        graph, parts = random_instance(3, n, 0.5, 3 * n)
        pins = len(graph.net_csr()[1])
        assert (pins < VECTOR_MIN_PINS) == (n == 10)
        refiner = FMRefiner(graph, 0.5, 0.05, np.random.default_rng(n))
        side = parts.tolist()
        for _ in range(6):
            start = list(side)
            assert refiner._pass(side)[3] == cut_cost(graph, start)
        cost_new = FMRefiner(graph, 0.5, 0.05, np.random.default_rng(n)
                             ).refine(parts.copy())
        cost_ref = ReferenceFM(graph, 0.5, 0.05,
                               np.random.default_rng(n)
                               ).refine(parts.copy())
        assert cost_new == cost_ref

    def test_stop_fires_on_terminal_heavy_cases(self):
        """With as many terminals as free vertices, the stop undoes
        strictly fewer moves than the full pass."""
        heavy = [case for case in PASS_CASES if case[-1] == case[1]]
        assert sum(undone_moves(FMRefiner, case) for case in heavy) \
            < sum(undone_moves(ReferenceFM, case) for case in heavy)
