"""Unit tests for multilevel bisection."""

import numpy as np
import pytest

from repro.partition.fm import cut_cost
from repro.partition.hypergraph import FREE, Hypergraph
from repro.partition.multilevel import BisectionConfig, \
    _heavy_edge_matching, _random_balanced, bisect


def ring(n: int) -> Hypergraph:
    return Hypergraph(n, [[i, (i + 1) % n] for i in range(n)])


def clustered(n_clusters: int, size: int, seed: int = 0) -> Hypergraph:
    """Dense clusters with a single chain of bridges; cheap cuts exist."""
    rng = np.random.default_rng(seed)
    nets = []
    for c in range(n_clusters):
        base = c * size
        for _ in range(size * 2):
            a, b = rng.integers(0, size, 2)
            if a != b:
                nets.append([base + int(a), base + int(b)])
        if c + 1 < n_clusters:
            nets.append([base + size - 1, base + size])
    return Hypergraph(n_clusters * size, nets)


class TestBisect:
    def test_empty_graph(self):
        parts, cut = bisect(Hypergraph(0, []))
        assert len(parts) == 0
        assert cut == 0.0

    def test_ring_cut_is_two(self):
        parts, cut = bisect(ring(32), BisectionConfig(seed=0))
        assert cut == pytest.approx(2.0)

    def test_clustered_graph_cut_cheap(self):
        g = clustered(4, 16)
        parts, cut = bisect(g, BisectionConfig(seed=1))
        # the only cheap cuts are the bridges; expect roughly one bridge
        assert cut <= 3.0

    def test_balance(self):
        g = clustered(4, 16)
        config = BisectionConfig(tolerance=0.05, seed=2)
        parts, _ = bisect(g, config)
        frac = (parts == 0).sum() / g.num_vertices
        # window plus the one-vertex slack rule
        assert 0.4 <= frac <= 0.6

    def test_returned_cut_matches(self):
        g = clustered(2, 20, seed=5)
        parts, cut = bisect(g, BisectionConfig(seed=3))
        assert cut == pytest.approx(cut_cost(g, parts))

    def test_deterministic_given_seed(self):
        g = clustered(3, 12, seed=7)
        a, ca = bisect(g, BisectionConfig(seed=9))
        b, cb = bisect(g, BisectionConfig(seed=9))
        assert np.array_equal(a, b)
        assert ca == cb

    def test_all_fixed(self):
        g = Hypergraph(4, [[0, 1], [2, 3]], fixed=[0, 0, 1, 1],
                       vertex_weights=[0, 0, 0, 0])
        parts, cut = bisect(g)
        assert list(parts) == [0, 0, 1, 1]
        assert cut == 0.0

    def test_fixed_respected_through_coarsening(self):
        g = clustered(4, 32, seed=1)
        fixed = np.full(g.num_vertices, FREE)
        fixed[0] = 0
        fixed[g.num_vertices - 1] = 1
        g2 = Hypergraph(g.num_vertices, g.nets,
                        vertex_weights=np.where(fixed == FREE, 1.0, 0.0),
                        fixed=fixed)
        parts, _ = bisect(g2, BisectionConfig(seed=0))
        assert parts[0] == 0
        assert parts[g.num_vertices - 1] == 1

    def test_terminal_pulls_its_cluster(self):
        # two cliques; pin one vertex of clique A to side 1 — the whole
        # clique should follow to keep the cut at the bridge
        nets = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3],
                [0, 6]]
        fixed = [FREE] * 6 + [1]
        weights = [1.0] * 6 + [0.0]
        g = Hypergraph(7, nets, vertex_weights=weights, fixed=fixed)
        parts, cut = bisect(g, BisectionConfig(seed=0))
        assert parts[0] == parts[1] == parts[2] == 1
        assert parts[3] == parts[4] == parts[5] == 0
        assert cut == pytest.approx(1.0)

    def test_more_starts_no_worse_on_average(self):
        g = clustered(6, 16, seed=3)
        cheap = np.mean([bisect(g, BisectionConfig(seed=s, num_starts=1)
                                )[1] for s in range(4)])
        thorough = np.mean([bisect(g, BisectionConfig(seed=s,
                                                      num_starts=6))[1]
                            for s in range(4)])
        assert thorough <= cheap + 1.0

    def test_unbalanced_target(self):
        g = ring(40)
        parts, _ = bisect(g, BisectionConfig(target=0.25, tolerance=0.05,
                                             seed=0))
        frac = (parts == 0).sum() / 40
        assert 0.15 <= frac <= 0.35


def reference_matching(graph, rng):
    """The former :func:`_heavy_edge_matching`, over NumPy arrays."""
    n = graph.num_vertices
    match = np.arange(n, dtype=np.int64)
    matched = np.zeros(n, dtype=bool)
    for v in rng.permutation(n):
        if matched[v] or graph.fixed[v] != FREE:
            continue
        best_u = -1
        best_score = 0.0
        for u, score in graph.neighbors_scored(int(v)).items():
            if matched[u] or graph.fixed[u] != FREE:
                continue
            if score > best_score:
                best_score = score
                best_u = u
        if best_u >= 0:
            match[best_u] = v
            matched[v] = True
            matched[best_u] = True
    return match


def reference_random_balanced(graph, target, rng):
    """The former :func:`_random_balanced`: one weight at a time."""
    parts = np.ones(graph.num_vertices, dtype=np.int64)
    goal = target * graph.free_weight
    acc = 0.0
    for v in rng.permutation(np.flatnonzero(graph.fixed == FREE)):
        if acc >= goal:
            break
        parts[v] = 0
        acc += graph.vertex_weights[v]
    fixed_ids = np.flatnonzero(graph.fixed != FREE)
    parts[fixed_ids] = graph.fixed[fixed_ids]
    return parts


def weighted_instance(seed: int) -> Hypergraph:
    """Clusters with real-valued weights, some zero-weight vertices and
    a few terminals fixed to each side."""
    g = clustered(4, 24, seed)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 3.0, g.num_vertices)
    weights[rng.random(g.num_vertices) < 0.1] = 0.0
    fixed = np.full(g.num_vertices, FREE)
    fixed[rng.choice(g.num_vertices, 8, replace=False)] = [0, 1] * 4
    return Hypergraph(g.num_vertices, g.nets,
                      rng.uniform(0.1, 2.0, g.num_nets), weights, fixed)


class TestArrayPassesMatchReference:
    """Matching and random starts read lists and one cumulative sum, and
    decide exactly as the former per-vertex NumPy-scalar loops did,
    drawing the same permutations."""

    @pytest.mark.parametrize("seed", range(6))
    def test_heavy_edge_matching(self, seed):
        graph = weighted_instance(seed)
        got = _heavy_edge_matching(graph, np.random.default_rng(seed))
        want = reference_matching(graph, np.random.default_rng(seed))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("target", [0.0, 0.3, 0.5, 1.0])
    def test_random_balanced(self, target):
        # unit weights land exactly on the goal
        graphs = [weighted_instance(seed) for seed in range(6)] \
            + [clustered(3, 10, seed) for seed in range(3)]
        for seed, graph in enumerate(graphs):
            rng_got = np.random.default_rng(seed)
            rng_want = np.random.default_rng(seed)
            for _ in range(3):
                got = _random_balanced(graph, target, rng_got)
                want = reference_random_balanced(graph, target, rng_want)
                assert np.array_equal(got, want)
            assert rng_got.random() == rng_want.random()
