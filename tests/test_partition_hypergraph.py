"""Unit tests for repro.partition.hypergraph."""

from typing import Dict, Tuple

import numpy as np
import pytest

from repro.core.config import PlacementConfig
from repro.core.globalplace import GlobalPlacer, Region
from repro.netlist.placement import Placement
from repro.netlist.suite import load_benchmark
from repro.partition.hypergraph import FREE, Hypergraph
from repro.partition.multilevel import COARSEN_TO, _heavy_edge_matching
from repro.partition.subproblem import solve
from tests.conftest import make_chip


def _reference_nets(num_vertices, nets):
    """The former per-net canonicalization of the constructor, kept as
    the reference of the array one."""
    out = []
    for pins in nets:
        distinct = sorted(set(int(p) for p in pins))
        if distinct and (distinct[0] < 0 or distinct[-1] >= num_vertices):
            raise ValueError(f"net pin out of range: {distinct}")
        out.append(distinct)
    return out


def _reference_contract(graph, match):
    """The former :meth:`Hypergraph.contract`, over the reference
    canonicalization: ``(nets, net_weights, vertex_weights, fixed,
    vertex_map)`` of the coarse graph."""
    reps: Dict[int, int] = {}
    vertex_map = np.empty(graph.num_vertices, dtype=np.int64)
    for v in range(graph.num_vertices):
        r = int(match[v])
        if r not in reps:
            reps[r] = len(reps)
        vertex_map[v] = reps[r]
    weights = np.zeros(len(reps))
    fixed = np.full(len(reps), FREE, dtype=np.int64)
    for v in range(graph.num_vertices):
        c = vertex_map[v]
        weights[c] += graph.vertex_weights[v]
        if graph.fixed[v] != FREE:
            fixed[c] = graph.fixed[v]
    merged: Dict[Tuple[int, ...], float] = {}
    for e, pins in enumerate(graph.nets):
        coarse_pins = tuple(sorted(set(int(vertex_map[p]) for p in pins)))
        if len(coarse_pins) < 2:
            continue
        merged[coarse_pins] = merged.get(coarse_pins, 0.0) \
            + graph.net_weights[e]
    nets = _reference_nets(len(reps), list(merged.keys()))
    return nets, list(merged.values()), weights, fixed, vertex_map


class TestConstruction:
    def test_basic(self):
        g = Hypergraph(4, [[0, 1], [1, 2, 3]])
        assert g.num_vertices == 4
        assert g.num_nets == 2
        assert g.nets[1] == [1, 2, 3]

    def test_duplicate_pins_removed(self):
        g = Hypergraph(3, [[0, 1, 1, 0]])
        assert g.nets[0] == [0, 1]

    def test_pin_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph(2, [[0, 5]])

    def test_default_weights(self):
        g = Hypergraph(3, [[0, 1]])
        assert g.net_weights == [1.0]
        assert np.allclose(g.vertex_weights, 1.0)
        assert np.all(g.fixed == FREE)

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            Hypergraph(2, [[0, 1]], net_weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            Hypergraph(2, [[0, 1]], vertex_weights=[1.0])

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("weights", ["vertex_weights", "net_weights"])
    def test_vertex_weight_must_be_finite_and_non_negative(self, bad,
                                                           weights):
        with pytest.raises(ValueError, match="finite and non-negative"):
            Hypergraph(2, [[0, 1], [1, 0]], **{weights: [1.0, bad]})

    def test_free_weight_excludes_fixed(self):
        g = Hypergraph(3, [[0, 1]], vertex_weights=[1.0, 2.0, 4.0],
                       fixed=[FREE, 0, FREE])
        assert g.free_weight == pytest.approx(5.0)

    def test_free_values_are_computed_once_and_read_only(self):
        g = Hypergraph(4, [[0, 1], [2, 3]],
                       vertex_weights=[0.1, 0.2, 0.3, 0.4],
                       fixed=[FREE, 1, FREE, FREE])
        coarse, _ = g.contract(np.array([0, 1, 2, 2]))
        for graph in (g, coarse):
            free = graph.fixed == FREE
            assert np.array_equal(graph.free, free)
            assert np.array_equal(graph.free_ids, np.flatnonzero(free))
            assert graph.free_weight == float(
                graph.vertex_weights[free].sum())
            for array in (graph.free, graph.free_ids):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[1]


class TestCanonicalization:
    """One array pass sorts, deduplicates and range-checks every net,
    exactly as the per-net reference did."""

    def test_unsorted_pins(self):
        nets = [[5, 0, 3], [2, 1], []]
        g = Hypergraph(6, nets)
        assert g.nets == _reference_nets(6, nets) == [[0, 3, 5], [1, 2], []]
        ptr, pins, pin_net = g.net_csr()
        assert ptr.tolist() == [0, 3, 5, 5]
        assert pins.tolist() == [0, 3, 5, 1, 2]
        assert pin_net.tolist() == [0, 0, 0, 1, 1]

    def test_duplicate_pins(self):
        nets = [[3, 1, 3, 1, 0], [2, 2]]
        assert Hypergraph(4, nets).nets == _reference_nets(4, nets) \
            == [[0, 1, 3], [2]]

    @pytest.mark.parametrize("nets", [[[0, 1], [4, 2, 9, 2], [7]],
                                      [[1, -1, 0, 1]]])
    def test_out_of_range_pin_raises_reference_error(self, nets):
        with pytest.raises(ValueError) as want:
            _reference_nets(5, nets)
        with pytest.raises(ValueError) as got:
            Hypergraph(5, nets)
        assert str(got.value) == str(want.value)
        ptr = np.cumsum([0] + [len(p) for p in nets])
        flat = np.array([p for pins in nets for p in pins])
        with pytest.raises(ValueError) as got:
            Hypergraph.from_csr(5, ptr, flat)
        assert str(got.value) == str(want.value)

    def test_random_nets_match_reference(self):
        rng = np.random.default_rng(3)
        nets = [rng.integers(0, 40, size=rng.integers(0, 7)).tolist()
                for _ in range(300)]
        graph = Hypergraph(40, nets)
        assert graph.nets == _reference_nets(40, nets)
        ptr = np.cumsum([0] + [len(p) for p in nets])
        flat = np.array([p for pins in nets for p in pins], dtype=np.int64)
        assert Hypergraph.from_csr(40, ptr, flat).nets == graph.nets


class TestIncidence:
    def test_vertex_nets(self):
        g = Hypergraph(4, [[0, 1], [1, 2], [2, 3]])
        assert g.vertex_nets(1) == [0, 1]
        assert g.vertex_nets(3) == [2]
        assert g.vertex_nets(0) == [0]

    def test_neighbors_scored_heavy_edge(self):
        # vertex 0 shares a 2-pin net with 1 (score 1) and a 3-pin net
        # with 1 and 2 (score 0.5 each)
        g = Hypergraph(3, [[0, 1], [0, 1, 2]])
        scores = g.neighbors_scored(0)
        assert scores[1] == pytest.approx(1.5)
        assert scores[2] == pytest.approx(0.5)

    def test_neighbors_scored_respects_weights(self):
        g = Hypergraph(2, [[0, 1]], net_weights=[3.0])
        assert g.neighbors_scored(0)[1] == pytest.approx(3.0)


class TestContract:
    def test_merge_two(self):
        g = Hypergraph(4, [[0, 1], [1, 2], [2, 3]],
                       vertex_weights=[1, 2, 3, 4])
        match = np.array([0, 0, 2, 3])
        coarse, vmap = g.contract(match)
        assert coarse.num_vertices == 3
        assert vmap[0] == vmap[1]
        merged = vmap[0]
        assert coarse.vertex_weights[merged] == pytest.approx(3.0)

    def test_internal_net_dropped(self):
        g = Hypergraph(2, [[0, 1]])
        coarse, _ = g.contract(np.array([0, 0]))
        assert coarse.num_nets == 0

    def test_parallel_nets_merged_with_summed_weight(self):
        g = Hypergraph(4, [[0, 2], [1, 3]], net_weights=[2.0, 5.0])
        # merge 0+1 and 2+3: both nets become the same coarse net
        coarse, _ = g.contract(np.array([0, 0, 2, 2]))
        assert coarse.num_nets == 1
        assert coarse.net_weights[0] == pytest.approx(7.0)

    def test_fixed_propagates(self):
        g = Hypergraph(3, [[0, 1, 2]], fixed=[0, FREE, FREE])
        coarse, vmap = g.contract(np.array([0, 1, 1]))
        assert coarse.fixed[vmap[0]] == 0
        assert coarse.fixed[vmap[1]] == FREE

    def test_conflicting_fixed_merge_rejected(self):
        g = Hypergraph(2, [[0, 1]], fixed=[0, 1])
        with pytest.raises(ValueError):
            g.contract(np.array([0, 0]))

    def test_pin_multiplicity_collapses(self):
        g = Hypergraph(4, [[0, 1, 2, 3]])
        coarse, vmap = g.contract(np.array([0, 0, 2, 2]))
        assert coarse.num_nets == 1
        assert len(coarse.nets[0]) == 2


class TestContractReference:
    def test_synthetic5k_coarsening_chains_match(self):
        """Along the coarsening chains of synthetic5k's first two
        levels, every contraction equals the reference's."""
        netlist = load_benchmark("synthetic5k")
        config = PlacementConfig()
        chip = make_chip(netlist, num_layers=config.num_layers)
        placer = GlobalPlacer(Placement.at_center(netlist, chip), config)
        root = Region(netlist.movable_ids, 0.0, chip.width, 0.0,
                      chip.height, 0, chip.num_layers - 1)
        [task] = placer._build_tasks([root])
        children = placer._apply_parts(root, solve(task))
        for child in children:
            placer._set_positions(child)
        contractions = 0
        for task in [task] + placer._build_tasks(children):
            rng = np.random.default_rng(task.seed)
            graph = task.hypergraph()
            while graph.num_vertices > COARSEN_TO and graph.num_nets > 0:
                match = _heavy_edge_matching(graph, rng)
                coarse, vertex_map = graph.contract(match)
                nets, net_weights, weights, fixed, ref_map = \
                    _reference_contract(graph, match)
                assert coarse.nets == nets
                assert np.array(coarse.net_weights).tobytes() \
                    == np.array(net_weights).tobytes()
                assert coarse.vertex_weights.tobytes() == weights.tobytes()
                assert np.array_equal(coarse.fixed, fixed)
                assert np.array_equal(vertex_map, ref_map)
                contractions += 1
                if coarse.num_vertices >= graph.num_vertices * 0.95:
                    break
                graph = coarse
        assert contractions >= 12

