"""Unit tests for repro.partition.hypergraph."""

import numpy as np
import pytest

from repro.partition.hypergraph import FREE, Hypergraph


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
    def test_vertex_weight_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            Hypergraph(2, [[0, 1]], vertex_weights=[1.0, bad])

    def test_free_weight_excludes_fixed(self):
        g = Hypergraph(3, [[0, 1]], vertex_weights=[1.0, 2.0, 4.0],
                       fixed=[FREE, 0, FREE])
        assert g.free_weight == pytest.approx(5.0)


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
