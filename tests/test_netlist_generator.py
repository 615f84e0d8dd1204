"""Unit tests for the synthetic netlist generator and benchmark suite."""

import numpy as np
import pytest

from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.suite import (
    SUITE_PROFILES,
    benchmark_names,
    load_benchmark,
)


class TestGeneratorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec("x", num_cells=1, total_area=1e-9)
        with pytest.raises(ValueError):
            GeneratorSpec("x", num_cells=10, total_area=-1.0)
        with pytest.raises(ValueError):
            GeneratorSpec("x", num_cells=10, total_area=1e-9,
                          locality=0.0)
        with pytest.raises(ValueError):
            GeneratorSpec("x", num_cells=10, total_area=1e-9,
                          global_fraction=2.0)


class TestGeneratedStructure:
    @pytest.fixture(scope="class")
    def netlist(self):
        spec = GeneratorSpec("gen", num_cells=500,
                             total_area=500 * 5e-12, seed=42)
        return generate_netlist(spec)

    def test_cell_count(self, netlist):
        assert netlist.num_cells == 500

    def test_total_area_exact(self, netlist):
        assert netlist.total_cell_area == pytest.approx(500 * 5e-12,
                                                        rel=1e-9)

    def test_uniform_height(self, netlist):
        heights = {c.height for c in netlist.cells}
        assert len(heights) == 1

    def test_net_count_matches_ratio(self, netlist):
        assert netlist.num_nets == round(1.05 * 500)

    def test_every_net_has_one_driver(self, netlist):
        for net in netlist.nets:
            assert net.num_output_pins == 1

    def test_no_duplicate_pins(self, netlist):
        for net in netlist.nets:
            ids = net.cell_ids
            assert len(ids) == len(set(ids))

    def test_degree_distribution_dominated_by_two_pin(self, netlist):
        hist = netlist.degree_histogram()
        assert hist.get(2, 0) > 0.4 * netlist.num_nets

    def test_activities_in_range(self, netlist):
        for net in netlist.nets:
            assert 0.05 <= net.activity <= 0.45

    def test_deterministic(self):
        spec = GeneratorSpec("gen", num_cells=100,
                             total_area=100 * 5e-12, seed=9)
        a = generate_netlist(spec)
        b = generate_netlist(spec)
        assert [n.cell_ids for n in a.nets] == [n.cell_ids for n in b.nets]
        assert np.allclose(a.widths, b.widths)

    def test_seed_changes_structure(self):
        a = generate_netlist(GeneratorSpec("g", 100, 100 * 5e-12, seed=1))
        b = generate_netlist(GeneratorSpec("g", 100, 100 * 5e-12, seed=2))
        assert [n.cell_ids for n in a.nets] != [n.cell_ids for n in b.nets]

    def test_locality_reduces_home_distance(self):
        def mean_span(nl, spec_seed):
            # approximate: spread of cell ids is meaningless; regenerate
            # home positions the way the generator does
            rng = np.random.default_rng(spec_seed)
            return nl

        local = generate_netlist(GeneratorSpec(
            "loc", 400, 400 * 5e-12, locality=0.02, global_fraction=0.0,
            seed=3))
        spread = generate_netlist(GeneratorSpec(
            "spr", 400, 400 * 5e-12, locality=0.9, global_fraction=0.0,
            seed=3))
        # proxy: a min-cut of the local netlist should be cheaper; use
        # the partitioner itself
        from repro.partition import BisectionConfig, Hypergraph, bisect
        def cut(nl):
            g = Hypergraph(nl.num_cells,
                           [n.unique_cell_ids for n in nl.nets])
            _, c = bisect(g, BisectionConfig(seed=0))
            return c
        assert cut(local) < cut(spread)


class TestSuite:
    def test_profiles_match_table1(self):
        assert len(SUITE_PROFILES) == 18
        assert SUITE_PROFILES["ibm01"].cells == 12282
        assert SUITE_PROFILES["ibm01"].area_mm2 == pytest.approx(0.060)
        assert SUITE_PROFILES["ibm18"].cells == 210323
        assert SUITE_PROFILES["ibm18"].area_mm2 == pytest.approx(0.988)

    def test_names_ordered(self):
        names = benchmark_names()
        assert names[0] == "ibm01"
        assert names[-1] == "ibm18"

    def test_load_scaled(self):
        nl = load_benchmark("ibm03", scale=0.01)
        assert nl.num_cells == round(22207 * 0.01)
        # average cell area preserved under scaling
        profile = SUITE_PROFILES["ibm03"]
        avg = nl.total_cell_area / nl.num_cells
        assert avg == pytest.approx(profile.average_cell_area_m2, rel=1e-6)

    def test_min_cells_floor(self):
        nl = load_benchmark("ibm01", scale=1e-9)
        assert nl.num_cells == 64

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_benchmark("ibm99")

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            load_benchmark("ibm01", scale=0.0)

    def test_label_encodes_scale(self):
        assert load_benchmark("ibm02", scale=0.01).name == "ibm02@0.01"

    def test_different_circuits_decorrelated(self):
        a = load_benchmark("ibm01", scale=0.01, seed=0)
        b = load_benchmark("ibm02", scale=0.01, seed=0)
        assert [n.degree for n in a.nets[:50]] != \
            [n.degree for n in b.nets[:50]]
