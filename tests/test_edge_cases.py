"""Edge cases and failure injection across the library."""

import numpy as np
import pytest

from repro import Placer3D, PlacementConfig
from repro.core.detailed import DetailedLegalizer, check_legal
from repro.core.objective import ObjectiveState
from repro.geometry.chip import ChipGeometry
from repro.netlist import bookshelf
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.net import PinRole
from repro.netlist.netlist import Netlist
from repro.netlist.placement import Placement
from repro.partition import BisectionConfig, Hypergraph, bisect
from tests.conftest import make_chip


class TestTinyDesigns:
    def test_two_cell_netlist_places(self):
        nl = Netlist("pair")
        nl.add_cell("a", 2e-6, 1e-6)
        nl.add_cell("b", 2e-6, 1e-6)
        nl.add_net("n", [(0, PinRole.DRIVER), (1, PinRole.SINK)])
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=2, seed=0)
        result = Placer3D(nl, config).run(check=True)
        assert result.wirelength >= 0

    def test_netlist_without_nets(self):
        nl = Netlist("disconnected")
        for i in range(16):
            nl.add_cell(f"c{i}", 2e-6, 1e-6)
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=2, seed=0)
        result = Placer3D(nl, config).run(check=True)
        assert result.wirelength == 0.0
        assert result.ilv == 0

    def test_single_huge_net(self):
        nl = Netlist("bus")
        for i in range(24):
            nl.add_cell(f"c{i}", 2e-6, 1e-6)
        pins = [(0, PinRole.DRIVER)] + [(i, PinRole.SINK)
                                        for i in range(1, 24)]
        nl.add_net("bus", pins)
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=2, seed=0)
        result = Placer3D(nl, config).run(check=True)
        assert result.wirelength > 0

    def test_cells_with_identical_everything(self):
        """Fully symmetric input must still legalize (tie-breaks)."""
        nl = Netlist("sym")
        for i in range(32):
            nl.add_cell(f"c{i}", 2e-6, 1e-6)
        for i in range(0, 32, 2):
            nl.add_net(f"n{i}", [(i, PinRole.DRIVER),
                                 (i + 1, PinRole.SINK)], activity=0.2)
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=4, seed=0)
        Placer3D(nl, config).run(check=True)


class TestOverfullDesign:
    def test_design_that_cannot_fit_raises(self):
        nl = Netlist("fat")
        for i in range(10):
            nl.add_cell(f"c{i}", 10e-6, 1e-6)
        nl.add_net("n", [(0, PinRole.DRIVER), (1, PinRole.SINK)])
        # chip with half the required capacity
        chip = ChipGeometry(width=25e-6, height=1.25e-6, num_layers=2,
                            row_height=1e-6, row_pitch=1.25e-6)
        pl = Placement.random(nl, chip, seed=0)
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=2, seed=0)
        obj = ObjectiveState(pl, config)
        with pytest.raises(RuntimeError, match="does not fit"):
            DetailedLegalizer(obj, config).run()

    def test_exactly_full_design_fits(self):
        nl = Netlist("tight")
        for i in range(10):
            nl.add_cell(f"c{i}", 10e-6, 1e-6)
        chip = ChipGeometry(width=50e-6, height=2.5e-6, num_layers=2,
                            row_height=1e-6, row_pitch=1.25e-6)
        pl = Placement.random(nl, chip, seed=0)
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=2, seed=0)
        obj = ObjectiveState(pl, config)
        DetailedLegalizer(obj, config).run()
        check_legal(pl)


class TestMalformedBookshelf:
    def test_node_without_dimensions(self, tmp_path):
        bad = tmp_path / "x.nodes"
        bad.write_text("UCLA nodes 1.0\nNumNodes : 1\n  a\n")
        nl = Netlist("x")
        with pytest.raises(ValueError, match="no dimensions"):
            bookshelf.read_nodes(str(bad), nl)

    def test_net_with_unknown_cell(self, tmp_path):
        (tmp_path / "x.nodes").write_text(
            "UCLA nodes 1.0\nNumNodes : 1\n  a 1 1\n")
        (tmp_path / "x.nets").write_text(
            "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
            "NetDegree : 2 n\n  a O\n  ghost I\n")
        nl = Netlist("x")
        bookshelf.read_nodes(str(tmp_path / "x.nodes"), nl)
        with pytest.raises(ValueError, match="unknown cell 'ghost'"):
            bookshelf.read_nets(str(tmp_path / "x.nets"), nl)

    def test_missing_netdegree_header(self, tmp_path):
        (tmp_path / "x.nodes").write_text(
            "UCLA nodes 1.0\nNumNodes : 1\n  a 1 1\n")
        (tmp_path / "x.nets").write_text(
            "UCLA nets 1.0\nNumNets : 1\nNumPins : 1\n  a O\n")
        nl = Netlist("x")
        bookshelf.read_nodes(str(tmp_path / "x.nodes"), nl)
        with pytest.raises(ValueError, match="expected NetDegree"):
            bookshelf.read_nets(str(tmp_path / "x.nets"), nl)


class TestPartitionEdges:
    def test_no_nets(self):
        g = Hypergraph(8, [])
        parts, cut = bisect(g, BisectionConfig(seed=0))
        assert cut == 0.0
        assert 0 < parts.sum() < 8  # still balanced

    def test_two_vertices(self):
        g = Hypergraph(2, [[0, 1]])
        parts, cut = bisect(g, BisectionConfig(seed=0))
        assert parts[0] != parts[1]
        assert cut == 1.0

    def test_all_vertices_in_one_net(self):
        g = Hypergraph(10, [list(range(10))])
        parts, cut = bisect(g, BisectionConfig(seed=0))
        assert cut == 1.0  # unavoidable

    def test_zero_weight_vertices(self):
        g = Hypergraph(6, [[0, 1], [2, 3], [4, 5]],
                       vertex_weights=[0, 0, 1, 1, 1, 1])
        parts, cut = bisect(g, BisectionConfig(seed=0))
        assert set(np.unique(parts)) <= {0, 1}


class TestGeneratorExtremes:
    def test_minimum_size(self):
        nl = generate_netlist(GeneratorSpec("t", 2, 2 * 5e-12, seed=0))
        assert nl.num_cells == 2
        nl.validate()

    def test_full_global_wiring(self):
        nl = generate_netlist(GeneratorSpec(
            "g", 50, 50 * 5e-12, global_fraction=1.0, seed=0))
        nl.validate()

    def test_degree_capped_at_cell_count(self):
        spec = GeneratorSpec("c", 5, 5 * 5e-12, seed=0,
                             degree_weights={20: 1.0})
        nl = generate_netlist(spec)
        for net in nl.nets:
            assert net.degree <= 5


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(alpha_ilv=0.0),
        dict(alpha_ilv=-1e-5),
        dict(alpha_temp=-1.0),
        dict(num_layers=0),
        dict(min_region_cells=0),
    ])
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PlacementConfig(**kwargs)

    def test_thermal_enabled_logic(self):
        assert not PlacementConfig(alpha_temp=0.0).thermal_enabled
        assert PlacementConfig(alpha_temp=1e-5).thermal_enabled
        assert not PlacementConfig(
            alpha_temp=1e-5, use_trr_nets=False,
            use_thermal_net_weights=False).thermal_enabled


class TestLeakagePower:
    def test_leakage_flows_into_thermal_term(self, small_netlist):
        from repro.technology import TechnologyConfig
        tech = TechnologyConfig(leakage_power_density=1e4)  # 1 W/cm^2
        config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=4e-5,
                                 num_layers=4, seed=0, tech=tech)
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=0)
        obj = ObjectiveState(pl, config)
        leakage = tech.leakage_power_density * small_netlist.areas
        for cid in range(small_netlist.num_cells):
            assert obj.cell_power(cid) >= leakage[cid] - 1e-18

    def test_leakage_raises_temperature(self, small_placement):
        from repro.technology import TechnologyConfig
        from repro.thermal.analysis import analyze_placement
        base = analyze_placement(small_placement)
        hot_tech = TechnologyConfig(leakage_power_density=1e4)
        hot = analyze_placement(small_placement, hot_tech)
        assert hot.total_power > base.total_power
        assert hot.average_temperature > base.average_temperature
