"""Integration tests for the full Placer3D pipeline."""

import numpy as np
import pytest

from repro.core.config import PlacementConfig
from repro.core.detailed import check_legal
from repro.core.placer import Placer3D
from repro.geometry.chip import ChipGeometry
from repro.metrics.wirelength import compute_net_metrics
from repro.netlist.placement import Placement


class TestPipeline:
    def test_produces_legal_placement(self, small_netlist, config):
        result = Placer3D(small_netlist, config).run(check=True)
        check_legal(result.placement)

    def test_result_metrics_match_placement(self, small_netlist, config):
        result = Placer3D(small_netlist, config).run()
        m = compute_net_metrics(result.placement)
        assert result.wirelength == pytest.approx(m.total_wl, rel=1e-9)
        assert result.ilv == m.total_ilv

    def test_beats_random_placement(self, medium_netlist, config):
        result = Placer3D(medium_netlist, config).run()
        rand = Placement.random(medium_netlist, result.placement.chip,
                                seed=0)
        rand_wl = compute_net_metrics(rand).total_wl
        assert result.wirelength < 0.75 * rand_wl

    def test_stage_timings_recorded(self, small_netlist, config):
        result = Placer3D(small_netlist, config).run()
        for stage in ("global", "moves", "cellshift", "detailed"):
            assert stage in result.stage_seconds
        assert result.runtime_seconds > 0

    def test_deterministic(self, small_netlist, config):
        a = Placer3D(small_netlist, config).run()
        b = Placer3D(small_netlist, config).run()
        assert np.array_equal(a.placement.x, b.placement.x)
        assert np.array_equal(a.placement.z, b.placement.z)
        assert a.wirelength == b.wirelength

    def test_thermal_flow_runs_and_is_legal(self, small_netlist,
                                            thermal_config):
        nets_before = small_netlist.num_nets
        result = Placer3D(small_netlist, thermal_config).run(check=True)
        assert result.ilv >= 0
        # TRR nets live in the bisection tasks, not the netlist
        assert small_netlist.num_nets == nets_before

    def test_custom_chip_accepted(self, small_netlist, config):
        chip = ChipGeometry.for_cell_area(
            small_netlist.total_cell_area * 1.5, config.num_layers,
            small_netlist.average_cell_height,
            min_row_width=30 * small_netlist.average_cell_width)
        result = Placer3D(small_netlist, config, chip=chip).run(check=True)
        assert result.placement.chip is chip

    def test_chip_layer_mismatch_rejected(self, small_netlist, config):
        chip = ChipGeometry.for_cell_area(
            small_netlist.total_cell_area, 2,
            small_netlist.average_cell_height)
        with pytest.raises(ValueError):
            Placer3D(small_netlist, config, chip=chip)

    def test_single_layer_2d_mode(self, small_netlist):
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=1, seed=0)
        result = Placer3D(small_netlist, config).run(check=True)
        assert result.ilv == 0
        assert np.all(result.placement.z == 0)

    def test_two_layers(self, small_netlist):
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=2, seed=0)
        result = Placer3D(small_netlist, config).run(check=True)
        assert set(result.placement.z.tolist()) <= {0, 1}

    def test_legalization_rounds_improve_or_hold(self, small_netlist):
        one = Placer3D(small_netlist,
                       PlacementConfig(alpha_ilv=1e-5, seed=0,
                                       legalization_rounds=1)).run()
        two = Placer3D(small_netlist,
                       PlacementConfig(alpha_ilv=1e-5, seed=0,
                                       legalization_rounds=2)
                       ).run(check=True)
        # round 1 of the 2-round run equals the 1-round run, and the
        # placer keeps the best round, so more rounds can only help
        assert two.objective <= one.objective + 1e-15


class TestTradeoffs:
    def test_ilv_coefficient_tradeoff(self, medium_netlist):
        """The paper's core tradeoff: raising alpha_ilv trades vias for
        wirelength (Figures 3-4)."""
        results = {}
        for alpha in (5e-9, 1e-5, 5e-3):
            cfg = PlacementConfig(alpha_ilv=alpha, num_layers=4, seed=0)
            results[alpha] = Placer3D(medium_netlist, cfg).run()
        assert results[5e-3].ilv < results[5e-9].ilv
        assert results[5e-3].wirelength > 0.85 * results[5e-9].wirelength

    def test_more_layers_shorter_wirelength(self, medium_netlist):
        """Figure 5: more layers shift the curve to shorter wirelength."""
        wl = {}
        for layers in (1, 4):
            cfg = PlacementConfig(alpha_ilv=1e-5, num_layers=layers,
                                  seed=0)
            wl[layers] = Placer3D(medium_netlist, cfg).run().wirelength
        assert wl[4] < wl[1]
