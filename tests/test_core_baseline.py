"""Tests for the baseline placers (random and simulated annealing), run
as pipeline specs through ``Placer3D``."""

import numpy as np
import pytest

from repro.core.detailed import check_legal
from repro.core.pipeline import PipelineSpec, StageEntry
from repro.core.placer import Placer3D
from repro.metrics.wirelength import compute_net_metrics

RANDOM = PipelineSpec(entries=(StageEntry("random"), StageEntry("detailed")))
ANNEAL = PipelineSpec(entries=(
    StageEntry("random"),
    StageEntry("anneal", {"moves_per_cell": 20, "stages": 10}),
    StageEntry("detailed")))


def random_baseline(netlist, config):
    return Placer3D(netlist, config, spec=RANDOM).run()


def annealed(netlist, config):
    return Placer3D(netlist, config, spec=ANNEAL).run()


class TestRandomBaseline:
    def test_legal_result(self, small_netlist, config):
        result = random_baseline(small_netlist, config)
        check_legal(result.placement)

    def test_metrics_consistent(self, small_netlist, config):
        result = random_baseline(small_netlist, config)
        m = compute_net_metrics(result.placement)
        assert result.wirelength == pytest.approx(m.total_wl)
        assert result.ilv == m.total_ilv

    def test_deterministic(self, small_netlist, config):
        a = random_baseline(small_netlist, config)
        b = random_baseline(small_netlist, config)
        assert np.array_equal(a.placement.x, b.placement.x)


class TestAnnealingPlacer:
    def test_legal_result(self, small_netlist, config):
        check_legal(annealed(small_netlist, config).placement)

    def test_beats_random(self, small_netlist, config):
        rand = random_baseline(small_netlist, config)
        assert annealed(small_netlist, config).objective < rand.objective

    def test_main_placer_beats_annealer(self, medium_netlist, config):
        """The paper's partitioning approach must beat a quick SA."""
        main = Placer3D(medium_netlist, config).run()
        assert main.objective < annealed(medium_netlist, config).objective

    def test_deterministic(self, small_netlist, config):
        a = annealed(small_netlist, config)
        b = annealed(small_netlist, config)
        assert np.array_equal(a.placement.x, b.placement.x)

    def test_objective_consistency(self, small_netlist, config):
        result = annealed(small_netlist, config)
        # re-derive the objective from scratch
        from repro.core.objective import ObjectiveState
        fresh = ObjectiveState(result.placement, config)
        assert fresh.total == pytest.approx(result.objective, rel=1e-9)

    def test_thermal_objective_supported(self, small_netlist,
                                         thermal_config):
        check_legal(annealed(small_netlist, thermal_config).placement)
