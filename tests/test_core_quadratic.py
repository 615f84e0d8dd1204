"""Tests for the quadratic (force-directed) baseline placer, run as
the pipeline spec ``[quadratic, detailed]`` through ``Placer3D``."""

import numpy as np
import pytest

from repro import PlacementConfig, Placer3D
from repro.core.detailed import check_legal
from repro.core.pipeline import PipelineSpec, StageEntry
from repro.core.quadratic import _rank_spread
from tests.conftest import add_pads, make_chip

QUADRATIC = PipelineSpec(entries=(StageEntry("quadratic"),
                                  StageEntry("detailed")))


def quadratic(netlist, config, chip=None):
    return Placer3D(netlist, config, chip=chip, spec=QUADRATIC).run()


class TestRankSpread:
    def test_preserves_order(self):
        values = np.array([5.0, 1.0, 3.0, 2.0])
        spread = _rank_spread(values, 0.0, 1.0)
        assert list(np.argsort(spread)) == list(np.argsort(values))

    def test_covers_interval_evenly(self):
        spread = _rank_spread(np.random.default_rng(0).normal(size=10),
                              0.0, 10.0)
        assert spread.min() == pytest.approx(0.5)
        assert spread.max() == pytest.approx(9.5)

    def test_empty(self):
        out = _rank_spread(np.array([]), 0.0, 1.0)
        assert len(out) == 0


class TestQuadraticPlacer:
    def test_legal_result(self, small_netlist, config):
        result = quadratic(small_netlist, config)
        check_legal(result.placement)

    def test_beats_random(self, small_netlist, config):
        quad = quadratic(small_netlist, config)
        rand = Placer3D(small_netlist, config, spec=PipelineSpec(entries=(
            StageEntry("random"), StageEntry("detailed")))).run()
        assert quad.objective < rand.objective

    def test_deterministic(self, small_netlist, config):
        a = quadratic(small_netlist, config)
        b = quadratic(small_netlist, config)
        assert np.array_equal(a.placement.x, b.placement.x)

    def test_padded_design_supported(self, config):
        """Pad anchors enter the quadratic system through the RHS; the
        solve must succeed and the pads must not move."""
        from repro.netlist.generator import GeneratorSpec, \
            generate_netlist
        nl = generate_netlist(GeneratorSpec(
            "fd", 150, 150 * 5e-12, seed=17))
        chip = make_chip(nl, num_layers=config.num_layers)
        add_pads(nl, chip, count=16)
        result = quadratic(nl, config, chip=chip)
        check_legal(result.placement)
        for cell in nl.fixed_cells():
            assert result.placement.position(cell.id) == \
                cell.fixed_position

    def test_bisection_beats_quadratic_without_pads(self,
                                                    medium_netlist,
                                                    config):
        quad = quadratic(medium_netlist, config)
        main = Placer3D(medium_netlist, config).run()
        assert main.objective < quad.objective

    def test_single_layer(self, small_netlist):
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=1, seed=0)
        result = quadratic(small_netlist, config)
        check_legal(result.placement)
        assert result.ilv == 0
