"""Unit tests for repro.netlist.placement."""

import numpy as np
import pytest

from repro.geometry.chip import ChipGeometry
from repro.netlist.placement import Placement


@pytest.fixture
def chip():
    return ChipGeometry(width=40e-6, height=20e-6, num_layers=4,
                        row_height=1e-6, row_pitch=1.25e-6)


class TestConstructors:
    def test_at_center(self, tiny_netlist, chip):
        pl = Placement.at_center(tiny_netlist, chip)
        assert np.allclose(pl.x, 20e-6)
        assert np.allclose(pl.y, 10e-6)
        assert np.all(pl.z == 1)  # (4-1)//2

    def test_random_inside_chip(self, tiny_netlist, chip):
        pl = Placement.random(tiny_netlist, chip, seed=1)
        assert np.all((pl.x >= 0) & (pl.x <= chip.width))
        assert np.all((pl.z >= 0) & (pl.z < 4))

    def test_random_deterministic(self, tiny_netlist, chip):
        a = Placement.random(tiny_netlist, chip, seed=5)
        b = Placement.random(tiny_netlist, chip, seed=5)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)

    def test_shape_mismatch_rejected(self, tiny_netlist, chip):
        with pytest.raises(ValueError):
            Placement(tiny_netlist, chip, x=np.zeros(3), y=np.zeros(6),
                      z=np.zeros(6))

    def test_fixed_cells_pinned(self, tiny_netlist, chip):
        tiny_netlist.add_cell("pad", 1e-6, 1e-6, fixed=True,
                              fixed_position=(1e-6, 2e-6, 3))
        pl = Placement.at_center(tiny_netlist, chip)
        pad = tiny_netlist.cell("pad")
        assert pl.position(pad.id) == (1e-6, 2e-6, 3)


class TestMutation:
    def test_move(self, tiny_netlist, chip):
        pl = Placement.at_center(tiny_netlist, chip)
        pl.move(0, 1e-6, 2e-6, 3)
        assert pl.position(0) == (1e-6, 2e-6, 3)

    def test_move_fixed_rejected(self, tiny_netlist, chip):
        tiny_netlist.add_cell("pad", 1e-6, 1e-6, fixed=True,
                              fixed_position=(0.0, 0.0, 0))
        pl = Placement.at_center(tiny_netlist, chip)
        with pytest.raises(ValueError):
            pl.move(tiny_netlist.cell("pad").id, 1e-6, 1e-6, 0)

    def test_copy_is_independent(self, tiny_netlist, chip):
        pl = Placement.at_center(tiny_netlist, chip)
        cp = pl.copy()
        cp.x[0] = 1e-6
        assert pl.x[0] != 1e-6


class TestQueries:
    def test_layer_populations(self, tiny_netlist, chip):
        pl = Placement.at_center(tiny_netlist, chip)
        pl.z[:] = [0, 0, 1, 2, 2, 2]
        assert list(pl.layer_populations()) == [2, 1, 3, 0]

    def test_layer_areas(self, tiny_netlist, chip):
        pl = Placement.at_center(tiny_netlist, chip)
        pl.z[:] = [0, 0, 0, 3, 3, 3]
        areas = pl.layer_areas()
        assert areas[0] == pytest.approx(3 * 2e-12)
        assert areas[3] == pytest.approx(3 * 2e-12)
        assert areas[1] == 0.0

    def test_iter_movable_skips_fixed(self, tiny_netlist, chip):
        tiny_netlist.add_cell("pad", 1e-6, 1e-6, fixed=True,
                              fixed_position=(0.0, 0.0, 0))
        pl = Placement.at_center(tiny_netlist, chip)
        ids = [cid for cid, *_ in pl.iter_movable()]
        assert tiny_netlist.cell("pad").id not in ids
        assert len(ids) == 6
